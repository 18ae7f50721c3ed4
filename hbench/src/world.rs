//! The world every workload runs in, and the helpers the workloads
//! share: set-up timing, brute-force owners, quantiles, peak RSS, and
//! the deterministic `hier.*` routing outputs.

use crate::report::Outcome;
use hieras_chord::PathBuf;
use hieras_id::{Id, Key};
use hieras_obs::{Phase, Profiler};
use hieras_rt::Executor;
use hieras_sim::{BuildOptions, Experiment, ExperimentConfig, OracleBackend};
use std::time::Instant;

/// Executor width of every workload: one thread, so the scheduler does
/// not enter the figures.
pub const WIDTH: usize = 1;

/// Seed of the world every workload runs in: the topology, peer
/// placement, landmarks and ids are a fixed fixture, so runs with
/// different `--seed`s measure the same network under different
/// request streams and churn schedules.
pub const WORLD_SEED: u64 = 20_030_415;

/// The single-thread executor all builds and serving runs use.
#[must_use]
pub fn exec() -> Executor {
    Executor::new(WIDTH)
}

/// The paper's Transit-Stub setting at `peers`: two HIERAS layers over
/// eight landmarks.
#[must_use]
pub fn config(peers: usize, seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::paper(peers, seed);
    c.hieras.landmarks = 8;
    c
}

/// Builds the world on the labels backend at width 1.
#[must_use]
pub fn build(peers: usize, seed: u64, prof: &mut Profiler) -> Experiment {
    let opts = BuildOptions {
        exec: exec(),
        oracle: OracleBackend::Labels,
        precompute: true,
    };
    Experiment::build_with(config(peers, seed), prof, opts)
}

/// Runs `setup` `times` times, dropping each result before the next
/// build starts, and returns the last result with the median wall time
/// in seconds.
pub fn timed_setups<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last: Option<T> = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup ran"), median(&mut secs))
}

/// Milliseconds of the named build phases (summed), from a
/// [`Profiler`] that timed [`Experiment::build_with`].
#[must_use]
pub fn phase_ms(prof: &Profiler, names: &[&str]) -> f64 {
    fn walk(p: &Phase, names: &[&str], acc: &mut u64) {
        if names.contains(&p.name.as_str()) {
            *acc += p.total_ns;
        }
        for c in &p.children {
            walk(c, names, acc);
        }
    }
    let mut ns = 0u64;
    for p in &prof.report().phases {
        walk(p, names, &mut ns);
    }
    ns as f64 / 1e6
}

/// Sets the build-phase metrics every workload reports.
pub fn set_build_phases(out: &mut Outcome, prof: &Profiler, exp: &Experiment) {
    out.set(
        "topology.generate_ms",
        phase_ms(prof, &["topology", "place_peers"]),
    );
    out.set(
        "topology.label_build_ms",
        phase_ms(prof, &["latency_oracle"]),
    );
    out.set(
        "topology.landmark_ms",
        phase_ms(prof, &["landmarks", "binning"]),
    );
    out.set("id.gen_ms", phase_ms(prof, &["ids"]));
    out.set("chord.build_ms", phase_ms(prof, &["chord_build"]));
    out.set("core.build_ms", phase_ms(prof, &["hieras_build"]));
    let (entries, bytes) = match exp.lat.label_stats() {
        Some((l, _)) => (l.avg_len, exp.lat.cache_bytes() as f64),
        None => (0.0, exp.lat.cache_bytes() as f64),
    };
    out.set("topology.label_entries_per_node", entries);
    out.set("topology.label_bytes", bytes);
}

/// The benchmark's own owner table: member ids sorted, each with its
/// peer index. Owners come from a binary search here, never from the
/// program's seek index.
#[derive(Debug, Clone)]
pub struct BruteOwners {
    sorted: Vec<(Id, u32)>,
}

impl BruteOwners {
    /// Over the given members of `ids`.
    #[must_use]
    pub fn new(ids: &[Id], members: impl IntoIterator<Item = u32>) -> Self {
        let mut sorted: Vec<(Id, u32)> =
            members.into_iter().map(|m| (ids[m as usize], m)).collect();
        sorted.sort_unstable();
        BruteOwners { sorted }
    }

    /// The successor of `key`: the first member whose id is at or past
    /// the key, wrapping to the smallest id.
    #[must_use]
    pub fn owner(&self, key: Key) -> u32 {
        let p = self.sorted.partition_point(|&(id, _)| id < key);
        self.sorted[p % self.sorted.len()].1
    }
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Notes the spread of a run's repeated rate measurements in the
/// facts: their count, and (max − min) over the median.
pub fn note_rates(out: &mut Outcome, rates: &[f64]) {
    let mut v = rates.to_vec();
    let med = median(&mut v);
    let (lo, hi) = (
        v.first().copied().unwrap_or(0.0),
        v.last().copied().unwrap_or(0.0),
    );
    out.facts.insert("rate_samples", v.len().to_string());
    out.facts.insert(
        "rate_range_over_median",
        format!("{:.4}", if med > 0.0 { (hi - lo) / med } else { 0.0 }),
    );
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty one.
#[must_use]
pub fn quantile_sorted<T: Copy + Into<f64>>(v: &[T], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1].into()
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-lookup wall times at 1 ns resolution in fixed memory, so the
/// sample store does not grow with the program's speed (and move
/// `peak_rss_mb` with it). Times past the last bucket land in it.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; Self::MAX_NS + 1],
            n: 0,
        }
    }
}

impl LatencyHist {
    /// Last exact bucket, ns.
    pub const MAX_NS: usize = 1 << 18;

    /// Records one lookup's wall time.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[usize::try_from(ns)
            .unwrap_or(Self::MAX_NS)
            .min(Self::MAX_NS)] += 1;
        self.n += 1;
    }

    /// Forgets every sample.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    /// Samples recorded.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank quantile, ns; 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ns as f64;
            }
        }
        Self::MAX_NS as f64
    }
}

/// Per-lookup latency percentiles of a run: one `(p50, p99)` per
/// repetition (a replica pass or run, or a block of the replay loop),
/// reported as the median over repetitions so a stretch of machine
/// contention shorter than half the run does not move the figure.
#[derive(Debug, Clone, Default)]
pub struct LatencyReps {
    hist: LatencyHist,
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: u64,
}

impl LatencyReps {
    /// The histogram the current repetition records into.
    pub fn hist(&mut self) -> &mut LatencyHist {
        &mut self.hist
    }

    /// Closes the current repetition.
    pub fn close(&mut self) {
        if self.hist.is_empty() {
            return;
        }
        self.p50.push(self.hist.quantile(0.50));
        self.p99.push(self.hist.quantile(0.99));
        self.samples += self.hist.len();
        self.hist.clear();
    }

    /// Samples over all closed repetitions.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Per-lookup wall times → the end-to-end latency metrics.
pub fn set_lookup_latency(out: &mut Outcome, reps: &mut LatencyReps) {
    reps.close();
    out.set("lookup_us.p50", median(&mut reps.p50) / 1e3);
    out.set("lookup_us.p99", median(&mut reps.p99) / 1e3);
    out.facts.insert("lookup_samples", reps.samples.to_string());
    out.facts
        .insert("lookup_repetitions", reps.p50.len().to_string());
}

/// Deterministic routing outputs of HIERAS (and Chord on the same
/// stream) over `requests` in `exp`'s full world: simulated route
/// milliseconds, the HIERAS/Chord latency ratio, and per-layer link
/// delay. Identical on every run of the same seed — a check on the
/// algorithm, not a measure of the program's speed.
pub fn set_hier(out: &mut Outcome, exp: &Experiment, requests: &[(u32, Key)]) {
    let mut scratch = PathBuf::new();
    let mut route_ms: Vec<u32> = Vec::with_capacity(requests.len());
    let (mut hieras_ms, mut chord_ms, mut lower_ms) = (0u64, 0u64, 0u64);
    let mut layer_ms = [0u64; 2];
    let mut layer_hops = [0u64; 2];
    let mut global_routes = 0u64;
    for &(src, key) in requests {
        let mut ms = 0u64;
        let before = layer_hops[0];
        exp.hieras
            .route_with(src, key, &mut scratch, |a, b, layer| {
                let l = u64::from(exp.peer_latency(a, b));
                ms += l;
                let i = usize::from(layer.clamp(1, 2) - 1);
                layer_ms[i] += l;
                layer_hops[i] += 1;
                if layer > 1 {
                    lower_ms += l;
                }
            });
        global_routes += u64::from(layer_hops[0] > before);
        route_ms.push(ms as u32);
        hieras_ms += ms;
        exp.chord.lookup_into(src, key, &mut scratch);
        for w in scratch.as_slice().windows(2) {
            chord_ms += u64::from(exp.peer_latency(w[0], w[1]));
        }
    }
    route_ms.sort_unstable();
    let div = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("hier.route_ms.p50", quantile_sorted(&route_ms, 0.50));
    out.set("hier.route_ms.p99", quantile_sorted(&route_ms, 0.99));
    out.set("hier.latency_ratio", div(hieras_ms, chord_ms));
    out.set("hier.lower_latency_share", div(lower_ms, hieras_ms));
    out.set("hier.layer1.link_ms", div(layer_ms[0], layer_hops[0]));
    out.set("hier.layer2.link_ms", div(layer_ms[1], layer_hops[1]));
    let n = requests.len().max(1) as f64;
    // `RingView::route_into` runs once per lookup that reaches the
    // global ring; lower layers use `route_to_predecessor_into`.
    out.facts.insert(
        "route_into_calls_per_lookup",
        format!("{:.4}", global_routes as f64 / n),
    );
    out.set("core.hops.layer1", layer_hops[0] as f64 / n);
    out.set("core.hops.layer2", layer_hops[1] as f64 / n);
}

/// Side measurements over `requests` against `oracle`: the mean wall
/// time of [`hieras_core::HierasOracle::owner_of`] alone, and of
/// [`hieras_core::HierasOracle::route_with`] with a no-op visitor minus
/// that seek (`route_with` resolves the owner first), in ns. Each call
/// is its own `bench.probe` operation in `spans`.
pub fn probe_seek_route(
    spans: &mut crate::spans::Spans,
    oracle: &hieras_core::HierasOracle,
    requests: &[(u32, Key)],
) -> (f64, f64) {
    use crate::spans::{PROBE, ROUTE, SEEK};
    let mut scratch = PathBuf::new();
    for &(_, key) in requests {
        spans.begin(PROBE);
        std::hint::black_box(spans.span(SEEK, || oracle.owner_of(key)));
        spans.end();
    }
    for &(src, key) in requests {
        spans.begin(PROBE);
        std::hint::black_box(spans.span(ROUTE, || {
            oracle.route_with(src, key, &mut scratch, |_, _, _| {})
        }));
        spans.end();
    }
    let seek = spans.mean_ns(SEEK);
    let route = spans.mean_ns(ROUTE);
    (seek, (route - seek).max(0.0))
}

/// Sets the ledger metrics from a traced run: per-layer self-time
/// shares of one operation (timer cost taken out), the unattributed
/// share (the benchmark's own glue), and the ledger's sum against the
/// untraced operation time. The tracing overhead is the traced rate
/// over the untraced one, as measured.
///
/// `seek_ns × seeks_per_op` is moved from `core` to `chord`: every
/// `HierasOracle::eval` resolves the owner with one `owner_of` call,
/// which the probes time alone.
pub fn set_ledger(
    out: &mut Outcome,
    spans: &crate::spans::Spans,
    untraced_op_ns: f64,
    seek_ns: f64,
    seeks_per_op: f64,
) {
    use crate::spans::{LAYERS, OP};
    let ops = spans.op_agg(OP).calls.max(1) as f64;
    let traced_op_ns = spans.op_agg(OP).total_ns as f64 / ops;
    let seek = (seek_ns * seeks_per_op).min(spans.layer_self_per_op("core"));
    let mut per_layer: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&l| {
            let ns = spans.layer_self_per_op(l);
            (
                l,
                match l {
                    "chord" => ns + seek,
                    "core" => ns - seek,
                    _ => ns,
                },
            )
        })
        .collect();
    per_layer.push(("bench", spans.layer_self_per_op("bench")));
    let total: f64 = per_layer.iter().map(|&(_, ns)| ns).sum();
    for &(layer, ns) in &per_layer {
        let key: &'static str = match layer {
            "topology" => "ledger.topology.share",
            "chord" => "ledger.chord.share",
            "core" => "ledger.core.share",
            "sim" => "ledger.sim.share",
            "churn" => "ledger.churn.share",
            "serve" => "ledger.serve.share",
            "obs" => "ledger.obs.share",
            _ => "ledger.unattributed_share",
        };
        out.set(key, if total > 0.0 { ns / total } else { 0.0 });
    }
    let attributed = total - per_layer.last().map_or(0.0, |&(_, ns)| ns);
    out.set("ledger.op_us.traced", traced_op_ns / 1e3);
    out.set("ledger.op_us.untraced", untraced_op_ns / 1e3);
    let ratio = if untraced_op_ns > 0.0 {
        attributed / untraced_op_ns
    } else {
        0.0
    };
    out.set("ledger.sum_vs_untraced", ratio);
    out.set(
        "obs.trace_overhead",
        if traced_op_ns > 0.0 {
            untraced_op_ns / traced_op_ns
        } else {
            0.0
        },
    );
    let (cin, cout) = spans.timer_cost();
    out.facts.insert(
        "span_timer_cost_ns",
        format!("{cin:.1} inside, {cout:.1} outside"),
    );
    let residual = 1.0 - ratio;
    out.facts.insert(
        "ledger_residual",
        format!(
            "layer self times sum to {:.1}% of the untraced operation time; residual {:+.1}%{}",
            ratio * 100.0,
            residual * 100.0,
            if residual.abs() > 0.10 {
                " (over 10%)"
            } else {
                ""
            }
        ),
    );
}

/// Writes the traced run's spans under `.bench_out/` in the working
/// directory, noting the path (or the write error) in the facts.
pub fn write_spans(out: &mut Outcome, spans: &crate::spans::Spans, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!(".bench_out/{workload}-seed{seed}.spans.jsonl"));
    let note = match spans.write_jsonl(&path) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("span write-out failed: {e}"),
    };
    out.facts.insert("spans_file", note);
}
