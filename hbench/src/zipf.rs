//! `serve-zipf-2k`: read-only skewed traffic through
//! `ServeEngine::run_quiesced_workload` with the hot-key cache on, in a
//! world that fits in the CPU caches. Zipf(0.99) keys over a 64k-key
//! universe with landmark-clustered sources; the per-request serve work
//! (draw, cache bind/probe/admit, owner-ring lookup, `Metrics::record`)
//! is a large share of a sub-microsecond lookup. The maintainer and
//! telemetry are bypassed.
//!
//! The engine's loop is internal, so per-lookup latency and the traced
//! run come from a replica that makes the engine's per-request calls
//! through the public API, and must reproduce the engine's owner digest,
//! cache hits and metrics exactly.

use crate::report::Outcome;
use crate::spans::{
    Spans, CACHE_BIND, CACHE_INSERT, CACHE_NEW, CACHE_PROBE, DRAW, EVAL, LINK, OP, OWNER_RING,
    RECORD,
};
use crate::world::{self, BruteOwners};
use hieras_chord::PathBuf;
use hieras_id::Key;
use hieras_obs::Profiler;
use hieras_rt::splitmix64;
use hieras_serve::{
    CacheConfig, CacheStats, LookupCache, ServeConfig, ServeEngine, ServeSnapshot, TelemetryConfig,
};
use hieras_sim::{
    ChurnConfig, Experiment, Lifetime, Metrics, Sample, SkewParams, Workload, WorkloadModel,
    HOT_RANK_MAX,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Overlay peers.
    pub peers: usize,
    /// Requests per engine call.
    pub requests: usize,
    /// World + snapshot builds behind the `setup_s` median.
    pub setups: usize,
}

/// The benchmark's size.
pub const FULL: Params = Params {
    peers: 2_000,
    requests: 200_000,
    setups: 15,
};

/// The engine's executor chunk: caches and digests restart per chunk.
const CHUNK: usize = 256;

/// Checks every run must record.
pub const REQUIRED: &[&str] = &[
    "zipf.owner_digest_is_brute",
    "zipf.engine_repeats_agree",
    "zipf.cache_off_equals_cache_on",
    "zipf.replica_matches_engine",
];

/// Per-layer metrics of layers this workload never calls.
const BYPASSED: &[&str] = &[
    "core.splice_us.p50",
    "core.rebuild_us.p50",
    "core.touch_ns",
    "core.digest_us",
    "core.delta_share",
    "churn.apply_us",
    "churn.events_per_epoch",
    "serve.refresh_ns",
    "serve.maint.rebin_us.p50",
    "serve.maint.swap_us",
    "serve.maint.reclaim_us",
    "serve.maint.publish_us.p50",
    "serve.maint.publish_us.p95",
    "serve.maint.publish_samples",
    "serve.arena.reused_per_publish",
    "serve.maint_share",
    "obs.record_ns",
];

/// The workload model: the Zipf(0.99) sweep default.
#[must_use]
pub fn model() -> WorkloadModel {
    WorkloadModel::Skew(SkewParams::zipf(0.99))
}

/// The request stream of seed `seed`.
#[must_use]
pub fn workload(p: &Params, seed: u64) -> Workload {
    Workload::with_model(p.peers as u32, p.requests, seed ^ 0x7a69_7066, model())
}

/// The serving configuration: quiesced, one reader, cache on,
/// telemetry off.
#[must_use]
pub fn serve_config(peers: usize, seed: u64, cache: CacheConfig) -> ServeConfig {
    ServeConfig {
        churn: ChurnConfig {
            initial_nodes: peers as u32,
            arrivals: 0,
            inter_arrival: Lifetime::Fixed { ms: 1_000 },
            lifetime: Lifetime::Exponential { mean_ms: 1e12 },
            graceful_fraction: 0.5,
            horizon_ms: 1,
            seed,
        },
        readers: 1,
        events_per_epoch: 1,
        lookups_per_epoch: 1,
        refresh_batch: 64,
        seed: seed ^ 0x5e27e,
        rebin_every: 0,
        rebin_noise: 0.0,
        telemetry: TelemetryConfig::off(),
        delta_max_ring_fraction: 0.6,
        batched: false,
        pace: 0.0,
        cache,
        workload: model(),
    }
}

/// The epoch-0 snapshot the engine serves from: the full membership.
#[must_use]
pub fn snapshot(exp: &Experiment) -> ServeSnapshot {
    let members: Vec<u32> = (0..exp.config.nodes as u32).collect();
    let oracle = exp
        .subset_hieras_on(&world::exec(), &members, Some(&exp.orders), None)
        .expect("the full membership is a valid hierarchy");
    ServeSnapshot::new(0, oracle, Arc::from(members))
}

/// The engine's owner digest recomputed from brute-force owners.
#[must_use]
pub fn brute_digest(exp: &Experiment, w: &Workload) -> u64 {
    let brute = BruteOwners::new(&exp.ids, 0..exp.config.nodes as u32);
    let mut digest = 0u64;
    for lo in (0..w.requests).step_by(CHUNK) {
        let mut d = 0u64;
        for i in lo..(lo + CHUNK).min(w.requests) {
            d = splitmix64(d ^ (u64::from(brute.owner(w.request(i).1)) + 1));
        }
        digest = splitmix64(digest ^ d);
    }
    digest
}

/// What one replica pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Owner digest, chained as the engine chains it.
    pub digest: u64,
    /// Merged cache counters.
    pub cache: CacheStats,
    /// Merged routing metrics.
    pub metrics: Metrics,
    /// Summed wall time of hit and miss lookups, ns, with their counts
    /// (timed passes only).
    pub hit_ns: (u64, u64),
    /// See `hit_ns`.
    pub miss_ns: (u64, u64),
}

/// One pass of the engine's per-request call sequence over `w`:
/// per 256-request chunk a fresh cache and metrics; per request the
/// draw, cache bind and probe, and on a miss the routed `eval`, the
/// owner-ring lookup and the cache admission; then `Metrics::record`.
/// `samples` receives each lookup's wall time when given; `spans`
/// records the calls when enabled.
pub fn replica_pass(
    exp: &Experiment,
    snap: &ServeSnapshot,
    w: &Workload,
    ccfg: CacheConfig,
    spans: &mut Spans,
    mut samples: Option<&mut world::LatencyHist>,
) -> Pass {
    let mut pass = Pass::default();
    let mut scratch = PathBuf::new();
    let mut hot = Metrics::default();
    let mut chunk: Option<(Metrics, Metrics, LookupCache, u64)> = None;
    for i in 0..w.requests {
        let t0 = samples.is_some().then(Instant::now);
        spans.begin(OP);
        if i % CHUNK == 0 {
            spans.begin(CACHE_NEW);
            chunk = Some((
                Metrics::default(),
                Metrics::default(),
                LookupCache::new(ccfg),
                0,
            ));
            spans.end();
        }
        let (m, h, cache, d) = chunk.as_mut().expect("chunk opened at its first request");
        let (src, key, rank) = spans.span(DRAW, || w.request_detail(i));
        spans.span(CACHE_BIND, || cache.bind(snap.checksum));
        let hit = spans.span(CACHE_PROBE, || cache.get(key.0));
        let (s, owner) = match hit {
            Some((owner, _)) => {
                let latency_ms = if src == owner {
                    0
                } else {
                    spans.begin(LINK);
                    let l = exp.peer_latency(src, owner);
                    spans.end();
                    u32::from(l)
                };
                (
                    Sample {
                        hops: u32::from(src != owner),
                        lower_hops: 0,
                        latency_ms,
                        lower_latency_ms: 0,
                    },
                    owner,
                )
            }
            None => {
                let (s, owner) = routed(exp, snap, spans, src, key, &mut scratch);
                let ring = spans.span(OWNER_RING, || snap.owner_ring(owner));
                spans.span(CACHE_INSERT, || cache.insert(key.0, owner, ring));
                (s, owner)
            }
        };
        spans.begin(RECORD);
        *d = splitmix64(*d ^ (u64::from(owner) + 1));
        m.record(s);
        if rank.is_some_and(|r| r <= HOT_RANK_MAX) {
            h.record(s);
        }
        if (i + 1) % CHUNK == 0 || i + 1 == w.requests {
            let (m, h, cache, d) = chunk.take().expect("chunk open");
            pass.metrics = std::mem::take(&mut pass.metrics).merged(m);
            hot = hot.merged(h);
            pass.cache = pass.cache.merged(cache.stats);
            pass.digest = splitmix64(pass.digest ^ d);
        }
        spans.end();
        spans.end();
        if let (Some(t0), Some(v)) = (t0, samples.as_deref_mut()) {
            let ns = t0.elapsed().as_nanos() as u64;
            v.record(ns);
            let slot = if hit.is_some() {
                &mut pass.hit_ns
            } else {
                &mut pass.miss_ns
            };
            slot.0 += ns;
            slot.1 += 1;
        }
    }
    std::hint::black_box(hot);
    pass
}

/// One routed lookup against `snap`, with a span around `eval` and
/// each link call inside it.
pub fn routed(
    exp: &Experiment,
    snap: &ServeSnapshot,
    spans: &mut Spans,
    src: u32,
    key: Key,
    scratch: &mut PathBuf,
) -> (Sample, u32) {
    spans.begin(EVAL);
    let c = snap.oracle.eval(src, key, scratch, |a, b| {
        spans.begin(LINK);
        let l = exp.peer_latency(a, b);
        spans.end();
        l
    });
    spans.end();
    let s = Sample {
        hops: c.hops,
        lower_hops: c.lower_hops,
        latency_ms: c.latency_ms as u32,
        lower_latency_ms: c.lower_latency_ms as u32,
    };
    (s, c.destination)
}

/// What the interleaved measurement produced.
struct Measured {
    /// Report of the first engine call.
    first: hieras_serve::WorkloadReport,
    /// Engine lookups and the outside wall time they took, s.
    lookups: u64,
    wall_s: f64,
    /// Per-call engine rates (for the spread fact).
    rates: Vec<f64>,
    /// Replica per-lookup wall times, and the summed hit/miss times.
    samples: world::LatencyReps,
    timed: Pass,
}

/// Alternates engine calls (timed from outside) with untraced replica
/// passes (each lookup timed alone) until `seconds` pass, so both
/// end-to-end figures sample the same stretch of machine time. Every
/// engine call must repeat the first one's answers, and every replica
/// pass must reproduce them.
fn measure(
    engine: &ServeEngine<'_>,
    exp: &Experiment,
    snap: &ServeSnapshot,
    w: &Workload,
    seconds: f64,
    out: &mut Outcome,
) -> Measured {
    let exec = world::exec();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut off = Spans::new(false);
    let mut m: Option<Measured> = None;
    let (mut disagree, mut mismatched) = (0u64, 0u64);
    while m.as_ref().map_or(0, |m| m.rates.len()) < 2 || start.elapsed() < budget {
        let t = Instant::now();
        let r = engine.run_quiesced_workload(&exec, w);
        let wall = t.elapsed().as_secs_f64();
        out.attempted += r.lookups;
        let m = m.get_or_insert_with(|| Measured {
            first: r.clone(),
            lookups: 0,
            wall_s: 0.0,
            rates: Vec::new(),
            samples: world::LatencyReps::default(),
            timed: Pass::default(),
        });
        if m.first.owner_digest != r.owner_digest
            || m.first.cache != r.cache
            || m.first.metrics != r.metrics
        {
            disagree += r.lookups;
        }
        m.lookups += r.lookups;
        m.wall_s += wall;
        m.rates.push(r.lookups as f64 / wall);
        let pass = replica_pass(
            exp,
            snap,
            w,
            CacheConfig::on(),
            &mut off,
            Some(m.samples.hist()),
        );
        m.samples.close();
        if pass.digest != m.first.owner_digest
            || pass.cache != m.first.cache
            || pass.metrics != m.first.metrics
        {
            mismatched += 1;
        }
        m.timed.hit_ns.0 += pass.hit_ns.0;
        m.timed.hit_ns.1 += pass.hit_ns.1;
        m.timed.miss_ns.0 += pass.miss_ns.0;
        m.timed.miss_ns.1 += pass.miss_ns.1;
    }
    out.failed += disagree;
    out.check("zipf.engine_repeats_agree", disagree == 0);
    out.check("zipf.replica_matches_engine", mismatched == 0);
    m.expect("at least two engine calls")
}

/// Runs the workload.
#[must_use]
pub fn run(p: &Params, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let ((exp, prof, snap), setup_s) =
        world::timed_setups(if trace { 1 } else { p.setups }, || {
            let mut prof = Profiler::new();
            let exp = world::build(p.peers, world::WORLD_SEED, &mut prof);
            let snap = snapshot(&exp);
            (exp, prof, snap)
        });
    let w = workload(p, seed);
    let reqs: Vec<(u32, Key)> = (0..w.requests).map(|i| w.request(i)).collect();
    out.facts.insert(
        "stream_digest",
        format!("{:016x}", crate::replay::stream_digest(&reqs)),
    );
    out.facts.insert("peers", p.peers.to_string());
    out.facts
        .insert("requests_per_engine_call", p.requests.to_string());
    let on = ServeEngine::new(&exp, serve_config(p.peers, seed, CacheConfig::on()));
    let mut m = measure(
        &on,
        &exp,
        &snap,
        &w,
        seconds * if trace { 0.3 } else { 0.95 },
        &mut out,
    );
    let first = m.first.clone();
    let expected = brute_digest(&exp, &w);
    if first.owner_digest != expected {
        out.failed += first.lookups;
    }
    out.check("zipf.owner_digest_is_brute", first.owner_digest == expected);
    let off = ServeEngine::new(&exp, serve_config(p.peers, seed, CacheConfig::off()));
    let off_report = off.run_quiesced_workload(&world::exec(), &w);
    out.check(
        "zipf.cache_off_equals_cache_on",
        off_report.owner_digest == first.owner_digest,
    );
    out.facts.insert("cache_hits", first.cache.hits.to_string());
    out.facts
        .insert("owner_digest", format!("{:016x}", first.owner_digest));
    world::note_rates(&mut out, &m.rates);
    let lookups_per_s = m.lookups as f64 / m.wall_s;
    if !trace {
        out.set("setup_s", setup_s);
        out.set("lookups_per_s", lookups_per_s);
        world::set_lookup_latency(&mut out, &mut m.samples);
        out.set("peak_rss_mb", world::peak_rss_mb());
        return out;
    }

    let timed = std::mem::take(&mut m.timed);
    let samples = m.samples.samples();
    let untraced_op_ns = 1e9 / lookups_per_s;
    let mut spans = Spans::calibrated();
    let budget = Duration::from_secs_f64(seconds * 0.4);
    let start = Instant::now();
    let mut traced_passes = 0u64;
    while traced_passes == 0 || start.elapsed() < budget {
        let pass = replica_pass(&exp, &snap, &w, CacheConfig::on(), &mut spans, None);
        if pass.digest != first.owner_digest || pass.cache != first.cache {
            out.failed += 1;
        }
        traced_passes += 1;
    }
    let (seek, route) =
        world::probe_seek_route(&mut spans, &snap.oracle, &reqs[..reqs.len().min(50_000)]);
    let verify_t = Instant::now();
    let verified = (0..1000).all(|_| std::hint::black_box(&snap).verify(0));
    let verify_us = verify_t.elapsed().as_secs_f64() * 1e6 / 1000.0;
    out.check("zipf.snapshot_verifies", verified);
    let ops = spans.op_agg(OP).calls.max(1) as f64;
    let evals = spans.op_agg(EVAL).calls.max(1) as f64;
    let eval_ns = spans.mean_ns(EVAL);
    // Links inside evals: all link spans minus the direct hop of hits
    // whose source is not the owner.
    let eval_links = spans
        .op_agg(EVAL)
        .total_ns
        .saturating_sub(spans.op_agg(EVAL).self_ns) as f64
        / evals;
    world::set_build_phases(&mut out, &prof, &exp);
    out.set("topology.link_ns", spans.mean_ns(LINK));
    out.set(
        "topology.link_calls_per_lookup",
        spans.op_agg(LINK).calls as f64 / ops,
    );
    out.set("chord.seek_ns", seek);
    out.set("core.route_ns", route);
    out.set("core.eval_ns", eval_ns);
    out.set(
        "core.eval_residual_share",
        (eval_ns - seek - route - eval_links) / eval_ns,
    );
    out.set("sim.draw_ns", spans.mean_ns(DRAW));
    out.set("sim.record_ns", spans.mean_ns(RECORD));
    out.set("serve.cache.probe_ns", spans.mean_ns(CACHE_PROBE));
    out.set("serve.cache.insert_ns", spans.mean_ns(CACHE_INSERT));
    let probes = (first.cache.hits + first.cache.misses).max(1);
    out.set(
        "serve.cache.hit_rate",
        first.cache.hits as f64 / probes as f64,
    );
    let mean = |(ns, n): (u64, u64)| ns as f64 / n.max(1) as f64;
    let saving = if timed.hit_ns.1 == 0 {
        0.0
    } else {
        mean(timed.miss_ns) - mean(timed.hit_ns)
    };
    out.set("serve.cache.hit_saving_ns", saving);
    out.set("serve.snapshot_verify_us", verify_us);
    world::set_ledger(&mut out, &spans, untraced_op_ns, seek, evals / ops);
    world::set_hier(&mut out, &exp, &reqs[..reqs.len().min(20_000)]);
    out.set("bench.lookup_samples", samples as f64);
    for name in BYPASSED {
        out.set(name, 0.0);
    }
    world::write_spans(&mut out, &spans, "serve-zipf-2k", seed);
    out
}
