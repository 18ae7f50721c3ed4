//! `replay-100k`: uniform `(src, key)` lookups driven one at a time
//! through `HierasOracle::eval` with `Experiment::peer_latency` as the
//! link cost, over a world too large for the CPU caches. Label merges
//! (the link cost) dominate; serve, cache, telemetry and the maintainer
//! are bypassed.

use crate::report::Outcome;
use crate::spans::{Spans, EVAL, LINK, OP};
use crate::world::{self, BruteOwners};
use hieras_chord::PathBuf;
use hieras_id::Key;
use hieras_obs::Profiler;
use hieras_rt::splitmix64;
use hieras_sim::{Experiment, Workload};
use std::time::{Duration, Instant};

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Overlay peers.
    pub peers: usize,
    /// Distinct requests; the timed loop cycles through them.
    pub stream: usize,
    /// World builds behind the `setup_s` median.
    pub setups: usize,
    /// Requests behind the `hier.*` outputs.
    pub hier_requests: usize,
}

/// The benchmark's size.
pub const FULL: Params = Params {
    peers: 100_000,
    stream: 100_000,
    setups: 3,
    hier_requests: 20_000,
};

/// Checks every run must record.
pub const REQUIRED: &[&str] = &[
    "replay.owner_is_brute_successor",
    "replay.latency_is_hop_sum",
    "replay.repeats_agree",
];

/// Per-layer metrics of layers this workload never calls.
const BYPASSED: &[&str] = &[
    "core.splice_us.p50",
    "core.rebuild_us.p50",
    "core.touch_ns",
    "core.digest_us",
    "core.delta_share",
    "sim.draw_ns",
    "sim.record_ns",
    "churn.apply_us",
    "churn.events_per_epoch",
    "serve.cache.probe_ns",
    "serve.cache.insert_ns",
    "serve.cache.hit_rate",
    "serve.cache.hit_saving_ns",
    "serve.snapshot_verify_us",
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

/// The request stream of seed `seed`.
#[must_use]
pub fn requests(peers: usize, n: usize, seed: u64) -> Vec<(u32, Key)> {
    let w = Workload::new(peers as u32, n, seed ^ 0x7265_706c_6179);
    (0..n).map(|i| w.request(i)).collect()
}

/// Digest of a request stream (the determinism tests compare it).
#[must_use]
pub fn stream_digest(reqs: &[(u32, Key)]) -> u64 {
    reqs.iter().fold(0, |h, &(s, k)| {
        splitmix64(h ^ splitmix64(u64::from(s) ^ k.0))
    })
}

/// One lookup's answer: owner and routed latency in ms.
pub type Answer = (u32, u64);

/// What the timed loop produced.
struct Timed {
    lookups: u64,
    wall_s: f64,
    samples: world::LatencyReps,
    answers: Vec<Answer>,
    repeat_bad: u64,
    block_rates: Vec<f64>,
}

/// Evaluates lookups one at a time, each timed alone, cycling through
/// `reqs` until `seconds` pass. The first answer to each request is
/// kept; later repeats must agree with it.
fn timed_loop(exp: &Experiment, reqs: &[(u32, Key)], seconds: f64) -> Timed {
    const BLOCK: Duration = Duration::from_millis(1000);
    let budget = Duration::from_secs_f64(seconds);
    let mut scratch = PathBuf::new();
    let mut t = Timed {
        lookups: 0,
        wall_s: 0.0,
        samples: world::LatencyReps::default(),
        answers: Vec::with_capacity(reqs.len()),
        repeat_bad: 0,
        block_rates: Vec::new(),
    };
    let start = Instant::now();
    let (mut block_t, mut block_n) = (start, 0u64);
    let mut i = 0usize;
    loop {
        let (src, key) = reqs[i];
        let t0 = Instant::now();
        let c = exp
            .hieras
            .eval(src, key, &mut scratch, |a, b| exp.peer_latency(a, b));
        let t1 = Instant::now();
        t.samples.hist().record((t1 - t0).as_nanos() as u64);
        let ans = (c.destination, c.latency_ms);
        if t.answers.len() == i {
            t.answers.push(ans);
        } else if t.answers[i] != ans {
            t.repeat_bad += 1;
        }
        t.lookups += 1;
        i = (i + 1) % reqs.len();
        if t.lookups.is_multiple_of(128) {
            if t1 - block_t >= BLOCK {
                t.samples.close();
                t.block_rates
                    .push((t.lookups - block_n) as f64 / (t1 - block_t).as_secs_f64());
                block_t = t1;
                block_n = t.lookups;
            }
            if t1 - start >= budget {
                t.wall_s = (t1 - start).as_secs_f64();
                break;
            }
        }
    }
    if t.block_rates.is_empty() {
        t.block_rates.push(t.lookups as f64 / t.wall_s.max(1e-9));
    }
    t
}

/// Counts answers that disagree with the benchmark's own ground truth:
/// the owner must be the brute-force successor over the sorted member
/// ids, and the latency the sum of `peer_latency` over `route_with`'s
/// hops. Returns `(wrong_owner, wrong_latency)` as lists of request
/// indices.
#[must_use]
pub fn check_answers(
    exp: &Experiment,
    reqs: &[(u32, Key)],
    answers: &[Answer],
) -> (Vec<usize>, Vec<usize>) {
    let brute = BruteOwners::new(&exp.ids, 0..exp.config.nodes as u32);
    let mut scratch = PathBuf::new();
    let (mut bad_owner, mut bad_latency) = (Vec::new(), Vec::new());
    for (i, (&(src, key), &(owner, ms))) in reqs.iter().zip(answers).enumerate() {
        if brute.owner(key) != owner {
            bad_owner.push(i);
        }
        let mut sum = 0u64;
        exp.hieras.route_with(src, key, &mut scratch, |a, b, _| {
            sum += u64::from(exp.peer_latency(a, b))
        });
        if sum != ms {
            bad_latency.push(i);
        }
    }
    (bad_owner, bad_latency)
}

/// Records the answer checks: every execution of a request whose first
/// answer was wrong counts as a failed lookup.
pub fn record_checks(
    out: &mut Outcome,
    exp: &Experiment,
    reqs: &[(u32, Key)],
    answers: &[Answer],
    lookups: u64,
    repeat_bad: u64,
) {
    let (bad_owner, bad_latency) = check_answers(exp, reqs, answers);
    let n = reqs.len() as u64;
    let executions = |i: usize| lookups / n + u64::from((i as u64) < lookups % n);
    let mut bad: Vec<usize> = bad_owner.iter().chain(&bad_latency).copied().collect();
    bad.sort_unstable();
    bad.dedup();
    out.attempted += lookups;
    out.failed += bad.iter().map(|&i| executions(i)).sum::<u64>() + repeat_bad;
    out.check("replay.owner_is_brute_successor", bad_owner.is_empty());
    out.check("replay.latency_is_hop_sum", bad_latency.is_empty());
    out.check("replay.repeats_agree", repeat_bad == 0);
}

/// Runs the workload.
#[must_use]
pub fn run(p: &Params, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let ((exp, prof), setup_s) = world::timed_setups(if trace { 1 } else { p.setups }, || {
        let mut prof = Profiler::new();
        let exp = world::build(p.peers, world::WORLD_SEED, &mut prof);
        (exp, prof)
    });
    let reqs = requests(p.peers, p.stream, seed);
    out.facts
        .insert("stream_digest", format!("{:016x}", stream_digest(&reqs)));
    out.facts.insert("peers", p.peers.to_string());
    out.facts.insert("distinct_requests", p.stream.to_string());
    if !trace {
        let mut t = timed_loop(&exp, &reqs, seconds);
        record_checks(&mut out, &exp, &reqs, &t.answers, t.lookups, t.repeat_bad);
        out.set("setup_s", setup_s);
        world::note_rates(&mut out, &t.block_rates);
        out.set("lookups_per_s", t.lookups as f64 / t.wall_s);
        world::set_lookup_latency(&mut out, &mut t.samples);
        out.set("peak_rss_mb", world::peak_rss_mb());
        out.facts.insert("lookups", t.lookups.to_string());
        out.facts.insert("timed_wall_s", format!("{:.3}", t.wall_s));
        return out;
    }

    // Traced run: an untraced reference, then the same lookups with a
    // span around `eval` and around every link call inside it, then the
    // seek/route side measurements over the same requests.
    let reference = timed_loop(&exp, &reqs, seconds * 0.3);
    let untraced_op_ns = reference.wall_s * 1e9 / reference.lookups as f64;
    let mut spans = Spans::calibrated();
    let mut scratch = PathBuf::new();
    let mut answers: Vec<Answer> = Vec::with_capacity(reqs.len());
    let (mut repeat_bad, mut lookups) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds * 0.5);
    let start = Instant::now();
    let mut i = 0usize;
    while lookups % 64 != 0 || start.elapsed() < budget {
        let (src, key) = reqs[i];
        spans.begin(OP);
        spans.begin(EVAL);
        let c = exp.hieras.eval(src, key, &mut scratch, |a, b| {
            spans.begin(LINK);
            let l = exp.peer_latency(a, b);
            spans.end();
            l
        });
        spans.end();
        spans.end();
        let ans = (c.destination, c.latency_ms);
        if answers.len() == i {
            answers.push(ans);
        } else if answers[i] != ans {
            repeat_bad += 1;
        }
        lookups += 1;
        i = (i + 1) % reqs.len();
    }
    record_checks(
        &mut out,
        &exp,
        &reqs,
        &answers,
        lookups,
        repeat_bad + reference.repeat_bad,
    );
    let probe_n = answers.len().min(50_000);
    let (seek, route) = world::probe_seek_route(&mut spans, &exp.hieras, &reqs[..probe_n]);
    let evals = spans.op_agg(EVAL).calls.max(1) as f64;
    let eval_ns = spans.mean_ns(EVAL);
    let link_per_eval = spans.op_agg(LINK).total_ns as f64 / evals;
    world::set_build_phases(&mut out, &prof, &exp);
    out.set("topology.link_ns", spans.mean_ns(LINK));
    out.set(
        "topology.link_calls_per_lookup",
        spans.op_agg(LINK).calls as f64 / evals,
    );
    out.set("chord.seek_ns", seek);
    out.set("core.route_ns", route);
    out.set("core.eval_ns", eval_ns);
    out.set(
        "core.eval_residual_share",
        (eval_ns - seek - route - link_per_eval) / eval_ns,
    );
    world::set_ledger(&mut out, &spans, untraced_op_ns, seek, 1.0);
    let hier_reqs = &reqs[..p.hier_requests.min(reqs.len())];
    world::set_hier(&mut out, &exp, hier_reqs);
    out.set("bench.lookup_samples", reference.lookups as f64);
    for name in BYPASSED {
        out.set(name, 0.0);
    }
    world::write_spans(&mut out, &spans, "replay-100k", seed);
    out.facts.insert("traced_lookups", lookups.to_string());
    out
}
