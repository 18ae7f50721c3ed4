//! End-to-end and per-layer benchmark of the HIERAS workspace.
//!
//! Three workloads, each run in its own single-threaded process:
//! `replay-100k` (one `HierasOracle::eval` at a time over 100,000
//! peers), `serve-zipf-2k` (skewed read-only serving with the hot-key
//! cache) and `serve-churn-10k` (lock-step serving while the maintainer
//! churns, re-bins and publishes). An untraced run reports the
//! end-to-end metrics of [`report::E2E`]; a traced run reports the
//! per-layer metrics of [`report::PER_LAYER`] from spans the benchmark
//! records around the public calls it makes. Every answer is checked.
//! See `NOTES.md` for why each workload exists and which layer metric
//! moves which end-to-end metric.

pub mod churn;
pub mod replay;
pub mod report;
pub mod spans;
pub mod world;
pub mod zipf;

use report::Outcome;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["replay-100k", "serve-zipf-2k", "serve-churn-10k"];

/// Runs workload `name` at its full size; `None` for an unknown name.
#[must_use]
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Option<(Outcome, &'static [&'static str])> {
    Some(match name {
        "replay-100k" => (
            replay::run(&replay::FULL, seed, seconds, trace),
            replay::REQUIRED,
        ),
        "serve-zipf-2k" => (zipf::run(&zipf::FULL, seed, seconds, trace), zipf::REQUIRED),
        "serve-churn-10k" => (
            churn::run(&churn::FULL, seed, seconds, trace),
            churn::REQUIRED,
        ),
        _ => return None,
    })
}
