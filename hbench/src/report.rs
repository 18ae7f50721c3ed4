//! The metric schema, the result line, and the checks behind it.
//!
//! [`E2E`] and [`PER_LAYER`] are the benchmark's contract: an untraced
//! run reports exactly the end-to-end metrics, a traced run exactly the
//! per-layer ones, each with its declared unit. A declared metric or a
//! required check that a workload fails to produce makes the run fail
//! instead of passing silently (the tests pin both tables to
//! `BENCHMARK.json`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them, measured with tracing off.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lookups_per_s", "1/s"),
    ("lookup_us.p50", "us"),
    ("lookup_us.p99", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of
/// them in its traced run; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // topology
    ("topology.generate_ms", "ms"),
    ("topology.label_build_ms", "ms"),
    ("topology.landmark_ms", "ms"),
    ("topology.link_ns", "ns"),
    ("topology.link_calls_per_lookup", "count"),
    ("topology.label_entries_per_node", "count"),
    ("topology.label_bytes", "B"),
    // id
    ("id.gen_ms", "ms"),
    // chord
    ("chord.seek_ns", "ns"),
    ("chord.build_ms", "ms"),
    // core
    ("core.build_ms", "ms"),
    ("core.eval_ns", "ns"),
    ("core.route_ns", "ns"),
    ("core.hops.layer1", "count"),
    ("core.hops.layer2", "count"),
    ("core.eval_residual_share", "share"),
    ("core.splice_us.p50", "us"),
    ("core.rebuild_us.p50", "us"),
    ("core.touch_ns", "ns"),
    ("core.digest_us", "us"),
    ("core.delta_share", "share"),
    // sim
    ("sim.draw_ns", "ns"),
    ("sim.record_ns", "ns"),
    // churn
    ("churn.apply_us", "us"),
    ("churn.events_per_epoch", "count"),
    // serve
    ("serve.cache.probe_ns", "ns"),
    ("serve.cache.insert_ns", "ns"),
    ("serve.cache.hit_rate", "share"),
    ("serve.cache.hit_saving_ns", "ns"),
    ("serve.snapshot_verify_us", "us"),
    ("serve.refresh_ns", "ns"),
    ("serve.maint.rebin_us.p50", "us"),
    ("serve.maint.swap_us", "us"),
    ("serve.maint.reclaim_us", "us"),
    ("serve.maint.publish_us.p50", "us"),
    ("serve.maint.publish_us.p95", "us"),
    ("serve.maint.publish_samples", "count"),
    ("serve.arena.reused_per_publish", "count"),
    ("serve.maint_share", "share"),
    // obs
    ("obs.record_ns", "ns"),
    ("obs.trace_overhead", "ratio"),
    // the self-time ledger of one operation (a lookup, or an epoch)
    ("ledger.topology.share", "share"),
    ("ledger.chord.share", "share"),
    ("ledger.core.share", "share"),
    ("ledger.sim.share", "share"),
    ("ledger.churn.share", "share"),
    ("ledger.serve.share", "share"),
    ("ledger.obs.share", "share"),
    ("ledger.unattributed_share", "share"),
    ("ledger.op_us.traced", "us"),
    ("ledger.op_us.untraced", "us"),
    ("ledger.sum_vs_untraced", "ratio"),
    // deterministic routing outputs: checks, never speed metrics
    ("hier.route_ms.p50", "ms"),
    ("hier.route_ms.p99", "ms"),
    ("hier.latency_ratio", "ratio"),
    ("hier.lower_latency_share", "share"),
    ("hier.layer1.link_ms", "ms"),
    ("hier.layer2.link_ms", "ms"),
    // sample count behind lookup_us.p50/p99
    ("bench.lookup_samples", "count"),
];

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (lookups, plus checks on whole runs).
    pub attempted: u64,
    /// Operations whose answer failed a check.
    pub failed: u64,
    /// Named whole-run checks and whether each held.
    pub checks: BTreeMap<&'static str, bool>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Free-form facts for the side line (sample counts, residuals).
    pub facts: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Records a whole-run check; a failing one also counts as a
    /// failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        let prev = self.checks.insert(name, ok);
        assert!(prev.is_none(), "check {name} recorded twice");
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Failed checks over operations attempted.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Validates the outcome against the schema for the mode and the
    /// workload's required checks, and renders the result line.
    ///
    /// # Errors
    /// Names the first declared metric or required check that is
    /// missing, any undeclared or non-finite metric, or an empty run.
    pub fn result_line(&self, trace: bool, required: &[&str]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        for r in required {
            if !self.checks.contains_key(r) {
                return Err(format!("required check `{r}` was not recorded"));
            }
        }
        let schema = if trace { PER_LAYER } else { E2E };
        for &(name, _) in schema {
            match self.metrics.get(name) {
                None => return Err(format!("declared metric `{name}` was not produced")),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric `{name}` is not finite: {v}"))
                }
                Some(_) => {}
            }
        }
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !schema.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric `{extra}` is not declared for this mode"));
        }
        let correct = self.failed == 0 && self.checks.values().all(|&ok| ok);
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, &(name, unit)) in schema.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                self.metrics[name]
            );
        }
        s.push_str("}}");
        Ok(s)
    }

    /// The side line printed before the result: every check, the
    /// failure share, and the facts.
    #[must_use]
    pub fn checks_line(&self) -> String {
        let mut s = String::from("{\"checks\": {");
        for (i, (k, v)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": {v}");
        }
        let _ = write!(
            s,
            "}}, \"failed_share\": {}, \"facts\": {{",
            self.failed_share()
        );
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        s.push_str("}}");
        s
    }
}

/// True for a legal metric name: starts with a letter or digit, at most
/// 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn legal_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.as_bytes()[0].is_ascii_alphanumeric()
        && n.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// True for a legal unit: at most 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
#[must_use]
pub fn legal_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}
