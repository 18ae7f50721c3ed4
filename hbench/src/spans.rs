//! In-memory span recorder for the traced runs.
//!
//! Every span has a name, a start, an end, a parent, and the id of the
//! operation (one lookup, or one epoch) it belongs to. Self time — the
//! span's duration minus the part its child spans cover — is folded
//! into per-name totals as each span closes, so the ledger covers every
//! span however long the run is. The raw spans of the first
//! [`Spans::RAW_CAP`] closings are kept in memory and written out as
//! JSON lines when the run ends.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into the workspace's public API; nothing inside the program is
//! instrumented.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Span names. The prefix before the first `.` is the layer the span's
/// self time is charged to; `bench` is the benchmark's own glue, which
/// the ledger reports as unattributed time.
pub const NAMES: &[&str] = &[
    "bench.op",              // root of one operation on the measured path
    "bench.probe",           // root of one side measurement (kept out of the ledger)
    "core.eval",             // HierasOracle::eval
    "topology.link",         // Experiment::peer_latency
    "chord.seek",            // HierasOracle::owner_of
    "core.route",            // HierasOracle::route_with (no-op visitor)
    "sim.draw",              // Workload::request_detail / ServeSnapshot::request
    "sim.record",            // Metrics::record
    "serve.cache.new",       // LookupCache::new (one per executor chunk)
    "serve.cache.bind",      // LookupCache::bind
    "serve.cache.probe",     // LookupCache::get
    "serve.cache.insert",    // LookupCache::insert
    "serve.owner_ring",      // ServeSnapshot::owner_ring
    "serve.refresh",         // Reader::refresh
    "serve.snapshot_verify", // ServeSnapshot::verify
    "obs.record",            // TelemetryShard::lookup / lookup_qualifies / admit_slow
    "obs.registry",          // Registry and health-window updates
    "churn.apply",           // MembershipReplay::apply_next_recording
    "churn.live_members",    // MembershipReplay::live_members
    "serve.maint.rebin",     // landmark re-measurement + Binning::order_with_noise
    "core.touch",            // HierasOracle::delta_touch_stats
    "core.splice",           // HierasOracle::apply_delta_on
    "core.rebuild",          // Experiment::subset_hieras_on (full rebuild)
    "serve.snapshot_new",    // ServeSnapshot::new
    "serve.maint.swap",      // Publisher::publish
    "core.digest",           // HierasOracle::hierarchy_digest
    "serve.maint.reclaim",   // Publisher::reclaim_with + HierasOracle::recycle_into
    "core.clone",            // HierasOracle::clone (the maintainer's base copy)
];

/// Index of a span name in [`NAMES`].
pub type Name = u16;

pub const OP: Name = 0;
pub const PROBE: Name = 1;
pub const EVAL: Name = 2;
pub const LINK: Name = 3;
pub const SEEK: Name = 4;
pub const ROUTE: Name = 5;
pub const DRAW: Name = 6;
pub const RECORD: Name = 7;
pub const CACHE_NEW: Name = 8;
pub const CACHE_BIND: Name = 9;
pub const CACHE_PROBE: Name = 10;
pub const CACHE_INSERT: Name = 11;
pub const OWNER_RING: Name = 12;
pub const REFRESH: Name = 13;
pub const VERIFY: Name = 14;
pub const TEL: Name = 15;
pub const REGISTRY: Name = 16;
pub const APPLY: Name = 17;
pub const LIVE: Name = 18;
pub const REBIN: Name = 19;
pub const TOUCH: Name = 20;
pub const SPLICE: Name = 21;
pub const REBUILD: Name = 22;
pub const SNAP_NEW: Name = 23;
pub const SWAP: Name = 24;
pub const DIGEST: Name = 25;
pub const RECLAIM: Name = 26;
pub const CLONE: Name = 27;

/// Layers the ledger reports, in order. Every span name's prefix is one
/// of these or `bench`.
pub const LAYERS: &[&str] = &["topology", "chord", "core", "sim", "churn", "serve", "obs"];

/// The layer a span name is charged to.
#[must_use]
pub fn layer_of(name: Name) -> &'static str {
    let n = NAMES[name as usize];
    n.split('.').next().unwrap_or(n)
}

/// Totals of one span name under one root kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed duration (ns from the accessors; ticks inside).
    pub total_ns: u64,
    /// Summed self time (ns from the accessors; ticks inside).
    pub self_ns: u64,
    /// Child spans closed directly inside these spans.
    pub child_spans: u64,
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: Name,
    start: u64,
    child: u64,
    children: u64,
    raw: u32,
}

#[derive(Debug, Clone, Copy)]
struct Raw {
    name: Name,
    op: u64,
    parent: u32,
    start: u64,
    end: u64,
}

/// A cheap monotonic tick: the time-stamp counter on x86-64 (about a
/// third of the cost of `Instant::now` in a VM), wall nanoseconds
/// elsewhere. [`Spans`] converts ticks to ns against `Instant`.
#[inline]
fn ticks(origin: Instant) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = origin;
        // SAFETY: `rdtsc` only reads the time-stamp counter; it touches
        // no memory and every x86-64 CPU implements it.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        origin.elapsed().as_nanos() as u64
    }
}

/// The recorder. A disabled recorder does nothing but one branch per
/// call, so instrumented helpers serve the untraced runs too.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    t0: Instant,
    tick0: u64,
    stack: Vec<Open>,
    /// Indexed by `root_kind * NAMES.len() + name`; root kind 0 is
    /// `bench.op`, 1 is `bench.probe`. In ticks.
    agg: Vec<Agg>,
    raw: Vec<Raw>,
    op: u64,
    /// Every duration of the names in [`KEEP_DURATIONS`], ticks.
    kept: Vec<Vec<u64>>,
    /// Timer cost inside one span's own interval, ns (calibrated).
    cost_in: f64,
    /// Timer cost of one span outside its interval, charged to the
    /// parent's self time, ns (calibrated).
    cost_out: f64,
}

/// Names whose individual durations are kept for percentiles: the
/// maintainer's per-epoch calls, a few hundred per run.
pub const KEEP_DURATIONS: &[Name] = &[SPLICE, REBIN];

impl Spans {
    /// Raw spans kept for the write-out.
    pub const RAW_CAP: usize = 100_000;
    const NO_PARENT: u32 = u32::MAX;

    /// A recorder; `enabled = false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        let t0 = Instant::now();
        Spans {
            enabled,
            t0,
            tick0: ticks(t0),
            stack: Vec::with_capacity(16),
            agg: vec![Agg::default(); 2 * NAMES.len()],
            raw: Vec::new(),
            op: 0,
            kept: vec![Vec::new(); NAMES.len()],
            cost_in: 0.0,
            cost_out: 0.0,
        }
    }

    /// An enabled recorder with its timer cost calibrated: the mean
    /// duration of an empty span (cost inside a span) and the mean wall
    /// time of opening and closing one, less that (cost the parent
    /// absorbs). [`Spans::corrected_self_ns`] subtracts both.
    #[must_use]
    pub fn calibrated() -> Self {
        const N: u64 = 200_000;
        let mut c = Spans::new(true);
        let t = Instant::now();
        c.begin(OP);
        for _ in 0..N {
            c.begin(LINK);
            c.end();
        }
        c.end();
        let wall = t.elapsed().as_nanos() as f64 / N as f64;
        let inside = c.op_agg(LINK).total_ns as f64 / N as f64;
        let mut s = Spans::new(true);
        s.cost_in = inside;
        s.cost_out = (wall - inside).max(0.0);
        s
    }

    /// Calibrated timer cost per span `(inside, outside)`, ns.
    #[must_use]
    pub fn timer_cost(&self) -> (f64, f64) {
        (self.cost_in, self.cost_out)
    }

    /// Nanoseconds per tick, measured over the recorder's lifetime.
    fn ns_per_tick(&self) -> f64 {
        let ns = self.t0.elapsed().as_nanos() as f64;
        let t = ticks(self.t0).saturating_sub(self.tick0) as f64;
        if t > 0.0 && ns > 0.0 {
            ns / t
        } else {
            1.0
        }
    }

    fn to_ns(&self, a: Agg) -> Agg {
        let k = self.ns_per_tick();
        Agg {
            total_ns: (a.total_ns as f64 * k) as u64,
            self_ns: (a.self_ns as f64 * k) as u64,
            ..a
        }
    }

    /// Self time of `name` on the measured path with the calibrated
    /// timer cost taken out, ns (never below 0).
    #[must_use]
    pub fn corrected_self_ns(&self, name: Name) -> f64 {
        let a = self.op_agg(name);
        (a.self_ns as f64 - a.calls as f64 * self.cost_in - a.child_spans as f64 * self.cost_out)
            .max(0.0)
    }

    /// Opens a span. A root span (`OP` or `PROBE`) starts a new
    /// operation id.
    #[inline]
    pub fn begin(&mut self, name: Name) {
        if !self.enabled {
            return;
        }
        if self.stack.is_empty() {
            self.op += 1;
        }
        let raw = if self.raw.len() < Self::RAW_CAP {
            let parent = self.stack.last().map_or(Self::NO_PARENT, |o| o.raw);
            self.raw.push(Raw {
                name,
                op: self.op,
                parent,
                start: 0,
                end: 0,
            });
            (self.raw.len() - 1) as u32
        } else {
            Self::NO_PARENT
        };
        let start = ticks(self.t0);
        if raw != Self::NO_PARENT {
            self.raw[raw as usize].start = start;
        }
        self.stack.push(Open {
            name,
            start,
            child: 0,
            children: 0,
            raw,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics if no span is open (an instrumentation bug).
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = ticks(self.t0);
        let o = self.stack.pop().expect("end without begin");
        let dur = end.saturating_sub(o.start);
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
            parent.children += 1;
        }
        let root = self.stack.first().map_or(o.name, |r| r.name);
        let kind = usize::from(root == PROBE);
        let a = &mut self.agg[kind * NAMES.len() + o.name as usize];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child);
        a.child_spans += o.children;
        if o.raw != Self::NO_PARENT {
            self.raw[o.raw as usize].end = end;
        }
        if KEEP_DURATIONS.contains(&o.name) {
            self.kept[o.name as usize].push(dur);
        }
    }

    /// Individual durations of a [`KEEP_DURATIONS`] name, ns.
    #[must_use]
    pub fn durations(&self, name: Name) -> Vec<u64> {
        let k = self.ns_per_tick();
        self.kept[name as usize]
            .iter()
            .map(|&t| (t as f64 * k) as u64)
            .collect()
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Totals of `name` on the measured path (under `bench.op`), ns.
    #[must_use]
    pub fn op_agg(&self, name: Name) -> Agg {
        self.to_ns(self.agg[name as usize])
    }

    /// Totals of `name` in side measurements (under `bench.probe`), ns.
    #[must_use]
    pub fn probe_agg(&self, name: Name) -> Agg {
        self.to_ns(self.agg[NAMES.len() + name as usize])
    }

    /// Mean duration of `name` in ns, measured path first, then probes;
    /// 0 when the span never closed.
    #[must_use]
    pub fn mean_ns(&self, name: Name) -> f64 {
        let a = self.op_agg(name);
        let a = if a.calls > 0 { a } else { self.probe_agg(name) };
        if a.calls == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.calls as f64
        }
    }

    /// Timer-corrected self time per operation, ns, summed over the
    /// measured-path spans of `layer` (`bench` is the root's own time).
    #[must_use]
    pub fn layer_self_per_op(&self, layer: &str) -> f64 {
        let ops = self.op_agg(OP).calls.max(1) as f64;
        let s: f64 = (0..NAMES.len() as Name)
            .filter(|&n| n != PROBE && layer_of(n) == layer)
            .map(|n| self.corrected_self_ns(n))
            .sum();
        s / ops
    }

    /// Writes the kept raw spans as JSON lines: name, op id, parent
    /// (index of the parent line, or -1), start and end in ns since the
    /// recorder was created.
    ///
    /// # Errors
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let k = self.ns_per_tick();
        let ns = |t: u64| (t.saturating_sub(self.tick0) as f64 * k) as u64;
        let mut out = String::with_capacity(self.raw.len() * 80);
        for r in &self.raw {
            let parent = if r.parent == Self::NO_PARENT {
                -1
            } else {
                i64::from(r.parent)
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                NAMES[r.name as usize],
                r.op,
                parent,
                ns(r.start),
                ns(r.end)
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_probes_stay_apart() {
        let mut s = Spans::new(true);
        s.begin(OP);
        s.begin(EVAL);
        s.span(LINK, || std::hint::black_box(0));
        s.end();
        s.end();
        s.begin(PROBE);
        s.span(SEEK, || ());
        s.end();
        assert_eq!(s.op_agg(OP).calls, 1);
        assert_eq!(s.op_agg(LINK).calls, 1);
        assert_eq!(s.op_agg(SEEK).calls, 0);
        assert_eq!(s.probe_agg(SEEK).calls, 1);
        let e = s.op_agg(EVAL);
        assert_eq!(e.self_ns, e.total_ns - s.op_agg(LINK).total_ns);
        assert_eq!(s.raw.len(), 5);
        assert_eq!(s.raw[1].parent, 0);
        assert_eq!(s.raw[3].op, 2);
    }

    #[test]
    fn every_name_has_a_known_layer() {
        for n in 0..NAMES.len() as Name {
            let l = layer_of(n);
            assert!(l == "bench" || LAYERS.contains(&l), "{}", NAMES[n as usize]);
        }
    }
}
