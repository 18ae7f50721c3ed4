//! `serve-churn-10k`: writes beside reads. `ServeEngine::run_deterministic`
//! in lock step over the paper's largest network: 90 % of the peers at
//! the start, 10 % arriving, exponential lifetimes, a periodic re-bin
//! under RTT noise, the delta threshold of 0.6, and few lookups per
//! epoch, so the maintainer does most of the work. Cache and sim-window
//! telemetry are on, as an operator would run it.
//!
//! Lock step runs the same work on every run; the free-running mode is
//! left out because its work depends on a thread race.
//!
//! The traced run replays the engine's round sequence from outside with
//! the same public calls, and must reproduce the engine's rounds,
//! publishes, delta/full split and snapshot-digest chain. The engine's
//! re-bin draw is private; the replica repeats its formula (the digest
//! chain only matches if it does).

use crate::report::Outcome;
use crate::spans::{
    Spans, APPLY, CACHE_BIND, CACHE_INSERT, CACHE_NEW, CACHE_PROBE, CLONE, DIGEST, DRAW, EVAL,
    LINK, LIVE, OP, OWNER_RING, REBIN, REBUILD, RECLAIM, RECORD, REFRESH, REGISTRY, SNAP_NEW,
    SPLICE, SWAP, TEL, TOUCH, VERIFY,
};
use crate::world;
use crate::zipf::routed;
use hieras_chord::PathBuf;
use hieras_churn::MembershipReplay;
use hieras_core::{HierasDelta, HierasOracle, LandmarkOrder, RingArenaPool};
use hieras_id::Key;
use hieras_obs::{names, HopRecord, Profiler, Registry, SlowLookup, TelemetryShard};
use hieras_rt::splitmix64;
use hieras_serve::{
    epoch_pair, CacheConfig, CacheStats, LiveReport, LookupCache, ServeConfig, ServeEngine,
    ServeSnapshot, TelemetryConfig,
};
use hieras_sim::{ChurnConfig, Experiment, Lifetime, Metrics, Sample, WorkloadModel};
use std::time::{Duration, Instant};

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Overlay peers (initial plus arriving).
    pub peers: usize,
    /// Peers present at the start.
    pub initial: u32,
    /// Gap between arrivals, sim ms.
    pub inter_arrival_ms: u64,
    /// Mean peer lifetime, sim ms.
    pub mean_life_ms: f64,
    /// Schedule horizon, sim ms.
    pub horizon_ms: u64,
    /// Churn events per epoch.
    pub events_per_epoch: usize,
    /// Lookups per round.
    pub lookups_per_epoch: usize,
    /// World + first-snapshot builds behind the `setup_s` median.
    pub setups: usize,
}

/// The benchmark's size.
pub const FULL: Params = Params {
    peers: 10_000,
    initial: 9_000,
    inter_arrival_ms: 120,
    mean_life_ms: 1_200_000.0,
    horizon_ms: 60_000,
    events_per_epoch: 6,
    lookups_per_epoch: 500,
    setups: 5,
};

/// Engine chunk: caches and telemetry shards restart per chunk.
const CHUNK: usize = 256;
/// The maintainer's arena-pool capacity.
const POOL_CAP: usize = 64;
/// Delta threshold of `bench_live`.
const DELTA_FRACTION: f64 = 0.6;

/// Checks every run must record.
pub const REQUIRED: &[&str] = &[
    "churn.lookups_are_rounds_times_quota",
    "churn.final_live_matches_replay",
    "churn.engine_repeats_agree",
    "churn.delta_digest_equals_full_rebuild_digest",
    "churn.replica_matches_engine",
];

/// The serving configuration at delta threshold `frac`.
#[must_use]
pub fn serve_config(p: &Params, seed: u64, frac: f64) -> ServeConfig {
    ServeConfig {
        churn: ChurnConfig {
            initial_nodes: p.initial,
            arrivals: p.peers as u32 - p.initial,
            inter_arrival: Lifetime::Fixed {
                ms: p.inter_arrival_ms,
            },
            lifetime: Lifetime::Exponential {
                mean_ms: p.mean_life_ms,
            },
            graceful_fraction: 0.5,
            horizon_ms: p.horizon_ms,
            seed: seed ^ 0xc4_0e2,
        },
        readers: 1,
        events_per_epoch: p.events_per_epoch,
        lookups_per_epoch: p.lookups_per_epoch,
        refresh_batch: 64,
        seed: seed ^ 0x5e27e,
        rebin_every: 8,
        rebin_noise: 0.2,
        telemetry: TelemetryConfig::on(),
        delta_max_ring_fraction: frac,
        batched: false,
        pace: 0.0,
        cache: CacheConfig::on(),
        workload: WorkloadModel::Uniform,
    }
}

/// The first snapshot the engine builds: the initial membership.
#[must_use]
pub fn first_snapshot(exp: &Experiment, cfg: &ServeConfig) -> ServeSnapshot {
    let replay = MembershipReplay::new(cfg.churn.initial_nodes, cfg.churn.schedule());
    let live = replay.live_members();
    let oracle = exp
        .subset_hieras_on(&world::exec(), &live, Some(&exp.orders), None)
        .expect("the initial membership is a valid hierarchy");
    ServeSnapshot::new(0, oracle, live.into())
}

/// What a replica run reproduced.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// Rounds served (maintenance rounds + 1).
    pub rounds: u64,
    /// Lookups served.
    pub lookups: u64,
    /// Snapshots published.
    pub publishes: u64,
    /// Publishes built by splicing a delta.
    pub delta: u64,
    /// Publishes built from scratch.
    pub full: u64,
    /// The chain of published hierarchy digests.
    pub digest: u64,
    /// Live peers at the end.
    pub final_live: u32,
    /// Cache hits.
    pub cache_hits: u64,
    /// Routing metrics.
    pub metrics: Metrics,
    /// Publishes whose delta-built hierarchy digest differed from a
    /// full rebuild over the same membership (checked passes only).
    pub delta_full_mismatch: u64,
    /// Wall time of each full rebuild done for that check, ns.
    pub check_rebuild_ns: Vec<u64>,
    /// Churn events applied.
    pub events: u64,
    /// Lookups recorded through `TelemetryShard::lookup` (hits, and
    /// misses below the slow-capture floor).
    pub telemetry_lookups: u64,
    /// Hit and miss lookup time, ns, with counts (timed passes only).
    pub hit_ns: (u64, u64),
    /// See `hit_ns`.
    pub miss_ns: (u64, u64),
    /// Requests of the last round, for the seek/route probes.
    pub probe_requests: Vec<(u32, Key)>,
    /// The last published hierarchy.
    pub last: Option<HierasOracle>,
}

/// The engine's private re-bin, repeated from its published formula:
/// every live peer's landmark RTTs under multiplicative noise
/// deterministic in `(seed, round, peer, landmark)`, re-binned into
/// `orders`. Returns the changed peers' count and appends them.
fn rebin(
    exp: &Experiment,
    cfg: &ServeConfig,
    round: u64,
    live: &[u32],
    orders: &mut [LandmarkOrder],
    changed_peers: &mut Vec<u32>,
) -> u64 {
    let binning = &exp.config.hieras.binning;
    let mut changed = 0u64;
    let mut rtts: Vec<u16> = Vec::with_capacity(exp.landmarks.len());
    let mut noise: Vec<f64> = Vec::with_capacity(exp.landmarks.len());
    for &p in live {
        rtts.clear();
        noise.clear();
        let router = exp.router_of[p as usize];
        for (j, &lm) in exp.landmarks.iter().enumerate() {
            rtts.push(exp.lat.latency(lm, router));
            let raw = splitmix64(
                cfg.seed
                    ^ 0x5eb1_u64
                    ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    ^ u64::from(p).wrapping_mul(0x2545_f491_4f6c_dd1d)
                    ^ j as u64,
            );
            let u = (raw >> 11) as f64 / (1u64 << 53) as f64;
            noise.push(1.0 + cfg.rebin_noise * (2.0 * u - 1.0));
        }
        let o = binning.order_with_noise(&rtts, &noise);
        if o != orders[p as usize] {
            orders[p as usize] = o;
            changed_peers.push(p);
            changed += 1;
        }
    }
    changed
}

/// Replays `run_deterministic`'s call sequence: per round a refresh,
/// the round's lookups in 256-request chunks (fresh cache and telemetry
/// shard per chunk), then one maintenance round — churn batch, re-bin
/// when due, delta splice or full rebuild, snapshot, publish, digest,
/// reclaim and health telemetry. Each round is one `bench.op`.
///
/// `samples` receives each lookup's wall time when given. With
/// `check_full`, every delta-built publish is also rebuilt from scratch
/// (outside any span) and the two digests compared.
#[allow(clippy::too_many_lines)] // one engine round, call for call
pub fn replica(
    exp: &Experiment,
    cfg: &ServeConfig,
    spans: &mut Spans,
    mut samples: Option<&mut world::LatencyHist>,
    check_full: bool,
) -> Replica {
    let exec = world::exec();
    let mut out = Replica::default();
    let schedule = cfg.churn.schedule();
    let mut replay = MembershipReplay::new(cfg.churn.initial_nodes, schedule);
    let mut orders: Vec<LandmarkOrder> = exp.orders.clone();
    let snap0 = first_snapshot(exp, cfg);
    let mut cur = snap0.oracle.clone();
    let mut pool = RingArenaPool::new(POOL_CAP);
    let (mut joined, mut departed, mut rebinned) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pb, handle) = epoch_pair(snap0);
    let mut reader = handle.reader();
    assert!(
        reader.snapshot().value.verify(0),
        "initial snapshot failed verification"
    );
    let mut reg = Registry::new();
    let tel = cfg.telemetry;
    let window_ms = tel.window_ms.max(1);
    let mut series = TelemetryShard::new(tel.slow_k);
    let mut health = TelemetryShard::new(tel.slow_k);
    let mut last_pub_ms = 0u64;
    let mut floor = 0u64;
    let mut floor_win = 0u64;
    let mut cache_total = CacheStats::default();
    let mut scratch = PathBuf::new();
    let mut round = 0u64;
    loop {
        spans.begin(OP);
        if let Some(e) = spans.span(REFRESH, || reader.refresh()) {
            let ok = spans.span(VERIFY, || reader.snapshot().value.verify(e));
            assert!(ok, "torn snapshot adopted at epoch {e}");
        }
        spans.span(REGISTRY, || {
            reg.observe(names::SERVE_STALE_EPOCHS, reader.lag())
        });
        let v = reader.snapshot();
        let stream = splitmix64(cfg.seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let win = replay.now_ms() / window_ms;
        if win != floor_win {
            floor = 0;
            floor_win = win;
        }
        spans.span(REGISTRY, || {
            series
                .health(win)
                .gauge_set(names::SERVE_EPOCH_READER_LAG, reader.lag() as i64)
        });
        let quota = cfg.lookups_per_epoch;
        let mut round_metrics = Metrics::default();
        let mut round_shard = TelemetryShard::new(tel.slow_k);
        let mut round_cache = CacheStats::default();
        for lo in (0..quota).step_by(CHUNK) {
            spans.begin(CACHE_NEW);
            let mut cache = LookupCache::new(cfg.cache);
            let mut shard = TelemetryShard::new(tel.slow_k);
            let mut m = Metrics::default();
            spans.end();
            for i in lo..(lo + CHUNK).min(quota) {
                let t0 = samples.is_some().then(Instant::now);
                let (src, key) = spans.span(DRAW, || v.value.request(stream, i as u64));
                spans.span(CACHE_BIND, || cache.bind(v.value.checksum));
                let hit = spans.span(CACHE_PROBE, || cache.get(key.0));
                let s = match hit {
                    Some((owner, _)) => {
                        let latency_ms = if src == owner {
                            0
                        } else {
                            spans.begin(LINK);
                            let l = exp.peer_latency(src, owner);
                            spans.end();
                            u32::from(l)
                        };
                        let s = Sample {
                            hops: u32::from(src != owner),
                            lower_hops: 0,
                            latency_ms,
                            lower_latency_ms: 0,
                        };
                        spans.span(TEL, || shard.lookup(win, u64::from(s.latency_ms)));
                        out.telemetry_lookups += 1;
                        s
                    }
                    None => {
                        let (s, owner) = routed(exp, &v.value, spans, src, key, &mut scratch);
                        let ring = spans.span(OWNER_RING, || v.value.owner_ring(owner));
                        spans.span(CACHE_INSERT, || cache.insert(key.0, owner, ring));
                        spans.begin(TEL);
                        let lat = u64::from(s.latency_ms);
                        if lat < floor {
                            shard.lookup(win, lat);
                            out.telemetry_lookups += 1;
                        } else if shard.lookup_qualifies(win, lat) {
                            let mut path = Vec::new();
                            v.value
                                .oracle
                                .route_with(src, key, &mut scratch, |from, to, layer| {
                                    path.push(HopRecord {
                                        from,
                                        to,
                                        layer,
                                        ms: exp.peer_latency(from, to),
                                    });
                                });
                            let seq = (round << 32) | i as u64;
                            shard.admit_slow(SlowLookup {
                                window: win,
                                latency_ms: lat,
                                src,
                                key: key.0,
                                seq,
                                path,
                            });
                            if let Some(f) = shard.slow_floor() {
                                floor = floor.max(f);
                            }
                        }
                        spans.end();
                        s
                    }
                };
                spans.span(RECORD, || m.record(s));
                if let (Some(t0), Some(v)) = (t0, samples.as_deref_mut()) {
                    let ns = t0.elapsed().as_nanos() as u64;
                    v.record(ns);
                    let slot = if hit.is_some() {
                        &mut out.hit_ns
                    } else {
                        &mut out.miss_ns
                    };
                    slot.0 += ns;
                    slot.1 += 1;
                }
                if replay.is_done() && out.probe_requests.len() < quota {
                    out.probe_requests.push((src, key));
                }
            }
            spans.span(RECORD, || {
                round_metrics = std::mem::take(&mut round_metrics).merged(m)
            });
            spans.span(REGISTRY, || {
                round_shard = std::mem::take(&mut round_shard).merged(shard)
            });
            round_cache = round_cache.merged(cache.stats);
        }
        out.metrics = std::mem::take(&mut out.metrics).merged(round_metrics);
        spans.span(REGISTRY, || {
            series = std::mem::take(&mut series).merged(round_shard);
            cache_total = cache_total.merged(round_cache);
            let h = series.health(win);
            h.inc_by(names::SERVE_CACHE_WINDOW_HITS, round_cache.hits);
            h.inc_by(
                names::SERVE_CACHE_WINDOW_LOOKUPS,
                round_cache.hits + round_cache.misses,
            );
            reg.inc_by(names::SERVE_LOOKUPS, quota as u64);
        });
        out.lookups += quota as u64;
        out.rounds += 1;
        if replay.is_done() {
            spans.end();
            break;
        }
        round += 1;

        // One maintenance round.
        let delta = spans.span(APPLY, || {
            replay.apply_next_recording(cfg.events_per_epoch, &mut joined, &mut departed)
        });
        out.events += delta.applied as u64;
        rebinned.clear();
        let mut changed = 0u64;
        if cfg.rebin_every > 0 && round.is_multiple_of(cfg.rebin_every) {
            let live = spans.span(LIVE, || replay.live_members());
            spans.begin(REBIN);
            changed = rebin(exp, cfg, round, &live, &mut orders, &mut rebinned);
            spans.end();
        }
        let published = delta.changed() || changed > 0;
        let mut used_delta = false;
        if published {
            rebinned.retain(|m| !joined.contains(m));
            let members = spans.span(LIVE, || replay.live_members());
            let next = pb.published_epoch() + 1;
            let hdelta = HierasDelta {
                joined: &joined,
                departed: &departed,
                rebinned: &rebinned,
            };
            let frac = cfg.delta_max_ring_fraction;
            used_delta = frac >= 1.0
                || (frac > 0.0
                    && spans.span(TOUCH, || cur.delta_touch_stats(&hdelta, &orders).fraction())
                        <= frac);
            let oracle = if used_delta {
                spans
                    .span(SPLICE, || {
                        cur.apply_delta_on(&exec, &hdelta, &orders, &mut pool)
                    })
                    .expect("a recorded churn delta over the live membership is valid")
            } else {
                spans
                    .span(REBUILD, || {
                        exp.subset_hieras_on(&exec, &members, Some(&orders), None)
                    })
                    .expect("live membership is a valid non-empty subset")
            };
            let check_members = (check_full && used_delta).then(|| members.clone());
            let copy = spans.span(CLONE, || oracle.clone());
            let snap = spans.span(SNAP_NEW, || ServeSnapshot::new(next, copy, members.into()));
            spans.span(SWAP, || pb.publish(snap));
            cur = oracle;
            let d = spans.span(DIGEST, || cur.hierarchy_digest());
            out.digest = splitmix64(out.digest ^ d);
            out.publishes += 1;
            if used_delta {
                out.delta += 1;
            } else {
                out.full += 1;
            }
            spans.span(REGISTRY, || {
                reg.inc(names::SERVE_EPOCHS_PUBLISHED);
                reg.inc_by(names::SERVE_JOINS, u64::from(delta.joins));
                reg.inc_by(names::SERVE_LEAVES, u64::from(delta.leaves));
                reg.inc_by(names::SERVE_FAILS, u64::from(delta.fails));
                reg.inc_by(names::SERVE_REBINNED, changed);
            });
            if let Some(members) = check_members {
                let t = Instant::now();
                let full = exp
                    .subset_hieras_on(&exec, &members, Some(&orders), None)
                    .expect("live membership is a valid non-empty subset");
                out.check_rebuild_ns.push(t.elapsed().as_nanos() as u64);
                if full.hierarchy_digest() != d {
                    out.delta_full_mismatch += 1;
                }
            }
        }
        spans.begin(RECLAIM);
        let freed = pb.reclaim_with(|snap| snap.oracle.recycle_into(&mut pool));
        spans.end();
        spans.span(REGISTRY, || {
            reg.inc_by(names::SERVE_SNAPSHOTS_RECLAIMED, freed as u64);
            let now = replay.now_ms();
            let age = now.saturating_sub(last_pub_ms);
            let backlog = pb.stats().retired;
            let h = health.health(now / window_ms);
            h.inc_by(names::SERVE_EPOCH_JOINS, u64::from(delta.joins));
            h.inc_by(names::SERVE_EPOCH_LEAVES, u64::from(delta.leaves));
            h.inc_by(names::SERVE_EPOCH_FAILS, u64::from(delta.fails));
            h.inc_by(names::SERVE_EPOCH_REBINNED, changed);
            h.gauge_set(names::SERVE_EPOCH_RETIRED_BACKLOG, backlog as i64);
            if published {
                h.inc(names::SERVE_EPOCH_PUBLISHED);
                h.inc(if used_delta {
                    names::SERVE_EPOCH_DELTA_REBUILDS
                } else {
                    names::SERVE_EPOCH_FULL_REBUILDS
                });
                h.gauge_set(names::SERVE_EPOCH_SNAPSHOT_AGE_MS, age as i64);
                last_pub_ms = now;
            }
        });
        spans.end();
    }
    out.final_live = replay.live_count();
    out.cache_hits = cache_total.hits;
    out.last = Some(cur);
    std::hint::black_box((series, health, reg));
    out
}

/// Whether a replica reproduced an engine report.
#[must_use]
pub fn matches(r: &Replica, e: &LiveReport) -> bool {
    r.rounds == e.maint.rounds + 1
        && r.lookups == e.lookups
        && r.publishes == e.maint.rebuilds
        && r.delta == e.maint.delta_rebuilds
        && r.full == e.maint.full_rebuilds
        && r.digest == e.maint.snapshot_digest
        && r.final_live == e.final_live
        && r.cache_hits == e.registry.counter(names::SERVE_CACHE_HITS)
        && r.metrics == e.metrics
}

/// Live peers once the whole schedule has applied, from a replay cursor
/// of the benchmark's own.
#[must_use]
pub fn expected_final_live(cfg: &ServeConfig) -> u32 {
    let mut r = MembershipReplay::new(cfg.churn.initial_nodes, cfg.churn.schedule());
    while !r.is_done() {
        r.apply_next(cfg.events_per_epoch);
    }
    r.live_count()
}

/// Runs the workload.
#[must_use]
#[allow(clippy::too_many_lines)] // one straight sequence of phases
pub fn run(p: &Params, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let cfg = serve_config(p, seed, DELTA_FRACTION);
    let ((exp, prof), setup_s) = world::timed_setups(if trace { 1 } else { p.setups }, || {
        let mut prof = Profiler::new();
        let exp = world::build(p.peers, world::WORLD_SEED, &mut prof);
        std::hint::black_box(first_snapshot(&exp, &cfg));
        (exp, prof)
    });
    out.facts.insert("peers", p.peers.to_string());
    out.facts
        .insert("lookups_per_epoch", p.lookups_per_epoch.to_string());
    let snap0 = first_snapshot(&exp, &cfg);
    let stream0 = splitmix64(cfg.seed);
    let round0: Vec<(u32, Key)> = (0..p.lookups_per_epoch as u64)
        .map(|i| snap0.request(stream0, i))
        .collect();
    out.facts.insert(
        "stream_digest",
        format!("{:016x}", crate::replay::stream_digest(&round0)),
    );
    drop(snap0);
    let engine = ServeEngine::new(&exp, cfg);
    let exec = world::exec();

    // Engine runs of the whole schedule, timed from outside, alternating
    // with untraced replica runs (each lookup timed alone) so both
    // end-to-end figures sample the same stretch of machine time. Every
    // engine run must repeat the first, and every replica run must
    // reproduce it call for call.
    let budget = Duration::from_secs_f64(seconds * if trace { 0.2 } else { 0.9 });
    let start = Instant::now();
    let (mut lookups, mut rounds, mut wall_s) = (0u64, 0u64, 0.0f64);
    let mut rates = Vec::new();
    let mut publish_us: Vec<u64> = Vec::new();
    let mut samples = world::LatencyReps::default();
    let mut off = Spans::new(false);
    let mut first: Option<LiveReport> = None;
    let mut checked: Option<Replica> = None;
    let (mut hit_ns, mut miss_ns) = ((0u64, 0u64), (0u64, 0u64));
    let (mut disagree, mut mismatched) = (0u64, 0u64);
    while rates.len() < 2 || start.elapsed() < budget {
        let t = Instant::now();
        let r = engine.run_deterministic(&exec);
        let wall = t.elapsed().as_secs_f64();
        rates.push(r.lookups as f64 / wall);
        lookups += r.lookups;
        rounds += r.maint.rounds + 1;
        wall_s += wall;
        publish_us.extend_from_slice(&r.maint.publish_samples);
        out.attempted += r.lookups;
        let f = first.get_or_insert_with(|| r.clone());
        let same = f.lookups == r.lookups
            && f.maint.rounds == r.maint.rounds
            && f.maint.rebuilds == r.maint.rebuilds
            && f.maint.delta_rebuilds == r.maint.delta_rebuilds
            && f.maint.snapshot_digest == r.maint.snapshot_digest
            && f.final_live == r.final_live
            && f.metrics == r.metrics;
        if !same {
            disagree += r.lookups;
        }
        // The traced run's first replica also rebuilds every delta-built
        // epoch from scratch and compares digests.
        let rep = replica(
            &exp,
            &cfg,
            &mut off,
            Some(samples.hist()),
            trace && checked.is_none(),
        );
        samples.close();
        if !matches(&rep, f) {
            mismatched += 1;
        }
        hit_ns = (hit_ns.0 + rep.hit_ns.0, hit_ns.1 + rep.hit_ns.1);
        miss_ns = (miss_ns.0 + rep.miss_ns.0, miss_ns.1 + rep.miss_ns.1);
        checked.get_or_insert(rep);
    }
    let first = first.expect("at least one engine run");
    let mut timed = checked.expect("at least one replica run");
    (timed.hit_ns, timed.miss_ns) = (hit_ns, miss_ns);
    out.failed += disagree;
    out.check("churn.engine_repeats_agree", disagree == 0);
    out.check("churn.replica_matches_engine", mismatched == 0);
    let quota_ok = first.lookups == (first.maint.rounds + 1) * p.lookups_per_epoch as u64;
    out.check("churn.lookups_are_rounds_times_quota", quota_ok);
    out.check(
        "churn.final_live_matches_replay",
        first.final_live == expected_final_live(&cfg),
    );
    let full_only = ServeEngine::new(&exp, serve_config(p, seed, 0.0)).run_deterministic(&exec);
    let digests_equal = full_only.maint.snapshot_digest == first.maint.snapshot_digest
        && full_only.maint.rebuilds == first.maint.rebuilds;
    out.facts
        .insert("rounds", (first.maint.rounds + 1).to_string());
    out.facts
        .insert("publishes", first.maint.rebuilds.to_string());
    out.facts
        .insert("delta_rebuilds", first.maint.delta_rebuilds.to_string());
    out.facts
        .insert("full_rebuilds", first.maint.full_rebuilds.to_string());
    out.facts.insert(
        "snapshot_digest",
        format!("{:016x}", first.maint.snapshot_digest),
    );
    world::note_rates(&mut out, &rates);
    if !trace {
        out.check(
            "churn.delta_digest_equals_full_rebuild_digest",
            digests_equal,
        );
        out.set("setup_s", setup_s);
        out.set("lookups_per_s", lookups as f64 / wall_s);
        world::set_lookup_latency(&mut out, &mut samples);
        out.set("peak_rss_mb", world::peak_rss_mb());
        return out;
    }
    // The traced check pass also rebuilt every delta-built epoch from
    // scratch and compared digests.
    out.check(
        "churn.delta_digest_equals_full_rebuild_digest",
        digests_equal && timed.delta_full_mismatch == 0,
    );

    let mut spans = Spans::calibrated();
    let traced = replica(&exp, &cfg, &mut spans, None, false);
    out.check(
        "churn.traced_replica_matches_engine",
        matches(&traced, &first),
    );
    let last = traced.last.as_ref().expect("replica ran");
    let (seek, route) = world::probe_seek_route(&mut spans, last, &traced.probe_requests);
    let ops = spans.op_agg(OP).calls.max(1) as f64;
    let evals = spans.op_agg(EVAL).calls.max(1) as f64;
    let eval_ns = spans.mean_ns(EVAL);
    let eval_links = spans
        .op_agg(EVAL)
        .total_ns
        .saturating_sub(spans.op_agg(EVAL).self_ns) as f64
        / evals;
    let lookups = traced.lookups.max(1) as f64;
    world::set_build_phases(&mut out, &prof, &exp);
    out.set("topology.link_ns", spans.mean_ns(LINK));
    out.set(
        "topology.link_calls_per_lookup",
        spans.op_agg(LINK).calls as f64 / lookups,
    );
    out.set("chord.seek_ns", seek);
    out.set("core.route_ns", route);
    out.set("core.eval_ns", eval_ns);
    out.set(
        "core.eval_residual_share",
        (eval_ns - seek - route - eval_links) / eval_ns,
    );
    // Nearest-rank percentile of raw samples.
    let pct = |v: &[u64], q: f64| {
        let mut v: Vec<f64> = v.iter().map(|&x| x as f64).collect();
        v.sort_by(f64::total_cmp);
        world::quantile_sorted(&v, q)
    };
    out.set(
        "core.splice_us.p50",
        pct(&spans.durations(SPLICE), 0.5) / 1e3,
    );
    out.set(
        "core.rebuild_us.p50",
        pct(&timed.check_rebuild_ns, 0.5) / 1e3,
    );
    out.set("core.touch_ns", spans.mean_ns(TOUCH));
    out.set("core.digest_us", spans.mean_ns(DIGEST) / 1e3);
    out.set(
        "core.delta_share",
        first.maint.delta_rebuilds as f64 / first.maint.rebuilds.max(1) as f64,
    );
    out.set("sim.draw_ns", spans.mean_ns(DRAW));
    out.set("sim.record_ns", spans.mean_ns(RECORD));
    out.set("churn.apply_us", spans.mean_ns(APPLY) / 1e3);
    out.set(
        "churn.events_per_epoch",
        traced.events as f64 / first.maint.rounds.max(1) as f64,
    );
    out.set("serve.cache.probe_ns", spans.mean_ns(CACHE_PROBE));
    out.set("serve.cache.insert_ns", spans.mean_ns(CACHE_INSERT));
    let probes = (first.registry.counter(names::SERVE_CACHE_HITS)
        + first.registry.counter(names::SERVE_CACHE_MISSES))
    .max(1);
    out.set(
        "serve.cache.hit_rate",
        first.registry.counter(names::SERVE_CACHE_HITS) as f64 / probes as f64,
    );
    let mean = |(ns, n): (u64, u64)| ns as f64 / n.max(1) as f64;
    let saving = if timed.hit_ns.1 == 0 {
        0.0
    } else {
        mean(timed.miss_ns) - mean(timed.hit_ns)
    };
    out.set("serve.cache.hit_saving_ns", saving);
    out.set("serve.snapshot_verify_us", spans.mean_ns(VERIFY) / 1e3);
    out.set("serve.refresh_ns", spans.mean_ns(REFRESH));
    out.set(
        "serve.maint.rebin_us.p50",
        pct(&spans.durations(REBIN), 0.5) / 1e3,
    );
    out.set("serve.maint.swap_us", spans.mean_ns(SWAP) / 1e3);
    out.set("serve.maint.reclaim_us", spans.mean_ns(RECLAIM) / 1e3);
    out.set("serve.maint.publish_us.p50", pct(&publish_us, 0.50));
    out.set("serve.maint.publish_us.p95", pct(&publish_us, 0.95));
    out.set("serve.maint.publish_samples", publish_us.len() as f64);
    out.set(
        "serve.arena.reused_per_publish",
        first.maint.arena.reused as f64 / first.maint.rebuilds.max(1) as f64,
    );
    let maint_ns: u64 = [
        APPLY, LIVE, REBIN, TOUCH, SPLICE, REBUILD, CLONE, SNAP_NEW, SWAP, DIGEST, RECLAIM,
    ]
    .iter()
    .map(|&n| spans.op_agg(n).total_ns)
    .sum();
    out.set(
        "serve.maint_share",
        maint_ns as f64 / spans.op_agg(OP).total_ns.max(1) as f64,
    );
    out.set("obs.record_ns", spans.mean_ns(TEL));
    out.facts.insert(
        "telemetry_lookup_calls_per_lookup",
        format!(
            "{:.4}",
            traced.telemetry_lookups as f64 / traced.lookups.max(1) as f64
        ),
    );
    let applied = spans.op_agg(SPLICE).calls as f64 / spans.op_agg(OP).calls.max(1) as f64;
    out.facts
        .insert("apply_delta_on_calls_per_epoch", format!("{applied:.4}"));
    world::set_ledger(
        &mut out,
        &spans,
        wall_s * 1e9 / rounds as f64,
        seek,
        evals / ops,
    );
    let hier_reqs = crate::replay::requests(p.peers, 20_000, seed);
    world::set_hier(&mut out, &exp, &hier_reqs);
    out.set("bench.lookup_samples", samples.samples() as f64);
    world::write_spans(&mut out, &spans, "serve-churn-10k", seed);
    out
}
