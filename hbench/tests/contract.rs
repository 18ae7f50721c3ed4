//! The benchmark's own contract, checked at a small scale: every
//! declared metric is produced with its unit, a missing metric or check
//! fails the run, a wrong answer raises the failure share, and two runs
//! of one seed give identical routing outputs, checks and streams.

use hieras_obs::Profiler;
use hieras_perfbench::report::{legal_name, legal_unit, Outcome, E2E, PER_LAYER};
use hieras_perfbench::{churn, replay, world, zipf};
use hieras_rt::Json;

const REPLAY: replay::Params = replay::Params {
    peers: 400,
    stream: 600,
    setups: 1,
    hier_requests: 300,
};
const ZIPF: zipf::Params = zipf::Params {
    peers: 300,
    requests: 3_000,
    setups: 1,
};
const CHURN: churn::Params = churn::Params {
    peers: 400,
    initial: 360,
    inter_arrival_ms: 1_000,
    mean_life_ms: 300_000.0,
    horizon_ms: 30_000,
    events_per_epoch: 4,
    lookups_per_epoch: 300,
    setups: 1,
};
const SECONDS: f64 = 0.3;

fn run_small(workload: &str, seed: u64, trace: bool) -> (Outcome, &'static [&'static str]) {
    match workload {
        "replay" => (replay::run(&REPLAY, seed, SECONDS, trace), replay::REQUIRED),
        "zipf" => (zipf::run(&ZIPF, seed, SECONDS, trace), zipf::REQUIRED),
        "churn" => (churn::run(&CHURN, seed, SECONDS, trace), churn::REQUIRED),
        _ => unreachable!(),
    }
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = bench.get(list) else {
        panic!("{list} is not an array")
    };
    items
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned();
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_owned();
            (name, unit)
        })
        .collect()
}

#[test]
fn schema_matches_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let bench: Json = hieras_rt::from_str(&text).expect("BENCHMARK.json parses");
    let pairs = |t: &[(&str, &str)]| {
        t.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&bench, "end_to_end"), pairs(E2E));
    assert_eq!(declared(&bench, "per_layer"), pairs(PER_LAYER));
    let Some(Json::Arr(ws)) = bench.get("workloads") else {
        panic!("workloads")
    };
    let names: Vec<&str> = ws
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, hieras_perfbench::WORKLOADS);
    let mut seen = std::collections::BTreeSet::new();
    for &(n, u) in E2E.iter().chain(PER_LAYER) {
        assert!(legal_name(n), "illegal metric name {n}");
        assert!(legal_unit(u), "illegal unit {u} of {n}");
        assert!(seen.insert(n), "metric {n} declared twice");
    }
}

#[test]
fn every_declared_metric_is_emitted_by_every_workload() {
    for w in ["replay", "zipf", "churn"] {
        for trace in [false, true] {
            let (out, required) = run_small(w, 7, trace);
            let line = out
                .result_line(trace, required)
                .unwrap_or_else(|e| panic!("{w} trace={trace}: {e}"));
            let r: Json = hieras_rt::from_str(&line).expect("the result line is JSON");
            assert_eq!(
                r.get("correct"),
                Some(&Json::Bool(true)),
                "{w} trace={trace}: {}",
                out.checks_line()
            );
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = r.get("metrics").expect("metrics");
            let schema = if trace { PER_LAYER } else { E2E };
            let Json::Obj(fields) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(fields.len(), schema.len());
            for &(name, unit) in schema {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite());
                if !trace {
                    assert!(v > 0.0, "{w}: end-to-end metric {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn a_missing_metric_or_check_fails_instead_of_passing() {
    let (out, required) = run_small("zipf", 3, false);
    assert!(out.result_line(false, required).is_ok());

    let mut m = out.clone();
    m.metrics.remove("lookup_us.p99");
    assert!(m
        .result_line(false, required)
        .unwrap_err()
        .contains("lookup_us.p99"));

    let mut c = out.clone();
    c.checks.remove("zipf.owner_digest_is_brute");
    assert!(c
        .result_line(false, required)
        .unwrap_err()
        .contains("zipf.owner_digest_is_brute"));

    let mut x = out.clone();
    x.set("hier.latency_ratio", 0.5);
    assert!(
        x.result_line(false, required).is_err(),
        "an undeclared metric must be refused"
    );

    let mut n = out.clone();
    n.set("setup_s", f64::NAN);
    assert!(
        n.result_line(false, required).is_err(),
        "a non-finite value must be refused"
    );

    let mut e = out;
    e.attempted = 0;
    assert!(
        e.result_line(false, required).is_err(),
        "an empty run must be refused"
    );
}

#[test]
fn a_planted_wrong_answer_raises_failed_share() {
    let exp = world::build(REPLAY.peers, 5, &mut Profiler::new());
    let reqs = replay::requests(REPLAY.peers, 200, 5);
    let mut scratch = hieras_chord::PathBuf::new();
    let mut answers: Vec<replay::Answer> = reqs
        .iter()
        .map(|&(s, k)| {
            let c = exp
                .hieras
                .eval(s, k, &mut scratch, |a, b| exp.peer_latency(a, b));
            (c.destination, c.latency_ms)
        })
        .collect();

    let mut clean = Outcome::default();
    replay::record_checks(&mut clean, &exp, &reqs, &answers, 400, 0);
    assert_eq!(clean.failed, 0);
    assert_eq!(clean.failed_share(), 0.0);

    // A wrong owner for request 17, which the 400 lookups ran twice.
    answers[17].0 = (answers[17].0 + 1) % REPLAY.peers as u32;
    let mut planted = Outcome::default();
    replay::record_checks(&mut planted, &exp, &reqs, &answers, 400, 0);
    assert!(!planted.checks["replay.owner_is_brute_successor"]);
    assert_eq!(
        planted.failed,
        2 + 1,
        "two failed lookups and one failed check"
    );
    assert!(planted.failed_share() > 0.0);
    let line = planted.result_line(false, replay::REQUIRED);
    let correct = line.map_or(true, |l| l.contains("\"correct\": false"));
    assert!(correct, "a wrong owner must mark the run incorrect");

    answers[17].0 = (answers[17].0 + REPLAY.peers as u32 - 1) % REPLAY.peers as u32;
    answers[40].1 += 1;
    let mut latency = Outcome::default();
    replay::record_checks(&mut latency, &exp, &reqs, &answers, 400, 0);
    assert!(!latency.checks["replay.latency_is_hop_sum"]);
    assert!(latency.failed_share() > 0.0);
}

#[test]
fn two_runs_give_identical_routing_outputs_checks_and_streams() {
    for w in ["replay", "zipf", "churn"] {
        let (a, _) = run_small(w, 11, true);
        let (b, _) = run_small(w, 11, true);
        for (name, _) in PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("hier.") || n.starts_with("core.hops."))
        {
            assert_eq!(
                a.metrics[name].to_bits(),
                b.metrics[name].to_bits(),
                "{w}: {name}"
            );
        }
        assert_eq!(a.checks, b.checks, "{w}");
        for fact in [
            "stream_digest",
            "owner_digest",
            "cache_hits",
            "snapshot_digest",
            "publishes",
            "delta_rebuilds",
        ] {
            assert_eq!(a.facts.get(fact), b.facts.get(fact), "{w}: {fact}");
        }
        let (c, _) = run_small(w, 12, true);
        if let Some(s) = a.facts.get("stream_digest") {
            assert_ne!(
                Some(s),
                c.facts.get("stream_digest"),
                "{w}: the seed must drive the stream"
            );
        }
    }
}
