//! Determinism contract of the sweep executor: the same spec + seeds
//! produce byte-identical JSON/CSV results regardless of worker thread
//! count, and across repeated runs in the same process.

use dcn_scenarios::{
    builtin, diff_reports, run_sweep, sweep_points, Algo, ScenarioKind, ScenarioSpec,
};

fn multi_point_spec() -> ScenarioSpec {
    let text = r#"
name = "determinism"
description = "multi-axis sweep used to pin the determinism contract"
horizon_ms = 1.0
drain_ms = 3.0
[topology]
kind = "star"
hosts = 8
host_gbps = 25.0
[workload.poisson]
sizes = "websearch"
[workload.incast]
rate_per_sec = 1500.0
request_bytes = 200000
fan_in = 4
periodic = false
[sweep]
algos = ["powertcp", "hpcc", "homa:2"]
loads = [0.3, 0.6]
seeds = [7, 11]
"#;
    ScenarioSpec::from_toml(text).expect("the determinism sweep parses")
}

#[test]
fn thread_count_is_invisible_in_results() {
    let spec = multi_point_spec();
    assert_eq!(sweep_points(&spec).len(), 3 * 2 * 2);

    let serial = run_sweep(&spec, 1).expect("1 thread");
    let json = serial.to_json();
    let csv = serial.to_csv();
    for threads in [2, 5, 32] {
        let parallel = run_sweep(&spec, threads).expect("parallel");
        assert_eq!(
            parallel.to_json(),
            json,
            "JSON differs at {threads} threads"
        );
        assert_eq!(parallel.to_csv(), csv, "CSV differs at {threads} threads");
    }
}

#[test]
fn repeated_runs_replay_bit_for_bit() {
    let spec = multi_point_spec();
    let a = run_sweep(&spec, 4).expect("first");
    let b = run_sweep(&spec, 4).expect("second");
    assert_eq!(a.to_json(), b.to_json());
}

/// Cross-PR pin of the simulator hot path: the `fig6-small` fat-tree
/// sweep must reproduce its committed baseline byte-for-byte. Engine
/// refactors (packet pooling, event-queue replacement, …) must not move a
/// single output byte; regenerate deliberately with
/// `xp run fig6-small --json crates/scenarios/tests/fig6_small_baseline.json`
/// only when an intentional behavior change lands.
#[test]
fn fig6_small_sweep_matches_pinned_baseline() {
    let spec = builtin("fig6-small").expect("builtin fig6-small");
    let json = run_sweep(&spec, 4).expect("fig6-small sweep").to_json();
    let want = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fig6_small_baseline.json"
    ))
    .expect("baseline missing; regenerate with xp run fig6-small --json");
    assert_eq!(
        json, want,
        "fig6-small sweep drifted from the pinned baseline; if intentional, \
         regenerate the artifact and note why in EXPERIMENTS.md"
    );
    let d = diff_reports(&json, &want, 0.0).expect("diffable");
    assert!(d.is_match(), "{:?}", d.differences);
}

#[test]
fn different_seeds_actually_change_results() {
    // Guard against a degenerate "deterministic because constant" engine.
    let mut spec = multi_point_spec();
    let ScenarioKind::Sweep(body) = &mut spec.kind else {
        unreachable!("a sweep")
    };
    body.sweep.loads = vec![0.5];
    body.sweep.algos = vec![Algo::PowerTcp];
    let a = run_sweep(&spec.clone().seeds([1]), 2).unwrap();
    let b = run_sweep(&spec.seeds([2]), 2).unwrap();
    assert_ne!(a.to_json(), b.to_json());
}
