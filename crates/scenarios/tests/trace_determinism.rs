//! Determinism contract of the trace engine: a timeseries scenario
//! produces byte-identical JSON/CSV regardless of worker thread count,
//! across repeated runs, and — via the pinned golden file — across PRs.
//!
//! To regenerate the golden after an intentional engine change:
//! `GOLDEN_REGEN=1 cargo test -p dcn-scenarios --test trace_determinism`.

use dcn_scenarios::{
    diff_reports, run_scenario, run_trace, Algo, ScenarioKind, ScenarioSpec, TraceScenario,
};

/// A small two-entry fairness trace: big enough to exercise the full
/// sim + transport + probe path and entry-level parallelism, small enough
/// to run in well under a second.
fn golden_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::timeseries(
        "golden-fairness",
        TraceScenario::Fairness {
            tick_us: 50.0,
            flows: 2,
            horizon_ms: 2.0,
        },
    );
    spec.description = "pinned golden trace for cross-PR regression detection".into();
    let ScenarioKind::Timeseries(body) = &mut spec.kind else {
        unreachable!("a trace")
    };
    body.lineup.algos = vec![Algo::PowerTcp, Algo::Hpcc];
    spec
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_fairness_trace.json"
);

#[test]
fn golden_trace_is_byte_identical_at_any_thread_count() {
    let spec = golden_spec();
    assert_eq!(spec.num_points(), 2);

    let t1 = run_trace(&spec, 1).expect("1 thread");
    let t4 = run_trace(&spec, 4).expect("4 threads");
    let json = t1.to_json();
    assert_eq!(json, t4.to_json(), "JSON differs at 4 threads");
    assert_eq!(t1.to_csv(), t4.to_csv(), "CSV differs at 4 threads");

    // Two consecutive runs replay bit-for-bit.
    let again = run_trace(&spec, 4).expect("second run");
    assert_eq!(json, again.to_json());

    // Cross-PR pin: the engine must reproduce the committed golden
    // byte-for-byte (regenerate deliberately with GOLDEN_REGEN=1).
    #[expect(
        clippy::disallowed_methods,
        reason = "GOLDEN_REGEN is the golden-regen toggle: it picks write-then-compare, never a result"
    )]
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    if regen {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        json, want,
        "trace output drifted from the pinned golden; if intentional, \
         regenerate with GOLDEN_REGEN=1 and commit"
    );

    // The same comparison through `xp diff` machinery: zero tolerance.
    let d = diff_reports(&json, &want, 0.0).expect("diffable");
    assert!(d.is_match(), "{:?}", d.differences);
}

#[test]
fn trace_entries_vary_by_algorithm_not_by_schedule() {
    // Guard against a degenerate "deterministic because constant" engine:
    // different algorithms must actually produce different traces.
    let spec = golden_spec();
    let r = run_trace(&spec, 2).expect("trace");
    assert_eq!(r.entries.len(), 2);
    let a = &r.entries[0];
    let b = &r.entries[1];
    assert_ne!(a.label, b.label);
    assert_ne!(
        a.channel("cwnd-1").unwrap().samples,
        b.channel("cwnd-1").unwrap().samples,
        "PowerTCP and HPCC cwnd traces should differ"
    );
    // The power probe fires only for the power-based algorithm.
    assert!(!a.channel("power-1").unwrap().samples.is_empty());
    assert!(b.channel("power-1").unwrap().samples.is_empty());
}

#[test]
fn builtin_fig2_trace_is_stable() {
    // The analytic response scenario is pure computation: two runs are
    // identical and the blind-spot stats match the paper's annotations.
    let spec = dcn_scenarios::builtin("fig2").expect("builtin fig2");
    let a = run_trace(&spec, 1).expect("first");
    let b = run_trace(&spec, 3).expect("second");
    assert_eq!(a.to_json(), b.to_json());
    assert!(a.to_json().contains("\"case1_voltage_md\": 3.24"));
    // The report is pinned byte for byte (CI `cmp`s the same file).
    let json = run_scenario(&spec, 2).expect("fig2").to_json();
    let want = include_str!("fig2_baseline.json");
    assert!(json == want, "{:?}", diff_reports(&json, want, 0.0));
}
