//! Determinism and fidelity contract of the flow-level engine: the
//! built-in `fig7-flow` sweep produces byte-identical JSON/CSV at any
//! thread count, across repeated runs, and — via the pinned golden —
//! across PRs; and on a fig7-class topology the flow engine's FCT
//! slowdowns track the packet engine's within a pinned band (the fluid
//! model has no queueing delay, CC ramp-up, or drops, so it sits
//! *below* the packet numbers but in the same regime).
//!
//! To regenerate the golden after an intentional flow-engine change
//! (bump `dcn_flow::FLOW_ENGINE_VERSION` too!):
//! `GOLDEN_REGEN=1 cargo test -p dcn-scenarios --test flow_determinism`.

use dcn_scenarios::{
    builtin, diff_reports, run_sweep, Algo, EngineKind, ParamSpec, ScenarioKind, ScenarioSpec,
    SweepBody,
};

#[test]
fn fig7_flow_is_byte_identical_and_pinned() {
    let spec = builtin("fig7-flow").expect("builtin fig7-flow");
    let t1 = run_sweep(&spec, 1).expect("1 thread");
    let t4 = run_sweep(&spec, 4).expect("4 threads");
    let json = t1.to_json();
    assert_eq!(json, t4.to_json(), "JSON differs at 4 threads");
    assert_eq!(t1.to_csv(), t4.to_csv(), "CSV differs at 4 threads");
    let again = run_sweep(&spec, 4).expect("second run");
    assert_eq!(json, again.to_json(), "reruns must replay bit-for-bit");

    let path = format!(
        "{}/tests/fig7_flow_baseline.json",
        env!("CARGO_MANIFEST_DIR")
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "GOLDEN_REGEN is the golden-regen toggle: it picks write-then-compare, never a result"
    )]
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    if regen {
        std::fs::write(&path, &json).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .expect("fig7-flow baseline missing; regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        json, want,
        "fig7-flow drifted from the pinned baseline; if the flow engine \
         changed intentionally, bump dcn_flow::FLOW_ENGINE_VERSION and \
         regenerate with GOLDEN_REGEN=1"
    );
    let d = diff_reports(&json, &want, 0.0).expect("diffable");
    assert!(d.is_match(), "{:?}", d.differences);
}

/// A fig7-class scenario (websearch + incast on the tiny fat-tree)
/// small enough to run under both engines in seconds.
fn xcheck_spec() -> ScenarioSpec {
    let text = r#"
name = "xcheck"
horizon_ms = 2.0
drain_ms = 4.0
[topology]
kind = "fat-tree"
hosts_per_tor = 2
host_gbps = 25.0
fabric_gbps = 12.5
[workload.poisson]
sizes = "websearch"
[workload.incast]
rate_per_sec = 800.0
request_bytes = 400000
fan_in = 4
periodic = false
[sweep]
algos = ["powertcp", "theta-powertcp", "hpcc"]
loads = [0.4, 0.8]
seeds = [42]
"#;
    ScenarioSpec::from_toml(text).expect("the cross-check sweep parses")
}

/// The sweep body of a sweep spec, to edit.
fn body(spec: &mut ScenarioSpec) -> &mut SweepBody {
    let ScenarioKind::Sweep(body) = &mut spec.kind else {
        unreachable!("{} is a sweep", spec.name)
    };
    body
}

#[test]
fn flow_slowdowns_track_the_packet_engine_within_the_pinned_band() {
    let packet = run_sweep(&xcheck_spec(), 4).expect("packet sweep");
    let mut flow_spec = xcheck_spec();
    body(&mut flow_spec).engine = EngineKind::Flow;
    let flow = run_sweep(&flow_spec, 4).expect("flow sweep");
    assert_eq!(packet.aggregates.len(), flow.aggregates.len());
    for (p, f) in packet.aggregates.iter().zip(flow.aggregates.iter()) {
        assert_eq!((p.algo_key.as_str(), p.load), (f.algo_key.as_str(), f.load));
        // Identical offered population: both engines draw the same flows
        // from the same workload generators.
        assert_eq!(p.offered, f.offered, "{} load {}", p.algo_key, p.load);
        // The idealized fluid never finishes later than the packet run.
        assert!(
            f.completed >= p.completed,
            "{} load {}: flow completed {} < packet {}",
            p.algo_key,
            p.load,
            f.completed,
            p.completed
        );
        // Pinned fidelity band: mean slowdown ratio (flow/packet). At
        // the pin date the observed ratios were 0.68–0.79 across the six
        // cells — the flow model omits queueing delay and CC ramp-up, so
        // it undershoots, but a working engine stays within 2x of the
        // packet truth and never dips below the no-faster-than-wire
        // floor of 1.0.
        let pm = p.all.expect("packet all-mean").mean;
        let fm = f.all.expect("flow all-mean").mean;
        assert!(fm >= 1.0, "{} load {}: mean {fm} < 1", p.algo_key, p.load);
        let ratio = fm / pm;
        assert!(
            (0.45..=1.15).contains(&ratio),
            "{} load {}: flow/packet mean-slowdown ratio {ratio:.3} \
             (flow {fm:.3}, packet {pm:.3}) left the pinned band [0.45, 1.15]",
            p.algo_key,
            p.load
        );
    }
}

#[test]
fn params_axis_rides_the_flow_engine_unchanged() {
    // The sweep params axis must expand, label, and execute under
    // engine = "flow" exactly like any other axis. The flow model is
    // CC-agnostic, so differently-parameterized cells report identical
    // physics under distinct report keys.
    let mut spec = xcheck_spec();
    let sweep = body(&mut spec);
    sweep.engine = EngineKind::Flow;
    sweep.sweep.algos = vec![Algo::PowerTcp];
    sweep.sweep.loads = vec![0.4];
    sweep.sweep.params = vec![
        ParamSpec {
            gamma: Some(0.5),
            ..ParamSpec::default()
        },
        ParamSpec {
            gamma: Some(0.9),
            ..ParamSpec::default()
        },
    ];
    let r = run_sweep(&spec, 2).expect("flow sweep with params axis");
    assert_eq!(r.aggregates.len(), 2);
    assert_eq!(r.aggregates[0].algo_key, "powertcp[gamma=0.5]");
    assert_eq!(r.aggregates[1].algo_key, "powertcp[gamma=0.9]");
    assert_eq!(
        r.aggregates[0].all.map(|s| s.mean),
        r.aggregates[1].all.map(|s| s.mean),
        "flow physics ignores CC parameters"
    );
}
