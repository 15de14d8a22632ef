//! `xp bench` — wall-clock timings of the simulator hot paths, exported
//! as a JSON report (`BENCH_sim.json` at the repo root is the committed
//! baseline).
//!
//! Unlike the criterion benches (which compare data structures in
//! isolation), these cases time the *product* paths a sweep actually
//! exercises: a raw fabric blast, a windowed-transport incast, the
//! fig6-small fat-tree sweep point, and a timeseries trace entry. Each
//! case is a pure function of its inputs — identical simulated work every
//! run — so run-to-run differences are pure wall-clock, and `xp diff`
//! with a generous tolerance (timings are machine-dependent; try
//! `--tol 0.5`) can flag order-of-magnitude regressions between the
//! committed baseline and a fresh `xp bench --json` run.
//!
//! Every case counts the simulation events it dispatched (via
//! [`Simulator::stats`]) and derives events/sec from its best
//! repetition, so the engine's throughput is a tracked number across
//! PRs, not an anecdote. Both the JSON report and the human table render
//! through [`SummaryRecord`], the same struct the `--log-json` NDJSON
//! stream uses — the two views cannot drift apart.

use crate::algo::Algo;
use crate::library::fig6_small;
use crate::obs::SummaryRecord;
use crate::spec::{IncastSpec, ScenarioSpec, TopologySpec, TraceScenario, TraceSpec};
use dcn_sim::{
    build_star, Endpoint, EndpointCtx, FlowId, NodeId, Packet, Simulator, SwitchConfig, DEFAULT_MTU,
};
use powertcp_core::{Bandwidth, Tick};
use std::time::Instant;

/// One timed case.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Case name (stable across PRs; diffable).
    pub name: &'static str,
    /// What the case exercises.
    pub what: &'static str,
    /// Wall-clock per run, milliseconds.
    pub wall_ms: Vec<f64>,
    /// Simulation events dispatched per run (identical every run — the
    /// simulated work is deterministic).
    pub events: u64,
}

impl BenchCase {
    fn min_ms(&self) -> f64 {
        self.wall_ms.iter().copied().fold(f64::INFINITY, f64::min)
    }
    fn mean_ms(&self) -> f64 {
        self.wall_ms.iter().sum::<f64>() / self.wall_ms.len() as f64
    }

    /// This case as a [`SummaryRecord`]: `wall_ms` is the best
    /// repetition (so events/sec reports peak engine throughput),
    /// `points` the repetition count.
    pub fn summary(&self) -> SummaryRecord {
        SummaryRecord {
            name: self.name.into(),
            kind: "bench".into(),
            points: self.wall_ms.len(),
            cached: 0,
            wall_ms: self.min_ms(),
            events: self.events,
        }
    }
}

/// Sends `n` back-to-back MTU packets at start (the raw-fabric load).
struct Blaster {
    dst: NodeId,
    n: u64,
}

impl Endpoint for Blaster {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        for i in 0..self.n {
            ctx.send(Packet::data(
                FlowId(1),
                ctx.node,
                self.dst,
                i * DEFAULT_MTU as u64,
                DEFAULT_MTU,
                i + 1 == self.n,
                ctx.now,
            ));
        }
    }
    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        ctx.recycle(pkt);
    }
    fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
}

fn time<R>(runs: usize, mut f: impl FnMut() -> R) -> (Vec<f64>, R) {
    let mut wall = Vec::with_capacity(runs);
    let mut out = None;
    for _ in 0..runs {
        #[allow(clippy::disallowed_methods)] // bench wall-clock; reports via BENCH_sim.json only
        let t0 = Instant::now(); // lint:allow(R2): bench timing — the wall clock is the measurement
        out = Some(f());
        wall.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (wall, out.expect("runs >= 1"))
}

fn fabric_blast(runs: usize) -> BenchCase {
    // Sized to finish without admission drops, so the case times the hot
    // forwarding path: the bottleneck queue peaks at ~4x25 G in / 25 G
    // out x 192 µs ≈ 1.8 MB, under the ~3.5 MB Dynamic-Thresholds cap
    // (α=1: one port may hold at most half the 7 MB shared buffer).
    let pkts = 600u64;
    let (wall_ms, (delivered, events)) = time(runs, || {
        let mut mk = |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
            if idx == 0 {
                Box::new(dcn_sim::NullEndpoint)
            } else {
                Box::new(Blaster {
                    dst: NodeId(1),
                    n: pkts,
                })
            }
        };
        let star = build_star(
            5,
            Bandwidth::gbps(25),
            Tick::from_micros(1),
            SwitchConfig::default(),
            &mut mk,
        );
        let mut sim = Simulator::new(star.net);
        sim.run_until_idle();
        (sim.delivered, sim.stats().events_processed)
    });
    assert_eq!(delivered, 4 * pkts, "blast must not overflow the buffer");
    BenchCase {
        name: "fabric_4to1_blast",
        what: "2400-packet 4:1 blast through one switch (no drops), null transport",
        wall_ms,
        events,
    }
}

fn incast_trace(runs: usize) -> BenchCase {
    let spec = ScenarioSpec::timeseries(
        "bench-incast",
        TraceSpec {
            max_rows: 60,
            ..TraceSpec::new(TraceScenario::Incast {
                fan_in: 16,
                burst_bytes: 100_000,
                at_ms: 0.5,
            })
        },
    )
    .algos([Algo::PowerTcp])
    .horizon_ms(3.0);
    let entries = crate::trace_engine::trace_entries(&spec);
    let (wall_ms, (_, stats)) = time(runs, || {
        crate::trace_engine::run_trace_entry_observed(&spec, &entries[0])
    });
    BenchCase {
        name: "incast_16to1_powertcp_trace",
        what: "fig4-style 16:1 incast trace entry, PowerTCP + probes",
        wall_ms,
        events: stats.map_or(0, |s| s.events_processed),
    }
}

/// One synchronized 256:1 incast burst through a star switch with full
/// windowed transport. 256 concurrent sender flows converge on a single
/// receiver, so every data delivery and every ACK exercises the
/// per-flow state lookups (`sender_index`/`receivers`/metrics) at a
/// population where their cost shows — the case the dense-ID flow
/// tables exist for.
fn incast_flow_tables(runs: usize) -> BenchCase {
    let spec = ScenarioSpec::new(
        "bench-incast-256",
        TopologySpec::Star {
            hosts: 257,
            host_gbps: 25.0,
        },
    )
    .incast(IncastSpec {
        rate_per_sec: 1_000.0,
        request_bytes: 25_600_000,
        fan_in: 256,
        periodic: true,
    })
    .algos([Algo::PowerTcp])
    .seeds([42])
    .horizon_ms(1.5)
    .drain_ms(15.0);
    let points = crate::sweep::sweep_points(&spec);
    let (wall_ms, (outcome, stats)) = time(runs, || {
        crate::engine::run_sweep_point_observed(&spec, &points[0])
    });
    assert_eq!(outcome.offered, 256, "one synchronized 256-flow burst");
    BenchCase {
        name: "incast_256to1_flows",
        what: "one 256:1 incast burst on a star, PowerTCP transport (per-flow table stress)",
        wall_ms,
        events: stats.events_processed,
    }
}

fn fat_tree_sweep(runs: usize) -> BenchCase {
    let spec = fig6_small();
    let points = crate::sweep::sweep_points(&spec);
    let (wall_ms, (report, events)) = time(runs, || {
        let mut events = 0;
        let mut outcomes = Vec::with_capacity(points.len());
        for p in &points {
            let (out, stats) = crate::engine::run_sweep_point_observed(&spec, p);
            events += stats.events_processed;
            outcomes.push(out);
        }
        (crate::report::SweepResult::build(&spec, outcomes), events)
    });
    assert_eq!(report.points.len(), points.len());
    BenchCase {
        name: "fig6_small_sweep",
        what: "fig6-small fat-tree websearch sweep (2 points, 1 thread)",
        wall_ms,
        events,
    }
}

/// The flow-engine core benchmark: `total` flows through a synthetic
/// fabric, arrivals staggered so a bounded set is in flight at once (as
/// in a real sweep). The 1k case routes host-to-host without a shared
/// link, forcing general water-filling every event; the 100k case pushes
/// everything through one shared fabric link, the single-bottleneck fast
/// path a fat-tree rack reduces to. The `events` figure is *flows
/// completed*, so events/sec reads as flow-completion throughput.
fn flow_core(
    runs: usize,
    total: u64,
    hosts: u64,
    stagger_s: f64,
    shared_bottleneck: bool,
    name: &'static str,
    what: &'static str,
) -> BenchCase {
    use dcn_flow::{simulate, FlowDef, FlowNet};
    let host_bps = Bandwidth::gbps(25).bytes_per_sec();
    let (wall_ms, completed) = time(runs, || {
        let mut net = FlowNet::new();
        let up: Vec<_> = (0..hosts).map(|_| net.add_link(host_bps)).collect();
        let down: Vec<_> = (0..hosts).map(|_| net.add_link(host_bps)).collect();
        let fabric = shared_bottleneck.then(|| net.add_link(2.0 * host_bps));
        let flows: Vec<FlowDef> = (0..total)
            .map(|i| {
                let src = (i % hosts) as usize;
                let dst = ((i * 7 + 1) % hosts) as usize;
                let mut path = vec![up[src], down[dst]];
                if let Some(f) = fabric {
                    path.push(f);
                }
                FlowDef {
                    seq: i,
                    // 10–59.5 KB, varying deterministically per flow; the
                    // stagger keeps offered load under the bottleneck
                    // capacity so the in-flight set stays bounded.
                    size_bytes: 10_000 + (i * 37 % 100) * 500,
                    start_s: i as f64 * stagger_s,
                    path,
                }
            })
            .collect();
        let (results, stats) = simulate(&net, &flows, f64::INFINITY);
        assert!(results.iter().all(|r| r.finish_s.is_some()));
        stats.completed
    });
    assert_eq!(completed, total, "every offered flow must complete");
    BenchCase {
        name,
        what,
        wall_ms,
        events: completed,
    }
}

/// Run the bench suite with `runs` timed repetitions per case.
pub fn run_bench(runs: usize) -> Vec<BenchCase> {
    vec![
        fabric_blast(runs),
        incast_trace(runs),
        incast_flow_tables(runs),
        fat_tree_sweep(runs),
        // 1k flows at ~70% per-uplink load on an 8-host mesh: no shared
        // link, so every event re-runs general water-filling.
        flow_core(
            runs,
            1_000,
            8,
            2e-6,
            false,
            "flow_core_1k",
            "1k flows, 8-host mesh, general water-filling (events = flows completed)",
        ),
        // 100k flows at ~56% load through one shared fabric link: the
        // single-bottleneck fast path a fat-tree rack reduces to.
        flow_core(
            runs,
            100_000,
            64,
            1e-5,
            true,
            "flow_core_100k",
            "100k flows through one shared bottleneck, fast-path allocation (events = flows completed)",
        ),
    ]
}

/// Render cases as the `BENCH_sim.json` report. The per-case figures
/// (best wall-clock, events, events/sec) come from
/// [`BenchCase::summary`], the same record the table renders.
pub fn bench_to_json(cases: &[BenchCase], runs: usize) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"sim\",\n");
    s.push_str(&format!("  \"runs\": {runs},\n"));
    s.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let sum = c.summary();
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", c.name));
        s.push_str(&format!("      \"what\": \"{}\",\n", c.what));
        s.push_str(&format!("      \"wall_ms_min\": {:.3},\n", sum.wall_ms));
        s.push_str(&format!("      \"wall_ms_mean\": {:.3},\n", c.mean_ms()));
        s.push_str(&format!("      \"events\": {},\n", sum.events));
        s.push_str(&format!(
            "      \"events_per_sec\": {:.1}\n",
            sum.events_per_sec()
        ));
        s.push_str(if i + 1 == cases.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Outcome of [`bench_check`]: one verdict line per compared case, plus
/// the subset that regressed (empty = pass).
#[derive(Debug)]
pub struct BenchCheck {
    /// One human-readable verdict per baseline case, in baseline order.
    pub lines: Vec<String>,
    /// Failing verdicts: cases whose events/sec fell more than the
    /// tolerance below the baseline, or that vanished from the suite.
    pub regressions: Vec<String>,
}

/// Compare a fresh bench run against the committed `BENCH_sim.json`
/// baseline: a case fails when its events/sec falls more than `tol_pct`
/// percent below the baseline figure (`xp bench --check`). Cases only
/// present on one side never fail the check — a freshly added case has
/// no baseline yet, and dropping one is a suite change the byte-diff CI
/// catches — but both are reported. Errors if the baseline does not
/// parse as a bench report.
pub fn bench_check(
    cases: &[BenchCase],
    baseline_json: &str,
    tol_pct: f64,
) -> Result<BenchCheck, String> {
    let parsed = crate::diff::parse_json(baseline_json)?;
    let crate::diff::Json::Obj(top) = parsed else {
        return Err("baseline: expected a top-level object".into());
    };
    let Some(crate::diff::Json::Arr(base_cases)) =
        top.iter().find(|(k, _)| k == "cases").map(|(_, v)| v)
    else {
        return Err("baseline: missing \"cases\" array".into());
    };
    let mut baseline: Vec<(String, f64)> = Vec::new();
    for cj in base_cases {
        let crate::diff::Json::Obj(m) = cj else {
            return Err("baseline: case is not an object".into());
        };
        let field = |key: &str| m.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(crate::diff::Json::Str(name)) = field("name") else {
            return Err("baseline: case without a name".into());
        };
        let eps = match field("events_per_sec") {
            Some(crate::diff::Json::Num(x)) => *x,
            Some(crate::diff::Json::Int(x)) => *x as f64,
            _ => return Err(format!("baseline case {name}: missing events_per_sec")),
        };
        baseline.push((name.clone(), eps));
    }
    let mut out = BenchCheck {
        lines: Vec::new(),
        regressions: Vec::new(),
    };
    for (name, base_eps) in &baseline {
        match cases.iter().find(|c| c.name == name.as_str()) {
            None => {
                let line = format!("{name}: REGRESSED (case missing from the fresh run)");
                out.lines.push(line.clone());
                out.regressions.push(line);
            }
            Some(c) => {
                let fresh = c.summary().events_per_sec();
                let delta_pct = (fresh / base_eps - 1.0) * 100.0;
                if fresh < base_eps * (1.0 - tol_pct / 100.0) {
                    let line = format!(
                        "{name}: REGRESSED  {fresh:.0} ev/s vs baseline {base_eps:.0} ({delta_pct:+.1}%, tol -{tol_pct}%)"
                    );
                    out.lines.push(line.clone());
                    out.regressions.push(line);
                } else {
                    out.lines.push(format!(
                        "{name}: ok  {fresh:.0} ev/s vs baseline {base_eps:.0} ({delta_pct:+.1}%)"
                    ));
                }
            }
        }
    }
    for c in cases {
        if !baseline.iter().any(|(n, _)| n == c.name) {
            out.lines
                .push(format!("{}: new case (no baseline yet)", c.name));
        }
    }
    Ok(out)
}

/// Human-readable table for stderr: one [`SummaryRecord`] row per case
/// (plus the run-to-run mean, which only the table shows).
pub fn bench_table(cases: &[BenchCase]) -> String {
    let mut s = String::new();
    for c in cases {
        s.push_str(&format!(
            "{}  mean {:>9.3} ms  {}\n",
            c.summary().table_row(),
            c.mean_ms(),
            c.what
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_suite_runs_and_renders() {
        let cases = run_bench(1);
        assert_eq!(cases.len(), 6);
        // Every case tracks a real event count now (the engine counts
        // all dispatches, so anything that simulates is nonzero).
        for c in &cases {
            assert!(c.events > 0, "case {} must count events", c.name);
            assert!(c.summary().events_per_sec() > 0.0);
        }
        let json = bench_to_json(&cases, 1);
        // The report must parse with our own diff parser and carry one
        // object per case, each with an events/sec figure.
        let parsed = crate::diff::parse_json(&json).expect("valid JSON");
        let crate::diff::Json::Obj(members) = parsed else {
            panic!("top-level object");
        };
        assert_eq!(members[0].0, "bench");
        let crate::diff::Json::Arr(cases_json) = &members[2].1 else {
            panic!("cases array");
        };
        for cj in cases_json {
            let crate::diff::Json::Obj(m) = cj else {
                panic!("case object");
            };
            assert!(m.iter().any(|(k, _)| k == "events_per_sec"));
        }
        assert!(bench_table(&cases).contains("fig6_small_sweep"));
        assert!(bench_table(&cases).contains("ev/s"));
    }

    fn fake_case(name: &'static str, wall_ms: f64, events: u64) -> BenchCase {
        BenchCase {
            name,
            what: "synthetic",
            wall_ms: vec![wall_ms],
            events,
        }
    }

    #[test]
    fn bench_check_flags_only_regressions_beyond_tolerance() {
        // Baseline: case `a` at 1e6 ev/s, case `gone` at 5e5 ev/s.
        let baseline = r#"{
          "bench": "sim", "runs": 1,
          "cases": [
            {"name": "a", "events_per_sec": 1000000.0},
            {"name": "gone", "events_per_sec": 500000.0}
          ]
        }"#;
        // Within tolerance (10% drop, tol 20%): pass.
        let ok = vec![fake_case("a", 1.0, 900), fake_case("gone", 1.0, 500)];
        let res = bench_check(&ok, baseline, 20.0).unwrap();
        assert!(res.regressions.is_empty(), "{:?}", res.regressions);
        // Beyond tolerance (50% drop): fail, and the verdict names it.
        let slow = vec![fake_case("a", 1.0, 500), fake_case("gone", 1.0, 500)];
        let res = bench_check(&slow, baseline, 20.0).unwrap();
        assert_eq!(res.regressions.len(), 1);
        assert!(res.regressions[0].contains("a: REGRESSED"));
        // A case missing from the fresh run fails; a fresh-only case is
        // reported but does not.
        let renamed = vec![fake_case("a", 1.0, 900), fake_case("b", 1.0, 900)];
        let res = bench_check(&renamed, baseline, 20.0).unwrap();
        assert_eq!(res.regressions.len(), 1);
        assert!(res.regressions[0].contains("gone: REGRESSED"));
        assert!(res.lines.iter().any(|l| l.contains("b: new case")));
        // Garbage baselines error instead of passing silently.
        assert!(bench_check(&ok, "not json", 20.0).is_err());
        assert!(bench_check(&ok, "{\"bench\": \"sim\"}", 20.0).is_err());
    }
}
