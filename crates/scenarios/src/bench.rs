//! `xp bench` — event counts and wall-clock timings of the simulator hot
//! paths, exported as a JSON report (`BENCH_sim.json` at the repo root is
//! the committed baseline).
//!
//! Unlike the criterion benches (which compare data structures in
//! isolation), these cases run the *product* paths a sweep actually
//! exercises: a raw fabric blast, a windowed-transport incast, the
//! fig6-small fat-tree sweep point, a timeseries trace entry and the
//! flow-engine core. Each case is a pure function of its inputs —
//! identical simulated work every run — so its `events` count (via
//! [`Simulator::stats`]) is the same on every machine: that is what
//! [`bench_check`] gates on, exactly, as the tiny-scale twin of the
//! event totals `benchmark/expected.json` pins at paper scale. The
//! timings (best and mean wall-clock, events/sec from the best
//! repetition) are machine-dependent information: they stay in the
//! table and the JSON, and performance claims are made with the ledger
//! in `benchmark/` (`scripts/ab.sh`), never with these. Both the JSON
//! report and the human table render through [`SummaryRecord`], the same
//! struct the `--log-json` NDJSON stream uses — the two views cannot
//! drift apart.

use crate::algo::Algo;
use crate::diff::Json;
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
        #[expect(
            clippy::disallowed_methods,
            reason = "bench timing — the wall clock is the measurement; reports via BENCH_sim.json only"
        )]
        let t0 = Instant::now();
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
/// the subset that failed (empty = pass).
#[derive(Debug)]
pub struct BenchCheck {
    /// One human-readable verdict per baseline case, in baseline order,
    /// then one per case the baseline does not know.
    pub lines: Vec<String>,
    /// Failing verdicts: cases whose event count differs from the
    /// baseline's, or that vanished from the suite.
    pub failures: Vec<String>,
}

/// Compare a fresh bench run against the committed `BENCH_sim.json`
/// baseline (`xp bench --check`): a case fails when its `events` count
/// is not **exactly** the baseline's. The simulated work of every case
/// is deterministic, so the count is the same on any machine and any
/// difference is a behaviour change that must be re-pinned on purpose
/// (`xp bench --json BENCH_sim.json`); wall-clock figures are
/// machine-dependent and are never compared. A baseline case missing
/// from the run fails too; a case the baseline does not know is only
/// reported. Errors if the baseline does not parse as a bench report.
pub fn bench_check(cases: &[BenchCase], baseline_json: &str) -> Result<BenchCheck, String> {
    let baseline = crate::diff::parse_json(baseline_json)?
        .field("cases", Json::as_arr)?
        .iter()
        .map(|c| {
            Ok((
                c.field("name", Json::as_str)?.to_string(),
                c.field("events", Json::as_u64)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut out = BenchCheck {
        lines: Vec::new(),
        failures: Vec::new(),
    };
    for (name, want) in &baseline {
        let got = cases.iter().find(|c| c.name == name.as_str());
        let got = got.map(|c| c.events);
        let line = match got {
            Some(events) if events == *want => format!("{name}: ok  {events} events"),
            Some(events) => format!("{name}: CHANGED  {events} events vs baseline {want}"),
            None => format!("{name}: CHANGED  case missing from the fresh run"),
        };
        if got != Some(*want) {
            out.failures.push(line.clone());
        }
        out.lines.push(line);
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
        // object per case, each with an events/sec figure — and it is
        // its own baseline: a report checks clean against itself.
        let parsed = crate::diff::parse_json(&json).expect("valid JSON");
        assert_eq!(parsed.field("bench", Json::as_str), Ok("sim"));
        for cj in parsed.field("cases", Json::as_arr).expect("cases array") {
            assert!(cj.field("events_per_sec", Json::as_f64).is_ok());
        }
        let check = bench_check(&cases, &json).expect("own report is a baseline");
        assert!(check.failures.is_empty(), "{:?}", check.failures);
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
    fn bench_check_flags_any_event_count_change() {
        let baseline = r#"{
          "bench": "sim", "runs": 1,
          "cases": [
            {"name": "a", "events": 900, "events_per_sec": 1000000.0},
            {"name": "gone", "events": 500, "events_per_sec": 500000.0}
          ]
        }"#;
        // Equal counts pass, however slow the run was.
        let ok = vec![fake_case("a", 1e6, 900), fake_case("gone", 1.0, 500)];
        let res = bench_check(&ok, baseline).unwrap();
        assert!(res.failures.is_empty(), "{:?}", res.failures);
        assert_eq!(res.lines.len(), 2);
        // One event more or fewer fails, and the verdict names the case.
        for events in [899, 901] {
            let moved = vec![fake_case("a", 1.0, events), fake_case("gone", 1.0, 500)];
            let res = bench_check(&moved, baseline).unwrap();
            assert_eq!(res.failures.len(), 1);
            assert!(res.failures[0].starts_with("a: CHANGED"));
            assert!(res.failures[0].contains(&format!("{events} events vs baseline 900")));
        }
        // A case missing from the fresh run fails; a fresh-only case is
        // reported but does not.
        let renamed = vec![fake_case("a", 1.0, 900), fake_case("b", 1.0, 900)];
        let res = bench_check(&renamed, baseline).unwrap();
        assert_eq!(res.failures.len(), 1);
        assert!(res.failures[0].starts_with("gone: CHANGED"));
        assert!(res.lines.iter().any(|l| l.contains("b: new case")));
        // Garbage baselines error instead of passing silently.
        assert!(bench_check(&ok, "not json").is_err());
        assert!(bench_check(&ok, "{\"bench\": \"sim\"}").is_err());
        assert!(bench_check(&ok, r#"{"cases": [{"name": "a", "events": -1}]}"#).is_err());
    }
}
