//! Figures 9–11 (Appendix D): HOMA at overcommitment levels 1–6 —
//! fairness (Fig. 9), 255:1 incast (Fig. 10), and 10:1 incast (Fig. 11).
//!
//! Thin front-end over `timeseries` scenario specs (the FCT-statistics
//! view of the same sweep is the built-in `fig9to11` spec).
//!
//! Usage: `fig9to11 [--panel fairness|incast255|incast10|all] [--full]`

use dcn_scenarios::{run_trace, Algo, ScenarioSpec, TraceScenario, TraceSpec};
use powertcp_bench::table;

fn homa_trace(name: &str, scenario: TraceScenario, horizon_ms: f64) -> ScenarioSpec {
    ScenarioSpec::timeseries(name, TraceSpec::new(scenario))
        .describe("HOMA at overcommitment 1-6")
        .algos((1..=6).map(Algo::Homa))
        .horizon_ms(horizon_ms)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let mut panel = "all".to_string();
    let full = argv.iter().any(|a| a == "--full");
    let mut i = 1;
    while i < argv.len() {
        if argv[i] == "--panel" {
            i += 1;
            panel = argv[i].clone();
        }
        i += 1;
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if panel == "fairness" || panel == "all" {
        let spec = homa_trace(
            "fig9",
            TraceScenario::Fairness {
                flows: 4,
                stagger_ms: 1.0,
            },
            6.0,
        );
        let report = run_trace(&spec, threads).expect("fig9 trace");
        println!("{}", report.table());
        table::paper_note(
            "overcommitment 1 serializes messages (SRPT — poor instantaneous \
             fairness); higher levels share the receiver downlink across \
             more concurrent senders",
        );
    }

    let big = if full { 255 } else { 63 };
    for (name, want, fan_in, burst) in [
        ("fig10", "incast255", big, 60_000u64),
        ("fig11", "incast10", 10usize, 150_000u64),
    ] {
        if panel != "all" && panel != want {
            continue;
        }
        let spec = homa_trace(
            name,
            TraceScenario::Incast {
                fan_in,
                burst_bytes: burst,
                at_ms: 1.0,
            },
            5.0,
        );
        let report = run_trace(&spec, threads).expect("incast trace");
        println!("{}", report.table());
        table::paper_note(
            "queue occupancy grows with the overcommitment level (more \
             concurrently granted senders); throughput is sustained at all \
             levels; level 1 performed best in the paper's oversubscribed \
             setup",
        );
    }
}
