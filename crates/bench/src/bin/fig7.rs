//! Figure 7: the detailed comparison — FCT vs load, FCT under incast
//! (rate and size sweeps), and buffer-occupancy CDFs.
//!
//! Usage: `fig7 [--panel load|rate|size|bufcdf|bufcdf-incast|all]
//!               [--scale tiny|bench|paper] [--seed N]`

use dcn_scenarios::{run_point, Algo, IncastSpec, PointOutcome, Scale};
use dcn_stats::{percentile, Cdf, Summary};
use powertcp_bench::table;

struct Args {
    panel: String,
    scale: Scale,
    seed: u64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut a = Args {
        panel: "all".into(),
        scale: Scale::bench(),
        seed: 42,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--panel" => {
                i += 1;
                a.panel = argv[i].clone();
            }
            "--scale" => {
                i += 1;
                a.scale = match argv[i].as_str() {
                    "tiny" => Scale::tiny(),
                    "bench" => Scale::bench(),
                    "paper" => Scale::paper(),
                    other => panic!("unknown scale {other}"),
                };
            }
            "--seed" => {
                i += 1;
                a.seed = argv[i].parse().expect("seed");
            }
            other => panic!("unknown arg {other}"),
        }
        i += 1;
    }
    a
}

/// The three protocols Figure 7 compares.
fn fig7_algos() -> [Algo; 3] {
    [Algo::PowerTcp, Algo::ThetaPowerTcp, Algo::Hpcc]
}

/// One fig7 point: websearch at `scale`, plus an 8-way incast overlay of
/// `(requests per second, bytes per request)` when given. The overlay's
/// rate and size are swept by the panels below and are not a spec axis,
/// so each cell is its own spec.
fn point(
    scale: Scale,
    algo: Algo,
    load: f64,
    incast: Option<(f64, u64)>,
    seed: u64,
) -> PointOutcome {
    let mut spec = scale.spec("fig7");
    if let Some((rate_per_sec, request_bytes)) = incast {
        spec = spec.incast(IncastSpec {
            rate_per_sec,
            request_bytes,
            fan_in: 8,
            periodic: false,
        });
    }
    run_point(&spec, algo, load, seed)
}

/// Tail slowdown at the percentile the sample size supports.
fn tail_cell(xs: &[f64]) -> String {
    let pct = Summary::credible_tail_pct(xs.len());
    match percentile(xs, pct) {
        Some(v) => format!("{} (p{pct})", table::f(v)),
        None => "-".into(),
    }
}

fn panel_load(scale: Scale, seed: u64) {
    table::header(
        "Figure 7a/7b",
        "short- and long-flow tail FCT slowdown vs load (websearch)",
    );
    let mut rows = Vec::new();
    for load in [0.2, 0.4, 0.6, 0.8] {
        for algo in fig7_algos() {
            let r = point(scale, algo, load, None, seed);
            rows.push(vec![
                format!("{:.0}%", load * 100.0),
                algo.name(),
                tail_cell(&r.short),
                tail_cell(&r.long),
                format!("{}/{}", r.completed, r.offered),
            ]);
        }
    }
    table::table(
        &[
            "load",
            "protocol",
            "short-flow tail",
            "long-flow tail",
            "done/offered",
        ],
        &rows,
    );
    table::paper_note(
        "benefits grow with load: PowerTCP 36% (theta: 55%) better than \
         HPCC for short flows across loads; long flows comparable, PowerTCP \
         ~9% better at 90% load; theta-PowerTCP ~35% worse for long flows",
    );
}

/// A Figure 7c–f panel: short- and long-flow tails at 80% load under
/// each `(row label, incast overlay)` of `cells`.
fn panel_incast(
    scale: Scale,
    seed: u64,
    (fig, caption, axis, note): (&str, &str, &str, &str),
    cells: &[(String, (f64, u64))],
) {
    table::header(fig, caption);
    let mut rows = Vec::new();
    for (label, overlay) in cells {
        for algo in fig7_algos() {
            let r = point(scale, algo, 0.8, Some(*overlay), seed);
            rows.push(vec![
                label.clone(),
                algo.name(),
                tail_cell(&r.short),
                tail_cell(&r.long),
            ]);
        }
    }
    table::table(&[axis, "protocol", "short tail", "long tail"], &rows);
    table::paper_note(note);
}

fn panel_rate(scale: Scale, seed: u64) {
    // Scaled-up rate: see note.
    let cells = [1.0, 4.0, 8.0, 16.0].map(|rate| (format!("{rate}"), (rate * 50.0, 2_000_000)));
    panel_incast(
        scale,
        seed,
        (
            "Figure 7c/7d",
            "tail FCT vs incast request rate (websearch @80% + 2MB incasts)",
            "request rate (paper units)",
            "PowerTCP improves short-flow tails ~24% on average over HPCC and \
             33% at the highest request rate; long flows ~10% better; \
             theta-PowerTCP helps short flows but trails HPCC overall. \
             (Request rates are scaled ×50 because the simulated horizon is \
             milliseconds, not seconds — the per-horizon incast count matches.)",
        ),
        &cells,
    );
}

fn panel_size(scale: Scale, seed: u64) {
    let cells = [1u64, 2, 4, 6, 8].map(|mb| (format!("{mb} MB"), (4.0 * 50.0, mb * 1_000_000)));
    panel_incast(
        scale,
        seed,
        (
            "Figure 7e/7f",
            "tail FCT vs incast request size (websearch @80%, 4 req/s paper-rate)",
            "request size",
            "FCTs grow gradually with request size; PowerTCP beats HPCC by 20% \
             (1MB) shrinking to 7% (8MB) for short flows and ~5% for long flows",
        ),
        &cells,
    );
}

fn panel_bufcdf(scale: Scale, seed: u64, incast: bool) {
    let (fig, caption) = if incast {
        (
            "Figure 7h",
            "buffer occupancy CDF, websearch @80% + 2MB incasts @16/s",
        )
    } else {
        ("Figure 7g", "buffer occupancy CDF, websearch @80% load")
    };
    table::header(fig, caption);
    let overlay = incast.then_some((16.0 * 50.0, 2_000_000));
    let mut rows = Vec::new();
    for algo in fig7_algos() {
        let r = point(scale, algo, 0.8, overlay, seed);
        let mut buffer_cdf = Cdf::new();
        buffer_cdf.extend(r.buffer.iter().copied());
        let q50 = buffer_cdf.quantile(0.5).unwrap_or(0.0);
        let q99 = buffer_cdf.quantile(0.99).unwrap_or(0.0);
        let q100 = buffer_cdf.quantile(1.0).unwrap_or(0.0);
        rows.push(vec![
            algo.name(),
            table::f(q50 / 1000.0),
            table::f(q99 / 1000.0),
            table::f(q100 / 1000.0),
        ]);
    }
    table::table(
        &[
            "protocol",
            "p50 buffer (KB)",
            "p99 buffer (KB)",
            "max buffer (KB)",
        ],
        &rows,
    );
    table::paper_note(if incast {
        "both PowerTCP variants cut the p99 buffer by ~31% vs HPCC under \
         bursty traffic"
    } else {
        "PowerTCP consistently occupies less buffer; tail occupancy ~50% \
         below HPCC"
    });
}

fn main() {
    let a = parse_args();
    match a.panel.as_str() {
        "load" => panel_load(a.scale, a.seed),
        "rate" => panel_rate(a.scale, a.seed),
        "size" => panel_size(a.scale, a.seed),
        "bufcdf" => panel_bufcdf(a.scale, a.seed, false),
        "bufcdf-incast" => panel_bufcdf(a.scale, a.seed, true),
        "all" => {
            panel_load(a.scale, a.seed);
            panel_rate(a.scale, a.seed);
            panel_size(a.scale, a.seed);
            panel_bufcdf(a.scale, a.seed, false);
            panel_bufcdf(a.scale, a.seed, true);
        }
        other => panic!("unknown panel {other}"),
    }
}
