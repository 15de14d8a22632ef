//! The layered performance ledger (see `benchmark/README.md`).
//!
//! ```text
//! ledger [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! ledger selfcheck [--workload NAME]... [--seed N] [--seconds S]
//! ledger pin
//! ledger screen --workload NAME --from N --count M
//! ```
//!
//! Without `--trace 1` a run reports the end-to-end metrics of each
//! selected workload (default: all six) with tracing off; with it, the
//! per-layer ledger. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` per workload, in
//! selection order.

#![forbid(unsafe_code)]

mod estimate;
mod host;
mod ladder;
mod ledger;
mod pins;
mod probes;
mod sched;
mod span;
mod workloads;

use sched::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::WORKLOADS;

/// End-to-end metrics: name, unit, and the share of the parent's median
/// by which a later change may worsen it (mirrored in `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("report_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.10),
    ("setup_s", "s", 0.25),
];

/// Seconds one run measures unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const RUN_SECONDS: f64 = 12.0;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// Where the harness writes: `benchmark/out/`, beside its manifest.
fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

struct Args {
    command: Option<String>,
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `screen`: first candidate simulation seed and how many.
    from: u64,
    count: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workloads: Vec::new(),
        seed: pins::DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        from: 1,
        count: 100,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workloads.push(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative integer")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds expects a positive number")?;
            }
            "--from" => {
                args.from = value("--from")?
                    .parse()
                    .map_err(|_| "--from expects a non-negative integer")?;
            }
            "--count" => {
                args.count = value("--count")?
                    .parse()
                    .map_err(|_| "--count expects a non-negative integer")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                };
            }
            cmd @ ("selfcheck" | "pin" | "screen" | "child") if args.command.is_none() => {
                args.command = Some(cmd.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.map(String::from).to_vec();
    }
    Ok(args)
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line of the benchmark contract.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn table(outcomes: &[Outcome]) -> String {
    let mut s = String::new();
    for o in outcomes {
        s.push_str(&format!(
            "{}  (operations attempted {}, failed {})\n",
            o.workload, o.attempted, o.failed
        ));
        for m in &o.metrics {
            s.push_str(&format!(
                "  {:<44} {:>8} {:>18.6}\n",
                m.name, m.unit, m.value
            ));
        }
    }
    s
}

/// One suite run: children for the workloads, then (traced runs) the
/// workload-independent ladder and probes, once, in this process.
fn suite(args: &Args) -> Result<Vec<Outcome>, String> {
    let mut outcomes = sched::run_suite(&args.workloads, args.seed, args.seconds, args.trace)?;
    if args.trace {
        let shared = probes::run(&out_dir()?)?;
        for o in &mut outcomes {
            o.metrics.extend(shared.iter().cloned());
        }
    }
    Ok(outcomes)
}

fn run(args: &Args) -> Result<bool, String> {
    let outcomes = suite(args)?;
    print!("{}", table(&outcomes));
    let lines: Vec<String> = outcomes.iter().map(result_line).collect();
    let file = out_dir()?.join("results.json");
    std::fs::write(&file, format!("[\n{}\n]\n", lines.join(",\n")))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    for line in &lines {
        println!("{line}");
    }
    Ok(outcomes.iter().all(|o| o.failed == 0))
}

/// Two suites back to back on the same build: the benchmark's own noise,
/// beside the bounds it asks later changes to keep.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = suite(args)?;
    let second = suite(args)?;
    let mut ok = true;
    println!(
        "{:<24} {:<12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        ok &= a.failed == 0 && b.failed == 0;
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            let bound = END_TO_END
                .iter()
                .find(|(n, _, _)| *n == ma.name)
                .map_or(f64::INFINITY, |e| e.2);
            let diff = estimate::rel_diff(ma.value, mb.value);
            let verdict = if diff > bound { "  EXCEEDS" } else { "" };
            ok &= diff <= bound;
            println!(
                "{:<24} {:<12} {:>12.6} {:>12.6} {:>7.2}% {:>5.0}%{verdict}",
                a.workload,
                ma.name,
                ma.value,
                mb.value,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

/// Print a fresh `expected.json` from one set-up of every workload at
/// the default seed.
fn pin() -> Result<bool, String> {
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let mut w = workloads::Workload::new(name, pins::DEFAULT_SEED, &out_dir()?)?;
        let (_, failed) = w.setup()?;
        w.teardown()?;
        if failed > 0 {
            return Err(format!("{name}: set-up failed {failed} operation(s)"));
        }
        rows.push((name.to_string(), w.pin.ok_or("no operation completed")?));
    }
    print!("{}", pins::render(&rows));
    Ok(true)
}

/// Candidate simulation seeds for a pooled workload: each one's event
/// total (deterministic) and fastest of three wall times, for choosing a
/// pool of equal work (`workloads::FATTREE256_SEEDS`).
fn screen(args: &Args) -> Result<bool, String> {
    let spec = match args.workloads[0].as_str() {
        "fattree256_websearch" => workloads::fattree256_spec,
        "flow_fattree_100k" => workloads::flow_fattree_spec,
        other => return Err(format!("{other} draws its seed from no pool")),
    };
    println!("sim_seed events wall_s");
    for sim_seed in args.from..args.from + args.count {
        let mut best = f64::INFINITY;
        let mut events = 0;
        for _ in 0..3 {
            let t0 = host::now();
            events =
                workloads::report(&mut span::Tracer::new(), &spec(sim_seed), None, false)?.events;
            best = best.min(host::since(t0));
        }
        println!("{sim_seed} {events} {best:.4}");
    }
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = parse_args(&argv).and_then(|args| match args.command.as_deref() {
        Some("child") => {
            sched::child_main(&args.workloads[0], args.seed, &out_dir()?).map(|()| true)
        }
        Some("selfcheck") => selfcheck(&args),
        Some("pin") => pin(),
        Some("screen") => screen(&args),
        _ => run(&args),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_scenarios::diff::{parse_json, Json};
    use std::collections::BTreeSet;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    fn member<'a>(obj: &'a Json, key: &str) -> &'a Json {
        pins::member(obj, key).expect(key)
    }

    fn text(j: &Json) -> &str {
        let Json::Str(s) = j else {
            panic!("not a string: {j:?}")
        };
        s
    }

    fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        let Json::Arr(items) = member(doc, key) else {
            panic!("{key} is not a list")
        };
        items
    }

    #[test]
    fn manifest_names_are_well_formed_unique_and_match_the_harness() {
        let doc = parse_json(MANIFEST).expect("BENCHMARK.json parses");
        let mut seen = BTreeSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for item in list(&doc, key) {
                let name = text(member(item, "name"));
                assert!(
                    !name.is_empty()
                        && name.len() <= 64
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad name {name:?}"
                );
                assert!(seen.insert(name.to_string()), "{name} used twice");
            }
        }
        let names = |key: &str| -> Vec<String> {
            list(&doc, key)
                .iter()
                .map(|i| text(member(i, "name")).to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(String::from).to_vec());
        for (item, (name, unit, bound)) in list(&doc, "end_to_end").iter().zip(END_TO_END) {
            assert_eq!(text(member(item, "name")), name);
            assert_eq!(text(member(item, "unit")), unit);
            assert_eq!(member(item, "bound"), &Json::Num(bound));
        }
        assert_eq!(list(&doc, "end_to_end").len(), END_TO_END.len());
        assert_eq!(member(&doc, "run_seconds"), &Json::Int(RUN_SECONDS as i128));
        // The ledger half of the per-layer list is derivable without a run.
        let per_layer: BTreeSet<String> = names("per_layer").into_iter().collect();
        for m in ledger::metrics(&span::Tracer::new(), 0) {
            assert!(
                per_layer.contains(&m.name),
                "{} not in BENCHMARK.json",
                m.name
            );
        }
        for rung in ladder::RUNGS {
            for what in ["ns_per_event", "events", "wall_ms"] {
                assert!(per_layer.contains(&format!("ladder.{rung}.{what}")));
            }
        }
    }

    #[test]
    fn seed_changes_no_metric_name() {
        let at = |seed: &str| {
            let argv = ["--seed".to_string(), seed.to_string()];
            let args = parse_args(&argv).expect("parses");
            (args.seed, args.workloads, args.trace)
        };
        let (s7, w7, t7) = at("7");
        let (s42, w42, t42) = at("42");
        assert_eq!((s7, s42), (7, 42));
        assert_eq!((w7, t7), (w42, t42));
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let o = Outcome {
            workload: "w".into(),
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("report_s", "s", 0.25),
                Metric::new("setup_s", "s", 1.5),
            ],
        };
        let Json::Obj(members) = parse_json(&result_line(&o)).expect("parses") else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(members[0].1, Json::Bool(true));
        assert_eq!(members[1].1, Json::Int(12));
        let value = member(member(&members[3].1, "report_s"), "value");
        assert_eq!(value, &Json::Num(0.25));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |argv: &[&str]| {
            parse_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map(|_| ())
        };
        assert!(parse(&[
            "--workload",
            "incast_star128",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
