//! The scheduler against host-speed drift, and the child it drives.
//!
//! Host speed on a shared box drifts in episodes minutes long. So one
//! invocation spawns one long-lived child process per selected workload
//! (one workload's memory never hides in another's), sets each up, and
//! then runs repetitions **round-robin** — repetition k of every workload
//! before repetition k+1 of any — so each workload's samples span the
//! whole measuring window. Children wait on their stdin between
//! repetitions and burn no CPU.
//!
//! Protocol, one line each way: the parent writes `setup N`, `rep`,
//! `rep traced` or `finish`; the child answers with `key value...` lines
//! closed by `end`.

use crate::estimate::{percentile, summary};
use crate::ledger;
use crate::pins::{self, DEFAULT_SEED};
use crate::span::Tracer;
use crate::workloads::{Rep, Workload};
use crate::{host, Metric};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Set-ups per end-to-end run; `setup_s` is the fastest (interference
/// only adds time, to a set-up as to a repetition).
const SETUPS: usize = 3;
/// Fewest timed repetitions per workload, however short the window.
const MIN_REPS: usize = 3;
/// Share of the window a traced run spends on the workload's own
/// repetitions; the ladder and probes need the rest of the run's time.
const TRACED_SHARE: f64 = 0.5;

/// The child process: serve the parent's commands for one workload.
pub fn child_main(name: &str, seed: u64, out_dir: &Path) -> Result<(), String> {
    let mut w = Workload::new(name, seed, out_dir)?;
    let mut tracer = Tracer::new();
    let mut op_s: Vec<f64> = Vec::new();
    let mut traced_ops = 0u64;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("child stdin: {e}"))?;
        let mut words = line.split_whitespace();
        match (words.next(), words.next()) {
            (Some("setup"), Some(n)) => {
                let n: usize = n.parse().map_err(|_| "setup expects a count")?;
                let (mut attempted, mut failed) = (0, 0);
                for _ in 0..n {
                    let t0 = host::now();
                    let (a, f) = w.setup()?;
                    println!("setup_s {}", host::since(t0));
                    attempted += a;
                    failed += f;
                }
                let pin = w.pin.ok_or("set-up completed no operation")?;
                if seed == DEFAULT_SEED && pins::committed()?.get(name) != Some(&pin) {
                    eprintln!("{name}: digest/event total differs from expected.json: {pin:x?}");
                    failed += 1;
                }
                println!("pin {:#018x} {}", pin.digest, pin.events);
                println!("ops {attempted} {failed}");
            }
            (Some("rep"), traced) => {
                tracer.set_enabled(traced == Some("traced"));
                let Rep {
                    wall_s,
                    cpu_s,
                    ops,
                    failed,
                    op_s: each,
                    parts,
                } = w.rep(&mut tracer);
                if tracer.enabled() {
                    traced_ops += ops;
                }
                tracer.set_enabled(false);
                op_s.extend(each);
                let parts: Vec<String> = parts.iter().map(f64::to_string).collect();
                println!("rep {wall_s} {cpu_s} {ops} {failed} {}", parts.join(" "));
            }
            (Some("finish"), _) => {
                if traced_ops > 0 {
                    let file = out_dir.join(format!("trace-{name}.ndjson"));
                    std::fs::write(&file, tracer.to_ndjson())
                        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
                    for m in ledger::metrics(&tracer, traced_ops) {
                        println!("metric {} {} {}", m.name, m.unit, m.value);
                    }
                }
                if !op_s.is_empty() {
                    let ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
                    println!("metric op.p50_ms ms {}", percentile(&ms, 50.0));
                    println!("metric op.p95_ms ms {}", percentile(&ms, 95.0));
                    println!("metric op.count count {}", ms.len());
                }
                w.teardown()?;
                println!("peak_rss_mb {}", host::status_mb("VmHWM"));
                println!("end");
                return Ok(());
            }
            _ => return Err(format!("child: unknown command {line:?}")),
        }
        println!("end");
        std::io::stdout()
            .flush()
            .map_err(|e| format!("child stdout: {e}"))?;
    }
    // Parent went away without `finish`: clean up and leave.
    w.teardown()
}

/// One repetition as the parent records it.
struct RepRecord {
    wall_s: f64,
    cpu_s: f64,
    ops: u64,
    traced: bool,
}

/// A spawned workload child.
struct Worker {
    name: String,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Fastest of the set-ups.
    setup_s: f64,
    reps: Vec<RepRecord>,
    measured_s: f64,
    /// Fastest time of each part of an untraced repetition so far.
    best_parts: Vec<f64>,
}

impl Worker {
    fn spawn(name: &str, seed: u64) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
        let mut child = Command::new(exe)
            .args(["child", "--workload", name, "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the {name} child: {e}"))?;
        Ok(Worker {
            name: name.to_string(),
            stdin: child.stdin.take().expect("piped stdin"),
            stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
            child,
            setup_s: 0.0,
            reps: Vec::new(),
            measured_s: 0.0,
            best_parts: Vec::new(),
        })
    }

    /// Send one command; collect the answer's lines up to `end`.
    fn ask(&mut self, cmd: &str) -> Result<Vec<Vec<String>>, String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("{}: cannot send {cmd:?}: {e}", self.name))?;
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("{}: {e}", self.name))?;
            if n == 0 {
                return Err(format!("{}: child died during {cmd:?}", self.name));
            }
            if line.trim() == "end" {
                return Ok(lines);
            }
            lines.push(line.split_whitespace().map(str::to_string).collect());
        }
    }
}

/// Kill and reap whatever is still running (error paths).
fn reap(workers: &mut [Worker]) {
    for w in workers {
        let _ = w.child.kill();
        let _ = w.child.wait();
    }
}

fn num(words: &[String], i: usize) -> Result<f64, String> {
    words
        .get(i)
        .and_then(|w| w.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("malformed child answer {words:?}"))
}

/// What one workload's run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

/// Run `names` at `seed`, measuring each for `seconds`; `trace` selects
/// the traced run (per-layer metrics) over the end-to-end one.
pub fn run_suite(
    names: &[String],
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Vec<Outcome>, String> {
    let mut workers = Vec::new();
    for name in names {
        match Worker::spawn(name, seed) {
            Ok(w) => workers.push(w),
            Err(e) => {
                reap(&mut workers);
                return Err(e);
            }
        }
    }
    let done = drive(&mut workers, seconds, trace);
    if done.is_err() {
        reap(&mut workers);
    }
    done
}

fn drive(workers: &mut [Worker], seconds: f64, trace: bool) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::new();
    let (setups, seconds) = match trace {
        true => (1, seconds * TRACED_SHARE),
        false => (SETUPS, seconds),
    };
    for w in workers.iter_mut() {
        let mut setup_s = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for words in w.ask(&format!("setup {setups}"))? {
            match words.first().map(String::as_str) {
                Some("setup_s") => setup_s.push(num(&words, 1)?),
                Some("ops") => {
                    attempted = num(&words, 1)? as u64;
                    failed = num(&words, 2)? as u64;
                }
                _ => {}
            }
        }
        w.setup_s = summary(&setup_s).min;
        outcomes.push(Outcome {
            workload: w.name.clone(),
            attempted,
            failed,
            metrics: Vec::new(),
        });
    }
    // Round-robin: one repetition of every unfinished workload per round.
    // A traced run alternates untraced and traced repetitions, so their
    // difference is the tracing overhead.
    let mut round = 0usize;
    loop {
        let mut any = false;
        for (w, out) in workers.iter_mut().zip(&mut outcomes) {
            if w.measured_s >= seconds && w.reps.len() >= MIN_REPS {
                continue;
            }
            any = true;
            let traced = trace && round % 2 == 1;
            let words = w
                .ask(if traced { "rep traced" } else { "rep" })?
                .pop()
                .ok_or("child sent no repetition record")?;
            let (wall_s, ops) = (num(&words, 1)?, num(&words, 3)? as u64);
            w.reps.push(RepRecord {
                wall_s,
                cpu_s: num(&words, 2)?,
                ops,
                traced,
            });
            w.measured_s += wall_s;
            if !traced {
                let parts: Vec<f64> = (5..words.len())
                    .map(|i| num(&words, i))
                    .collect::<Result<_, _>>()?;
                if w.best_parts.len() != parts.len() {
                    w.best_parts = vec![f64::INFINITY; parts.len()];
                }
                for (best, part) in w.best_parts.iter_mut().zip(parts) {
                    *best = best.min(part);
                }
            }
            out.attempted += ops;
            out.failed += num(&words, 4)? as u64;
        }
        if !any {
            break;
        }
        round += 1;
    }
    for (w, out) in workers.iter_mut().zip(&mut outcomes) {
        let mut layer = Vec::new();
        let mut peak_rss_mb = 0.0;
        for words in w.ask("finish")? {
            match words.first().map(String::as_str) {
                Some("metric") => layer.push(Metric::new(&words[1], &words[2], num(&words, 3)?)),
                Some("peak_rss_mb") => peak_rss_mb = num(&words, 1)?,
                _ => {}
            }
        }
        let status = w.child.wait().map_err(|e| format!("{}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("{}: child exited with {status}", w.name));
        }
        let per_op = |traced: bool, of: fn(&RepRecord) -> f64| -> Vec<f64> {
            w.reps
                .iter()
                .filter(|r| r.traced == traced)
                .map(|r| of(r) / r.ops as f64)
                .collect()
        };
        let plain = summary(&per_op(false, |r| r.wall_s));
        if trace {
            let traced = summary(&per_op(true, |r| r.wall_s));
            layer.extend([
                Metric::new("proc.cpu_s", "s", summary(&per_op(false, |r| r.cpu_s)).min),
                Metric::new("report_median_s", "s", plain.median),
                Metric::new("report_iqr_s", "s", plain.iqr()),
                Metric::new(
                    "trace.overhead_pct",
                    "%",
                    (traced.min / plain.min - 1.0) * 100.0,
                ),
            ]);
            out.metrics = layer;
        } else {
            let ops = w.reps.first().map_or(1, |r| r.ops) as f64;
            let report_s = w.best_parts.iter().sum::<f64>() / ops;
            out.metrics = vec![
                Metric::new("report_s", "s", report_s),
                Metric::new("peak_rss_mb", "MB", peak_rss_mb),
                Metric::new("setup_s", "s", w.setup_s),
            ];
            eprintln!(
                "{}: report_s {report_s:.6} from {} parts; whole repetitions: min {:.6} q1 {:.6} \
                 median {:.6} q3 {:.6} of {}",
                w.name,
                w.best_parts.len(),
                plain.min,
                plain.q1,
                plain.median,
                plain.q3,
                w.reps.len()
            );
        }
    }
    Ok(outcomes)
}
