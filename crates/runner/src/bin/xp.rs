//! `xp` — the experiment CLI of the PowerTCP reproduction.
//!
//! ```text
//! xp list                         # built-in scenarios
//! xp show <name>                  # print a built-in spec as TOML
//! xp run <spec.toml | name>       # execute a sweep or trace scenario
//!        [--threads N]            # worker threads (default: all cores)
//!        [--procs N]              # worker processes (default 1 = in-process)
//!        [--cache]                # content-addressed result cache (.xp-cache)
//!        [--cache-dir DIR]        # cache somewhere else (implies --cache)
//!        [--json FILE | -]        # write JSON results (- = stdout)
//!        [--csv FILE | -]         # write CSV results (- = stdout)
//!        [--meta FILE | -]        # write JSON run metadata (spans, counters)
//!        [--progress]             # live done/total (cached k) · ETA on stderr
//!        [--log-json FILE]        # NDJSON span stream (one record per point)
//!        [--seeds a,b,c]          # override the spec's seed grid
//!        [--timeout-secs N]       # wall-clock budget per --procs worker
//! xp serve                        # results daemon: HTTP job queue + dashboards
//!        [--addr HOST:PORT]       # bind address (default 127.0.0.1:8080)
//!        [--workers N]            # job worker threads (default 2)
//!        [--threads N]            # executor threads per job (default: all cores)
//!        [--cache-dir DIR]        # shared result cache (default .xp-cache)
//!        [--no-cache]             # run jobs without the result cache
//!        [--queue-cap N]          # queued-job bound, 503 beyond (default 64)
//! xp diff <a.json> <b.json>       # compare two JSON reports
//! xp diff <a.csv> <b.csv>         # ... or two CSV reports, cell-wise
//! xp diff <dirA> <dirB>           # ... or two report directories (*.json
//!        [--tol X]                #     and *.csv), paired by file name;
//!                                 #     one aggregate exit code
//! xp cache stat [--cache-dir DIR] # entry count and size of the result cache
//!        [--json]                 #     as an NDJSON record with per-engine counts
//! xp cache clear [--cache-dir DIR]# delete every cache entry
//! xp bench                        # count events on (and time) the hot paths
//!        [--runs N]               # timed repetitions per case (default 5)
//!        [--json FILE | -]        # write BENCH_sim.json-style report
//!        [--check]                # compare each case's event count with
//!        [--baseline FILE]        #     BENCH_sim.json exactly; exit 1 on any change
//! xp lint                         # salt coverage, offline deps, lint inheritance
//!        [--json]                 #     NDJSON violation records
//!        [--root DIR]             #     workspace root (default: ascend from cwd)
//! xp worker                       # internal: one shard of an `xp run --procs`
//! ```
//!
//! Results are deterministic: the same spec produces byte-identical JSON
//! at any `--threads` / `--procs` value and any cache state — run
//! metadata (cache hits/misses, process count) is surfaced on stderr and
//! through `--meta`, never embedded in the byte-pinned reports.
//! Regression comparison across PRs is `xp run fig8 --json new.json &&
//! xp diff baseline.json new.json`; a directory of baselines compares in
//! one shot with `xp diff baselines/ fresh/ --tol 0`.

use dcn_runner::{diff_dirs, worker_main, ResultCache, RunConfig};
use dcn_scenarios::{
    bench_check, bench_table, bench_to_json, builtin, builtin_specs, diff_csv, diff_reports,
    run_bench, EngineKind, ScenarioKind, ScenarioSpec,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  xp list\n  xp show <name>\n  xp run <spec.toml | name> \
         [--threads N] [--procs N] [--cache] [--cache-dir DIR]\n           \
         [--json FILE|-] [--csv FILE|-] [--meta FILE|-]\n           \
         [--progress] [--log-json FILE] [--seeds a,b,c] [--timeout-secs N]\n  \
         xp serve [--addr HOST:PORT] [--workers N] [--threads N]\n           \
         [--cache-dir DIR] [--no-cache] [--queue-cap N]\n  \
         xp diff <a.json|dirA> <b.json|dirB> [--tol X]\n  \
         xp cache <stat|clear> [--cache-dir DIR] [--json]\n  \
         xp bench [--runs N] [--json FILE|-] [--check] [--baseline FILE]\n  \
         xp lint [--json] [--root DIR]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("show") => match args.get(1) {
            Some(name) => show(name),
            None => usage(),
        },
        Some("run") => run(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("diff") => diff(&args[1..]),
        Some("cache") => cache_cmd(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("lint") => ExitCode::from(dcn_lint::cli_main(&args[1..])),
        Some("worker") => worker(),
        _ => usage(),
    }
}

/// `xp worker`: internal mode spawned by `xp run --procs N`. Reads a
/// shard manifest on stdin, writes outcome lines on stdout.
fn worker() -> ExitCode {
    match worker_main(&mut std::io::stdin().lock(), &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `xp bench [--runs N] [--json FILE|-] [--check] [--baseline FILE]`:
/// run the simulator hot paths, print their event counts and timings,
/// and optionally write the JSON report (`BENCH_sim.json`) and/or gate
/// against the committed one — `--check` exits nonzero when any case's
/// event count differs from the baseline's. The counts are
/// deterministic, so the gate reads the same on every machine; timings
/// are printed, never compared.
fn bench(args: &[String]) -> ExitCode {
    let mut runs = 5usize;
    let mut json = None;
    let mut check = false;
    let mut baseline = String::from("BENCH_sim.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--baseline" => {
                i += 1;
                match args.get(i) {
                    Some(v) => baseline = v.clone(),
                    None => {
                        eprintln!("error: --baseline needs a value");
                        return usage();
                    }
                }
            }
            "--runs" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => runs = n,
                    _ => {
                        eprintln!("error: --runs expects a positive integer");
                        return usage();
                    }
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(v) => json = Some(v.clone()),
                    None => {
                        eprintln!("error: --json needs a value");
                        return usage();
                    }
                }
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                return usage();
            }
        }
        i += 1;
    }
    eprintln!("running simulator hot paths ({runs} run(s) per case)...");
    let cases = run_bench(runs);
    eprint!("{}", bench_table(&cases));
    if let Some(dest) = json {
        if let Err(e) = emit("JSON", &dest, &bench_to_json(&cases, runs)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if check {
        let base = match std::fs::read_to_string(&baseline) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: reading baseline {baseline}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let res = match bench_check(&cases, &base) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: baseline {baseline}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for line in &res.lines {
            eprintln!("check: {line}");
        }
        if !res.failures.is_empty() {
            eprintln!(
                "bench check FAILED: {} case(s) differ from {baseline}; if the change is \
                 intended, re-pin with `xp bench --json {baseline}`",
                res.failures.len()
            );
            return ExitCode::FAILURE;
        }
        eprintln!("bench check passed: event counts match {baseline}");
    }
    ExitCode::SUCCESS
}

/// Engine column of `xp list`: the execution kind, with sweeps split by
/// the engine that runs their points (packet simulator vs flow-level).
fn engine_label(spec: &ScenarioSpec) -> &'static str {
    match &spec.kind {
        ScenarioKind::Sweep(sweep) => sweep.engine.key(),
        other => other.key(),
    }
}

fn list() -> ExitCode {
    println!("built-in scenarios (run with `xp run <name>`):\n");
    for spec in builtin_specs() {
        println!(
            "  {:<18} {:>4} points  {:<10} {}",
            spec.name,
            spec.num_points(),
            engine_label(&spec),
            spec.description
        );
    }
    println!("\ncustom scenarios: `xp show <name> > my.toml`, edit, `xp run my.toml`");
    ExitCode::SUCCESS
}

/// The one stderr path for human annotations that accompany machine
/// output: every note is a `# `-prefixed comment line, so even a
/// careless `2>&1` capture still parses as commented TOML/NDJSON.
fn note(msg: &str) {
    eprintln!("# {msg}");
}

fn show(name: &str) -> ExitCode {
    match builtin(name) {
        Some(spec) => {
            // Notes go to stderr so stdout stays valid, pipeable TOML
            // (pinned by the cli_contract integration test).
            note(&format!("{}: {} scenario", spec.name, engine_label(&spec)));
            print!("{}", spec.to_toml());
            ExitCode::SUCCESS
        }
        None => {
            note(&format!(
                "unknown scenario {name:?}; `xp list` shows the library"
            ));
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    target: String,
    cfg: RunConfig,
    json: Option<String>,
    csv: Option<String>,
    meta: Option<String>,
    seeds: Option<Vec<u64>>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut target = None;
    let mut cfg = RunConfig {
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        ..RunConfig::default()
    };
    let mut cache = false;
    let mut cache_dir: Option<PathBuf> = None;
    let mut json = None;
    let mut csv = None;
    let mut meta = None;
    let mut seeds = None;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--threads" => {
                cfg.threads = take(&mut i)?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_string())?;
                if cfg.threads == 0 {
                    return Err("--threads expects a positive integer".into());
                }
            }
            "--procs" => {
                cfg.procs = take(&mut i)?
                    .parse()
                    .map_err(|_| "--procs expects a positive integer".to_string())?;
                if cfg.procs == 0 {
                    return Err("--procs expects a positive integer".into());
                }
            }
            "--cache" => cache = true,
            "--cache-dir" => {
                cache = true;
                cache_dir = Some(PathBuf::from(take(&mut i)?));
            }
            "--json" => json = Some(take(&mut i)?),
            "--csv" => csv = Some(take(&mut i)?),
            "--meta" => meta = Some(take(&mut i)?),
            "--progress" => cfg.progress = true,
            "--log-json" => cfg.log_json = Some(PathBuf::from(take(&mut i)?)),
            "--timeout-secs" => {
                let secs = take(&mut i)?
                    .parse::<u64>()
                    .map_err(|_| "--timeout-secs expects a positive integer".to_string())?;
                if secs == 0 {
                    return Err("--timeout-secs expects a positive integer".into());
                }
                cfg.timeout_secs = Some(secs);
            }
            "--seeds" => {
                let list = take(&mut i)?;
                let parsed: Result<Vec<u64>, _> =
                    list.split(',').map(|s| s.trim().parse::<u64>()).collect();
                seeds = Some(parsed.map_err(|_| {
                    "--seeds expects a comma-separated list of non-negative integers".to_string()
                })?);
            }
            other if target.is_none() && !other.starts_with("--") => {
                target = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if cache {
        cfg.cache_dir = Some(cache_dir.unwrap_or_else(|| PathBuf::from(ResultCache::DEFAULT_DIR)));
    }
    Ok(RunArgs {
        target: target.ok_or("missing spec file or scenario name")?,
        cfg,
        json,
        csv,
        meta,
        seeds,
    })
}

fn load_spec(target: &str) -> Result<ScenarioSpec, String> {
    if Path::new(target).exists() {
        let src =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        ScenarioSpec::from_toml(&src).map_err(|e| format!("{target}: {e}"))
    } else {
        builtin(target).ok_or_else(|| {
            format!("{target:?} is neither a file nor a built-in scenario (`xp list`)")
        })
    }
}

fn emit(kind: &str, dest: &str, content: &str) -> Result<(), String> {
    if dest == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(dest, content).map_err(|e| format!("cannot write {kind} {dest}: {e}"))?;
        eprintln!("wrote {kind} to {dest}");
        Ok(())
    }
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_run_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let mut spec = match load_spec(&parsed.target) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(seeds) = &parsed.seeds {
        match spec.lineup_mut() {
            Ok((_, mine)) => mine.clone_from(seeds),
            Err(e) => {
                eprintln!("error: --seeds: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "running {} scenario {:?}: {} {} on {}...",
        match &spec.kind {
            ScenarioKind::Analytic(_) => "analytic",
            ScenarioKind::Timeseries(_) => "trace",
            ScenarioKind::Sweep(sweep) if sweep.engine == EngineKind::Flow => "flow sweep",
            ScenarioKind::Sweep(_) => "sweep",
        },
        spec.name,
        spec.num_points(),
        if matches!(spec.kind, ScenarioKind::Sweep(_)) {
            "points"
        } else {
            "entries"
        },
        if parsed.cfg.procs > 1 {
            format!("{} process(es)", parsed.cfg.procs)
        } else {
            format!("{} thread(s)", parsed.cfg.threads)
        }
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "stderr \"done in\" timing, never in report bytes"
    )]
    let t0 = std::time::Instant::now();
    let (result, stats) = match dcn_runner::run(&spec, &parsed.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &stats.summary {
        // The roll-up renders through the same SummaryRecord the
        // --log-json stream writes, so the two views cannot drift.
        Some(sum) => eprintln!("{}", sum.table_row()),
        None => eprintln!("done in {:.2?}", t0.elapsed()),
    }
    if let Some(why) = &stats.fallback {
        eprintln!("note: fell back to in-process threads ({why})");
    }
    if let Some(dir) = &parsed.cfg.cache_dir {
        eprintln!(
            "cache: {} hit(s), {} miss(es) in {}",
            stats.cache_hits,
            stats.cache_misses,
            dir.display()
        );
    }

    println!("{}", result.table());
    for (kind, dest, content) in [
        ("JSON", &parsed.json, result.to_json()),
        ("CSV", &parsed.csv, result.to_csv()),
        (
            "meta",
            &parsed.meta,
            dcn_runner::meta_json(
                &spec,
                parsed.cfg.threads,
                parsed.cfg.cache_dir.is_some(),
                &stats,
            ),
        ),
    ] {
        if let Some(dest) = dest {
            if let Err(e) = emit(kind, dest, &content) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `xp serve [--addr A] [--workers N] [--threads N] [--cache-dir DIR]
/// [--no-cache] [--queue-cap N]`: the long-running results daemon.
/// Submissions dedup through the shared result cache; reports served
/// over HTTP are byte-identical to `xp run` output for the same spec.
fn serve(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut workers = 2usize;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut cache_dir = Some(PathBuf::from(ResultCache::DEFAULT_DIR));
    let mut queue_cap = 64usize;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        let positive = |v: Result<String, String>, flag: &str| -> Result<usize, String> {
            match v?.parse::<usize>() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("{flag} expects a positive integer")),
            }
        };
        let step = match args[i].as_str() {
            "--addr" => take(&mut i).map(|v| addr = v),
            "--workers" => positive(take(&mut i), "--workers").map(|n| workers = n),
            "--threads" => positive(take(&mut i), "--threads").map(|n| threads = n),
            "--queue-cap" => positive(take(&mut i), "--queue-cap").map(|n| queue_cap = n),
            "--cache-dir" => take(&mut i).map(|v| cache_dir = Some(PathBuf::from(v))),
            "--no-cache" => {
                cache_dir = None;
                Ok(())
            }
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = step {
            eprintln!("error: {e}");
            return usage();
        }
        i += 1;
    }
    let cfg = dcn_serve::ServeConfig {
        workers,
        queue_cap,
        run: dcn_runner::serve_run_fn(cache_dir.clone(), threads),
        cache_stat: cache_dir.clone().map(dcn_runner::serve_stat_fn),
    };
    let server = match dcn_serve::Server::bind(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    note(&format!(
        "xp serve listening on http://{} ({} worker(s), {} thread(s)/job, cache {})",
        server.local_addr(),
        workers,
        threads,
        match &cache_dir {
            Some(dir) => dir.display().to_string(),
            None => "off".into(),
        }
    ));
    note("POST /jobs takes a TOML spec; GET / is the dashboard; POST /shutdown drains");
    match server.serve() {
        Ok(()) => {
            note("xp serve drained and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `xp cache stat|clear [--cache-dir DIR] [--json]`.
fn cache_cmd(args: &[String]) -> ExitCode {
    let mut dir = PathBuf::from(ResultCache::DEFAULT_DIR);
    let mut action = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(v) => dir = PathBuf::from(v),
                    None => {
                        eprintln!("error: --cache-dir needs a value");
                        return usage();
                    }
                }
            }
            "--json" => json = true,
            a @ ("stat" | "clear") if action.is_none() => action = Some(a.to_string()),
            other => {
                eprintln!("error: unknown argument {other:?}");
                return usage();
            }
        }
        i += 1;
    }
    let cache = ResultCache::new(&dir);
    match action.as_deref() {
        Some("stat") if json => {
            // One NDJSON record in the span-record grammar family, for
            // the serve daemon and CI; the human text path is unchanged.
            println!("{}", cache.stat_detailed().to_ndjson());
            ExitCode::SUCCESS
        }
        Some("stat") => {
            let s = cache.stat();
            println!(
                "{}: {} entr{}, {} bytes",
                dir.display(),
                s.entries,
                if s.entries == 1 { "y" } else { "ies" },
                s.bytes
            );
            ExitCode::SUCCESS
        }
        Some("clear") => match cache.clear() {
            Ok(n) => {
                eprintln!("removed {n} cache entr{}", if n == 1 { "y" } else { "ies" });
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}

/// `xp diff a b [--tol X]`: two report files, or two directories of
/// reports paired by file name. Exit 0 when everything matches within
/// the relative tolerance, 1 on drift, 2 on usage/IO errors.
fn diff(args: &[String]) -> ExitCode {
    let mut files: Vec<&String> = Vec::new();
    let mut tol = 0.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tol" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("error: --tol needs a value");
                    return usage();
                };
                tol = match v.parse::<f64>() {
                    Ok(t) if t >= 0.0 && t.is_finite() => t,
                    _ => {
                        eprintln!("error: --tol expects a non-negative number");
                        return usage();
                    }
                };
            }
            other if !other.starts_with("--") => files.push(&args[i]),
            other => {
                eprintln!("error: unknown argument {other:?}");
                return usage();
            }
        }
        i += 1;
    }
    let [a, b] = files.as_slice() else {
        eprintln!("error: diff takes exactly two report files or directories");
        return usage();
    };
    let (pa, pb) = (Path::new(a.as_str()), Path::new(b.as_str()));
    match (pa.is_dir(), pb.is_dir()) {
        (true, true) => diff_dir_pair(pa, pb, tol),
        (false, false) => diff_file_pair(a, b, tol),
        _ => {
            eprintln!("error: cannot diff a directory against a file");
            ExitCode::from(2)
        }
    }
}

fn diff_dir_pair(a: &Path, b: &Path, tol: f64) -> ExitCode {
    let outcome = match diff_dirs(a, b, tol) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for file in &outcome.files {
        if file.differences.is_empty() {
            eprintln!("  {}: ok ({} values)", file.name, file.compared);
        } else {
            for line in &file.differences {
                println!("{}: {line}", file.name);
            }
        }
    }
    if outcome.is_match() {
        eprintln!(
            "directories match: {} file(s), {} values compared (tol {tol:e})",
            outcome.files.len(),
            outcome.compared()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "directories DIFFER: {}/{} file(s) drifted (tol {tol:e})",
            outcome.mismatched(),
            outcome.files.len()
        );
        ExitCode::FAILURE
    }
}

fn diff_file_pair(a: &str, b: &str, tol: f64) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (sa, sb) = match (read(a), read(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // CSV reports diff cell-wise; everything else parses as JSON. Mixed
    // extensions make no sense to compare.
    let (csv_a, csv_b) = (a.ends_with(".csv"), b.ends_with(".csv"));
    if csv_a != csv_b {
        eprintln!("error: cannot diff a CSV report against a JSON report");
        return ExitCode::from(2);
    }
    let diff = if csv_a { diff_csv } else { diff_reports };
    match diff(&sa, &sb, tol) {
        Ok(d) if d.is_match() => {
            eprintln!(
                "reports match: {} values compared (tol {tol:e})",
                d.compared
            );
            ExitCode::SUCCESS
        }
        Ok(d) => {
            for line in &d.differences {
                println!("{line}");
            }
            if d.truncated {
                println!("... (more differences suppressed)");
            }
            eprintln!(
                "reports DIFFER: {} difference(s) shown, {} values compared (tol {tol:e})",
                d.differences.len(),
                d.compared
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
