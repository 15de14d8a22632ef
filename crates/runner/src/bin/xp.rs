//! `xp` — the experiment CLI of the PowerTCP reproduction. Its
//! subcommands and flags are the rows of [`dcn_runner::cli::XP`]; run
//! `xp` with no arguments (or read README "CLI reference") for the text
//! rendered from them.
//!
//! Results are deterministic: the same spec produces byte-identical JSON
//! at any thread or process count and any cache state — run metadata
//! (cache hits/misses, process count) is surfaced on stderr and through
//! the meta sidecar, never embedded in the byte-pinned reports.
//! A report is pinned with `cmp baseline.json new.json`; when that
//! fails, `xp diff baseline.json new.json` names the JSON paths that
//! moved (or, when only the format moved, the first differing byte).

use dcn_runner::cli::{self, Parsed};
use dcn_runner::{worker_main, ResultCache, RunConfig};
use dcn_scenarios::{builtin, builtin_specs, diff_reports, EngineKind, ScenarioKind, ScenarioSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every stdout write of `xp`: `out!`/`outln!` are `print!`/`println!`
/// through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => { write_out(format_args!($($arg)*)) };
}
macro_rules! outln {
    ($($arg:tt)*) => { write_out(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Write to stdout. A reader that closed the pipe early (`xp list | head
/// -3`) has read all it asked for, so that ends `xp` quietly, as a
/// success; any other failure to write is an error.
fn write_out(text: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = cli::parse(&args).and_then(|p| match p.command.name {
        "list" => Ok(list()),
        "show" => Ok(show(p.positional(0))),
        "run" => run(&p),
        "serve" => Ok(serve(&p)),
        "diff" => Ok(diff(&p)),
        "cache stat" => Ok(cache_stat(&p)),
        "cache clear" => Ok(cache_clear(&p)),
        "worker" => Ok(worker()),
        row => unreachable!("xp {row} is a table row without a handler"),
    });
    done.unwrap_or_else(|e| {
        eprint!("error: {e}\n{}", cli::usage());
        ExitCode::from(2)
    })
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

fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn default_cache_dir() -> PathBuf {
    PathBuf::from(ResultCache::DEFAULT_DIR)
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
    outln!("built-in scenarios (run with `xp run <name>`):\n");
    for spec in builtin_specs() {
        outln!(
            "  {:<18} {:>4} points  {:<10} {}",
            spec.name,
            spec.num_points(),
            engine_label(&spec),
            spec.description
        );
    }
    outln!("\ncustom scenarios: `xp show <name> > my.toml`, edit, `xp run my.toml`");
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
            out!("{}", spec.to_toml());
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

fn load_spec(target: &str) -> Result<ScenarioSpec, String> {
    if Path::new(target).is_file() {
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
        out!("{content}");
        Ok(())
    } else {
        std::fs::write(dest, content).map_err(|e| format!("cannot write {kind} {dest}: {e}"))?;
        eprintln!("wrote {kind} to {dest}");
        Ok(())
    }
}

/// The documents a run can write: label, and the flag naming where to.
const DOCUMENTS: [(&str, &str); 3] = [("JSON", "--json"), ("CSV", "--csv"), ("meta", "--meta")];

/// `xp run`. `Err` is the one usage error the table cannot express: two
/// documents sent to stdout.
fn run(p: &Parsed) -> Result<ExitCode, String> {
    let piped: Vec<&str> = DOCUMENTS
        .iter()
        .filter(|(_, flag)| p.text(flag) == Some("-"))
        .map(|(_, flag)| *flag)
        .collect();
    if piped.len() > 1 {
        return Err(format!(
            "only one of {} can be `-` (stdout)",
            piped.join(", ")
        ));
    }
    let cfg = RunConfig {
        threads: p.positive("--threads").unwrap_or_else(all_cores),
        procs: p.positive("--procs").unwrap_or(1),
        cache_dir: p
            .path("--cache-dir")
            .or_else(|| p.switch("--cache").then(default_cache_dir)),
        progress: p.switch("--progress"),
        log_json: p.path("--log-json"),
        timeout_secs: p.positive("--timeout-secs").map(|n| n as u64),
        ..RunConfig::default()
    };
    Ok(match execute(p, &cfg, !piped.is_empty()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    })
}

/// Load, run and write. With a document on stdout the table goes to
/// stderr, so stdout is that document and nothing else.
fn execute(p: &Parsed, cfg: &RunConfig, stdout_is_a_document: bool) -> Result<(), String> {
    let mut spec = load_spec(p.positional(0))?;
    let flag = "--seeds";
    if let Some(seeds) = p.u64_list(flag) {
        *spec.seeds_mut().map_err(|e| format!("{flag}: {e}"))? = seeds.to_vec();
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
        if cfg.procs > 1 {
            format!("{} process(es)", cfg.procs)
        } else {
            format!("{} thread(s)", cfg.threads)
        }
    );
    let (result, stats) = dcn_runner::run(&spec, cfg)?;
    if let Some(sum) = &stats.summary {
        // The roll-up renders through the same SummaryRecord the
        // --log-json stream writes, so the two views cannot drift.
        eprintln!("{}", sum.table_row());
    }
    if let Some(why) = &stats.fallback {
        eprintln!("note: fell back to in-process threads ({why})");
    }
    if let Some(dir) = &cfg.cache_dir {
        eprintln!(
            "cache: {} hit(s), {} miss(es) in {}",
            stats.cache_hits,
            stats.cache_misses,
            dir.display()
        );
    }

    if stdout_is_a_document {
        eprintln!("{}", result.table());
    } else {
        outln!("{}", result.table());
    }
    let render: [&dyn Fn() -> String; 3] = [&|| result.to_json(), &|| result.to_csv(), &|| {
        dcn_runner::meta_json(&spec, cfg.threads, cfg.cache_dir.is_some(), &stats)
    }];
    for ((kind, flag), render) in DOCUMENTS.iter().zip(render) {
        if let Some(dest) = p.text(flag) {
            emit(kind, dest, &render())?;
        }
    }
    Ok(())
}

/// `xp serve`: the long-running results daemon. Submissions dedup
/// through the shared result cache; reports served over HTTP are
/// byte-identical to `xp run` output for the same spec.
fn serve(p: &Parsed) -> ExitCode {
    let addr = p.text("--addr").unwrap_or("127.0.0.1:8080");
    let workers = p.positive("--workers").unwrap_or(2);
    let threads = p.positive("--threads").unwrap_or_else(all_cores);
    let queue_cap = p.positive("--queue-cap").unwrap_or(64);
    let cache_dir =
        (!p.switch("--no-cache")).then(|| p.path("--cache-dir").unwrap_or_else(default_cache_dir));
    let cfg = dcn_serve::ServeConfig {
        workers,
        queue_cap,
        run: dcn_runner::serve_run_fn(cache_dir.clone(), threads),
        cache_stat: cache_dir.clone().map(dcn_runner::serve_stat_fn),
    };
    let server = match dcn_serve::Server::bind(addr, cfg) {
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
    note("POST /jobs takes a TOML spec; GET /jobs lists them; POST /shutdown drains");
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

fn cache_of(p: &Parsed) -> ResultCache {
    ResultCache::new(p.path("--cache-dir").unwrap_or_else(default_cache_dir))
}

fn cache_stat(p: &Parsed) -> ExitCode {
    let cache = cache_of(p);
    if p.switch("--json") {
        // One NDJSON record in the span-record grammar family, for
        // the serve daemon and CI; the human text path is unchanged.
        outln!("{}", cache.stat_detailed().to_ndjson());
    } else {
        let s = cache.stat();
        outln!(
            "{}: {} entr{}, {} bytes",
            cache.dir().display(),
            s.entries,
            if s.entries == 1 { "y" } else { "ies" },
            s.bytes
        );
    }
    ExitCode::SUCCESS
}

fn cache_clear(p: &Parsed) -> ExitCode {
    match cache_of(p).clear() {
        Ok(n) => {
            eprintln!("removed {n} cache entr{}", if n == 1 { "y" } else { "ies" });
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `xp diff`: where two JSON reports differ. The byte pin is `cmp`;
/// this names the JSON paths behind a failing one, or, when every value
/// and token kind matches, the line and column of the first byte that
/// differs. Exit 0 when the files are equal, 1 on drift, 2 when an
/// operand cannot be read or parsed as JSON.
fn diff(p: &Parsed) -> ExitCode {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let outcome = read(p.positional(0))
        .and_then(|a| read(p.positional(1)).map(|b| (a, b)))
        .and_then(|(a, b)| Ok((diff_reports(&a, &b, 0.0)?, first_difference(&a, &b))));
    match outcome {
        Ok((d, None)) if d.is_match() => {
            eprintln!("reports match: {} values compared", d.compared);
            ExitCode::SUCCESS
        }
        Ok((d, Some((line, column)))) if d.is_match() => {
            outln!("{line}:{column}: the bytes differ");
            eprintln!(
                "reports DIFFER in format only: {} values compared, all equal",
                d.compared
            );
            ExitCode::FAILURE
        }
        Ok((d, _)) => {
            for line in &d.differences {
                outln!("{line}");
            }
            if d.truncated {
                outln!("... (more differences suppressed)");
            }
            eprintln!(
                "reports DIFFER: {} difference(s) shown, {} values compared",
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

/// The 1-based line and byte column of the first byte where `a` and `b`
/// differ (`None` when they are equal).
fn first_difference(a: &str, b: &str) -> Option<(usize, usize)> {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let at = a.iter().zip(b).position(|(x, y)| x != y);
    let at = at.or((a.len() != b.len()).then(|| a.len().min(b.len())))?;
    let line_start = a[..at]
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |i| i + 1);
    let line = 1 + a[..at].iter().filter(|&&c| c == b'\n').count();
    Some((line, at - line_start + 1))
}
