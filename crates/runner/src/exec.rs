//! The runner execution layer: cache-aware in-process execution and
//! multi-process sharded execution.
//!
//! Both paths preserve the determinism contract end to end: outcomes
//! are keyed and merged by work-item index (never completion order),
//! cached payloads are bit-exact, and the reduction to reports is the
//! same [`reduce`] the in-process executor uses — so the report bytes
//! are identical at any `--threads` / `--procs` value and any cache
//! state. Observability (per-point spans, the `--progress` line, the
//! `--log-json` stream) rides alongside through a
//! [`crate::obs::RunObserver`] and never feeds the report path.

use crate::cache::ResultCache;
use crate::key::SpecKeys;
use crate::obs::RunObserver;
use crate::worker;
use dcn_scenarios::{
    compute, reduce, run_scenario_observed, work_items, CacheStatus, Outcome, PointObs,
    PointSource, ScenarioOutput, ScenarioSpec, SpanRecord, SummaryRecord, WorkItem,
};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to execute a scenario.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// In-process worker threads (used when `procs <= 1`, and by the
    /// fallback path when worker processes cannot be spawned).
    pub threads: usize,
    /// Worker processes; `<= 1` means in-process execution.
    pub procs: usize,
    /// Result-cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Binary to spawn in worker mode (defaults to the current
    /// executable, which is correct when the caller *is* `xp`).
    pub worker_exe: Option<PathBuf>,
    /// Redraw a `done/total (cached k) · ETA` line on stderr as points
    /// complete.
    pub progress: bool,
    /// Stream one NDJSON span record per point (plus a final summary
    /// record) to this file.
    pub log_json: Option<PathBuf>,
    /// Wall-clock budget per worker process; a worker still running
    /// this long after its spawn is killed and the run falls back
    /// in-process with the usual `shard K/N` context note (`None`
    /// disables the watchdog).
    pub timeout_secs: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 1,
            procs: 1,
            cache_dir: None,
            worker_exe: None,
            progress: false,
            log_json: None,
            timeout_secs: None,
        }
    }
}

/// What a run did, beyond its report: the run metadata surfaced by
/// `xp run` (stderr summary, the `--meta` sidecar, the `--log-json`
/// stream) — deliberately *not* embedded in the result report, whose
/// bytes are pinned across cache states and process counts.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Points / lineup entries executed.
    pub points: usize,
    /// Points served from the cache.
    pub cache_hits: u64,
    /// Points computed (and stored, when caching is on).
    pub cache_misses: u64,
    /// Worker processes actually used (1 = in-process).
    pub procs: usize,
    /// Why multi-process execution fell back to in-process threads, if
    /// it did.
    pub fallback: Option<String>,
    /// One span per point, in index order.
    pub spans: Vec<SpanRecord>,
    /// The run roll-up (wall clock, cached count, event totals).
    pub summary: Option<SummaryRecord>,
}

/// A [`PointSource`] that consults a [`ResultCache`] before computing,
/// and stores every computed outcome back. It serves the one spec it was
/// built for, whose key preamble it derives once ([`SpecKeys`]).
pub struct CachingSource<'a> {
    cache: Option<(ResultCache, SpecKeys<'a>)>,
}

impl<'a> CachingSource<'a> {
    /// A source for `spec`'s work items backed by `cache` (`None` =
    /// always compute).
    pub fn new(cache: Option<ResultCache>, spec: &'a ScenarioSpec) -> Self {
        CachingSource {
            cache: cache.map(|c| (c, SpecKeys::new(spec))),
        }
    }
}

impl PointSource for CachingSource<'_> {
    fn produce(&self, spec: &ScenarioSpec, item: &WorkItem) -> (Outcome, PointObs) {
        let keyed = self.cache.as_ref().map(|(c, keys)| {
            debug_assert!(keys.spec() == spec, "a CachingSource serves one spec");
            (c, keys.item(item))
        });
        if let Some((cache, key)) = &keyed {
            // A payload of the other outcome kind is a miss like any
            // other invalid entry: recompute and overwrite.
            if let Some(hit) = cache.load(key).filter(|o| item.accepts(o)) {
                // Hits carry no stats: no simulator ran.
                let cache = CacheStatus::Hit;
                return (hit, PointObs { cache, stats: None });
            }
        }
        let (outcome, stats) = compute(spec, item);
        let cache = match &keyed {
            Some((cache, key)) => {
                // Best-effort store: an unwritable cache degrades to
                // recompute, it does not fail the run.
                let _ = cache.store(key, &outcome);
                CacheStatus::Miss
            }
            None => CacheStatus::Computed,
        };
        (outcome, PointObs { cache, stats })
    }
}

/// Execute `spec` per `cfg`: multi-process when `procs > 1` (falling
/// back cleanly to in-process threads if workers cannot run), in-process
/// threads otherwise, with the result cache consulted either way.
pub fn run(spec: &ScenarioSpec, cfg: &RunConfig) -> Result<(ScenarioOutput, RunStats), String> {
    spec.validate()?;
    if cfg.procs > 1 {
        match run_procs(spec, cfg) {
            Ok(done) => return Ok(done),
            Err(why) => {
                // Clean fallback: same points, same merge, in-process.
                // With the cache on, any outcome a worker managed to
                // store is reused rather than recomputed. A fresh
                // observer (inside run_inproc) re-truncates the NDJSON
                // log, so it holds only the attempt that produced the
                // report.
                let (out, mut stats) = run_inproc(spec, cfg, cfg.threads.max(cfg.procs))?;
                stats.fallback = Some(why);
                return Ok((out, stats));
            }
        }
    }
    run_inproc(spec, cfg, cfg.threads)
}

fn run_inproc(
    spec: &ScenarioSpec,
    cfg: &RunConfig,
    threads: usize,
) -> Result<(ScenarioOutput, RunStats), String> {
    let source = CachingSource::new(cfg.cache_dir.as_ref().map(ResultCache::new), spec);
    let obs = RunObserver::new(spec.num_points(), cfg.progress, cfg.log_json.as_deref())?;
    let output = run_scenario_observed(spec, threads.max(1), &source, &obs)?;
    Ok((output, run_stats(spec, obs, 1)))
}

/// Close out a run attempt: the span table, its summary, and the
/// hit/miss counts — a span is a hit or it is not, so the counters are
/// read off the table rather than kept beside it.
fn run_stats(spec: &ScenarioSpec, obs: RunObserver, procs: usize) -> RunStats {
    let (spans, summary) = obs.finish(&spec.name, spec.kind.key());
    RunStats {
        points: spans.len(),
        cache_hits: summary.cached as u64,
        cache_misses: (spans.len() - summary.cached) as u64,
        procs,
        fallback: None,
        spans,
        summary: Some(summary),
    }
}

/// Multi-process execution: shard work-item indices round-robin over
/// `xp worker` children, stream their outcome lines back, and merge by
/// index. Workers ship per-point wall clocks and engine counters along
/// with each outcome; the parent replays them as shard-tagged spans
/// through the same observer the in-process path uses. Any worker
/// failure aborts to the caller (with `shard K/N (points ...)` context,
/// which becomes the fallback note), and the caller falls back to
/// in-process execution.
fn run_procs(spec: &ScenarioSpec, cfg: &RunConfig) -> Result<(ScenarioOutput, RunStats), String> {
    let exe = match &cfg.worker_exe {
        Some(path) => path.clone(),
        None => std::env::current_exe().map_err(|e| format!("cannot locate worker binary: {e}"))?,
    };
    let items = work_items(spec);
    let n = items.len();
    let procs = cfg.procs.clamp(1, n.max(1));
    let spec_toml = spec.to_toml();
    // Open the observer (and its log file) before the first spawn: a bad
    // `--log-json` path must fail with no worker started.
    let obs = RunObserver::new(n, cfg.progress, cfg.log_json.as_deref())?;

    // Round-robin sharding keeps shards balanced when point cost varies
    // monotonically along the expansion (e.g. rising loads).
    let shards: Vec<Vec<usize>> = (0..procs)
        .map(|w| (w..n).step_by(procs).collect())
        .collect();

    // (shard id, owned indices, child, deadline) — the id and indices
    // give every failure message (and the fallback note) its shard
    // context; the deadline is the worker's wall-clock budget, counted
    // from its own spawn.
    let mut children: Vec<(usize, &[usize], Child, Option<Instant>)> = Vec::new();
    let reap = |children: &mut Vec<(usize, &[usize], Child, Option<Instant>)>| {
        for (_, _, c, _) in children.iter_mut() {
            let _ = c.kill();
            let _ = c.wait();
        }
    };
    for (w, shard) in shards.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
        let mut child = match Command::new(&exe)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
        {
            Ok(child) => child,
            Err(e) => {
                // Reap anything that did start before falling back.
                reap(&mut children);
                return Err(format!("cannot spawn {}: {e}", exe.display()));
            }
        };
        let manifest = worker::manifest_json(&spec_toml, shard, cfg.cache_dir.as_deref(), w, procs);
        if let Err(e) = child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(manifest.as_bytes())
        {
            let _ = child.kill();
            let _ = child.wait();
            reap(&mut children);
            return Err(format!(
                "shard {w}/{procs} (points {}): cannot write worker manifest: {e}",
                worker::fmt_indices(shard)
            ));
        }
        // Dropping stdin closes the pipe; the worker sees EOF.
        let deadline = cfg
            .timeout_secs
            .map(|s| clock_now() + Duration::from_secs(s));
        children.push((w, shard, child, deadline));
    }

    let mut slots: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
    // Consume children one at a time; on any error, reap the rest before
    // returning so the fallback path does not race still-running workers
    // (and nothing is left a zombie).
    while let Some((w, shard, child, deadline)) = children.pop() {
        let merged = wait_worker(child, deadline).and_then(|out| {
            if !out.status.success() {
                return Err(format!("worker exited with {}", out.status));
            }
            let text = String::from_utf8(out.stdout)
                .map_err(|_| "worker emitted non-UTF-8 output".to_string())?;
            merge_shard(&text, shard, &mut slots, |r| {
                // Replay the worker's observability sidecar as a
                // shard-tagged span. Cache semantics mirror the worker's
                // CachingSource: hit / miss with a cache, computed without.
                obs.record(SpanRecord {
                    index: r.index,
                    label: items[r.index].label(),
                    cache: if r.cached {
                        CacheStatus::Hit
                    } else if cfg.cache_dir.is_some() {
                        CacheStatus::Miss
                    } else {
                        CacheStatus::Computed
                    },
                    shard: Some(w),
                    wall_ms: r.wall_ms,
                    stats: r.sim,
                });
            })
        });
        if let Err(why) = merged {
            reap(&mut children);
            return Err(format!(
                "shard {w}/{procs} (points {}): {why}",
                worker::fmt_indices(shard)
            ));
        }
    }
    // Order-stable merge: slots are already in expansion order, and
    // every shard was checked complete.
    let outcomes = slots
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or("a worker dropped a point")?;
    let output = reduce(spec, outcomes)?;
    Ok((output, run_stats(spec, obs, procs)))
}

/// Merge one worker's stdout (its result lines) into the index-ordered
/// `slots`, calling `on_result` per accepted line. Worker output is
/// outside input: a line for an index the shard does not own or has
/// already returned is rejected rather than overwriting a slot, and the
/// shard must return every index it owns.
fn merge_shard(
    text: &str,
    shard: &[usize],
    slots: &mut [Option<Outcome>],
    mut on_result: impl FnMut(&worker::WorkerResult),
) -> Result<(), String> {
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let r = worker::parse_result_line(line)?;
        if !shard.contains(&r.index) {
            return Err(format!("worker returned point {} it does not own", r.index));
        }
        if slots[r.index].is_some() {
            return Err(format!("worker returned point {} twice", r.index));
        }
        on_result(&r);
        slots[r.index] = Some(r.outcome);
    }
    match shard.iter().find(|i| slots[**i].is_none()) {
        Some(missing) => Err(format!("worker dropped point {missing}")),
        None => Ok(()),
    }
}

/// Wait for a worker, enforcing its wall-clock deadline. Without a
/// deadline this is `wait_with_output`; with one, the worker's stdout is
/// drained on a side thread (a chatty worker must not deadlock on a full
/// pipe while we poll) and a worker still running at its deadline is
/// killed — the resulting "timed out" error gets its shard context from
/// `run_procs` and lands in the in-process fallback note.
fn wait_worker(
    mut child: Child,
    deadline: Option<Instant>,
) -> Result<std::process::Output, String> {
    let Some(deadline) = deadline else {
        return child
            .wait_with_output()
            .map_err(|e| format!("worker I/O failed: {e}"));
    };
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = std::io::Read::read_to_end(&mut stdout, &mut buf);
        buf
    });
    loop {
        match child.try_wait() {
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                // Don't join the reader: a grandchild the kill didn't
                // reach can hold the pipe open indefinitely, and the
                // output is discarded on this path anyway.
                drop(reader);
                return Err(format!("worker I/O failed: {e}"));
            }
            Ok(Some(status)) => {
                let stdout = reader.join().unwrap_or_default();
                return Ok(std::process::Output {
                    status,
                    stdout,
                    stderr: Vec::new(),
                });
            }
            Ok(None) => {
                if clock_now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    // As above: never block on a pipe an orphaned
                    // grandchild may still hold open.
                    drop(reader);
                    return Err("worker timed out; killed".into());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// The worker watchdog's clock. Wall-clock here gates only *whether a
/// worker is killed* — and a killed worker means fallback, whose output
/// is byte-identical by the determinism contract — so report bytes never
/// depend on it.
fn clock_now() -> Instant {
    #[expect(
        clippy::disallowed_methods,
        reason = "worker timeout watchdog — scheduling only, never report bytes"
    )]
    Instant::now()
}

/// The production [`dcn_serve::RunFn`]: every daemon job executes
/// through a fresh [`CachingSource`] over the shared cache directory, so
/// concurrent submissions dedup work through the content-addressed
/// store, and spans flow straight into the job's event log.
pub fn serve_run_fn(cache_dir: Option<PathBuf>, threads: usize) -> dcn_serve::RunFn {
    Arc::new(move |spec, obs| {
        let source = CachingSource::new(cache_dir.as_ref().map(ResultCache::new), spec);
        run_scenario_observed(spec, threads.max(1), &source, obs)
    })
}

/// The production [`dcn_serve::StatFn`]: the daemon's `GET /cache`
/// serves exactly the `xp cache stat --json` record.
pub fn serve_stat_fn(cache_dir: PathBuf) -> dcn_serve::StatFn {
    Arc::new(move || ResultCache::new(&cache_dir).stat_detailed().to_ndjson())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::item_key;
    use dcn_scenarios::builtin;
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xp-exec-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn json_of(out: &ScenarioOutput) -> String {
        out.to_json()
    }

    #[test]
    fn cold_then_warm_cache_is_byte_identical_with_full_hits() {
        let dir = tmp_dir("warm");
        let spec = builtin("fig6-small").unwrap();
        let cfg = RunConfig {
            threads: 2,
            cache_dir: Some(dir.clone()),
            ..RunConfig::default()
        };
        let (cold, cold_stats) = run(&spec, &cfg).unwrap();
        assert_eq!(cold_stats.cache_hits, 0);
        assert_eq!(cold_stats.cache_misses, cold_stats.points as u64);
        // Cold points are misses with real engine counters attached.
        assert_eq!(cold_stats.spans.len(), cold_stats.points);
        assert!(cold_stats
            .spans
            .iter()
            .all(|s| s.cache == CacheStatus::Miss
                && s.stats.is_some_and(|st| st.events_processed > 0)));
        let (warm, warm_stats) = run(&spec, &cfg).unwrap();
        assert_eq!(warm_stats.cache_hits, warm_stats.points as u64);
        assert_eq!(warm_stats.cache_misses, 0);
        // Warm spans are hits with no stats: no simulator ran.
        assert!(warm_stats
            .spans
            .iter()
            .all(|s| s.cache == CacheStatus::Hit && s.stats.is_none()));
        let summary = warm_stats.summary.as_ref().unwrap();
        assert_eq!(summary.cached, warm_stats.points);
        assert_eq!(summary.events, 0);
        assert_eq!(json_of(&cold), json_of(&warm));
        assert_eq!(cold.to_csv(), warm.to_csv());
        // And identical to an uncached run.
        let (plain, plain_stats) = run(&spec, &RunConfig::default()).unwrap();
        assert_eq!(json_of(&plain), json_of(&cold));
        assert!(plain_stats
            .spans
            .iter()
            .all(|s| s.cache == CacheStatus::Computed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unspawnable_worker_falls_back_to_threads() {
        let spec = builtin("fig6-small").unwrap();
        let cfg = RunConfig {
            procs: 3,
            worker_exe: Some(Path::new("/nonexistent/xp-worker-binary").to_path_buf()),
            ..RunConfig::default()
        };
        let (out, stats) = run(&spec, &cfg).unwrap();
        assert!(stats.fallback.is_some(), "must report the fallback");
        // The fallback attempt still produces a full span table.
        assert_eq!(stats.spans.len(), stats.points);
        let (plain, _) = run(&spec, &RunConfig::default()).unwrap();
        assert_eq!(json_of(&out), json_of(&plain));
    }

    #[test]
    fn cached_payload_of_the_other_kind_is_a_miss_and_heals() {
        let dir = tmp_dir("kind");
        let spec = builtin("fig6-small").unwrap();
        let cfg = RunConfig {
            cache_dir: Some(dir.clone()),
            ..RunConfig::default()
        };
        let (cold, _) = run(&spec, &cfg).unwrap();
        // Point 0's file now holds a well-formed entry whose canon is
        // point 0's but whose payload is a trace outcome.
        let key = item_key(&spec, &work_items(&spec)[0]);
        let trace = builtin("fig2").unwrap();
        let (foreign, _) = compute(&trace, &work_items(&trace)[0]);
        let cache = ResultCache::new(&dir);
        cache.store(&key, &foreign).unwrap();
        assert_eq!(cache.load(&key), Some(foreign), "the entry itself is valid");

        let (redone, stats) = run(&spec, &cfg).unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.spans[0].cache, CacheStatus::Miss);
        assert!(stats.spans[0].stats.is_some(), "point 0 was recomputed");
        assert_eq!(json_of(&redone), json_of(&cold));
        // The recompute overwrote the foreign payload.
        let (_, healed) = run(&spec, &cfg).unwrap();
        assert_eq!(healed.cache_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Merge `text` as the output of a shard owning points 0 and 2;
    /// returns the verdict and how many lines were accepted.
    fn merge_as_shard_0_2(text: &str) -> (Result<(), String>, usize) {
        let mut slots = vec![None; 3];
        let mut accepted = 0;
        let verdict = merge_shard(text, &[0, 2], &mut slots, |_| accepted += 1);
        (verdict, accepted)
    }

    #[test]
    fn worker_lines_outside_the_shard_are_rejected_not_merged() {
        let spec = builtin("theorems").unwrap();
        let items = work_items(&spec);
        assert_eq!(items.len(), 3);
        let line = |i: usize| {
            let (outcome, _) = compute(&spec, &items[i]);
            worker::result_line(i, true, 1.0, None, &outcome)
        };
        assert_eq!(merge_as_shard_0_2(&(line(0) + &line(2))), (Ok(()), 2));

        // Another shard's index: rejected before it can fill a slot or
        // count as a hit.
        let (verdict, accepted) = merge_as_shard_0_2(&(line(0) + &line(1) + &line(2)));
        assert_eq!(
            verdict.unwrap_err(),
            "worker returned point 1 it does not own"
        );
        assert_eq!(accepted, 1);
        // An index past the expansion is the same error, not a panic.
        let far = line(0).replace("\"index\": 0", "\"index\": 99");
        let (verdict, _) = merge_as_shard_0_2(&far);
        assert_eq!(
            verdict.unwrap_err(),
            "worker returned point 99 it does not own"
        );

        // An index past `usize` is refused by the reader: `as usize` used
        // to wrap 2^64 to 0 and merge the line as point 0.
        let wrapped = line(0).replace("\"index\": 0", "\"index\": 18446744073709551616");
        let (verdict, accepted) = merge_as_shard_0_2(&wrapped);
        assert!(verdict.unwrap_err().contains("\"index\""));
        assert_eq!(accepted, 0);

        // A repeated index: the second copy is rejected, not double-counted.
        let (verdict, accepted) = merge_as_shard_0_2(&(line(0) + &line(0) + &line(2)));
        assert_eq!(verdict.unwrap_err(), "worker returned point 0 twice");
        assert_eq!(accepted, 1);

        // And a shard must still return everything it owns.
        let (verdict, _) = merge_as_shard_0_2(&line(0));
        assert_eq!(verdict.unwrap_err(), "worker dropped point 2");
    }

    #[cfg(unix)]
    #[test]
    fn bad_log_path_fails_before_any_worker_is_spawned() {
        use std::os::unix::fs::PermissionsExt;
        let dir = tmp_dir("badlog");
        std::fs::create_dir_all(&dir).unwrap();
        // A stand-in worker that leaves a mark if it is ever started.
        let marker = dir.join("spawned");
        let exe = dir.join("worker.sh");
        std::fs::write(&exe, format!("#!/bin/sh\n: > '{}'\n", marker.display())).unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
        let cfg = RunConfig {
            procs: 2,
            worker_exe: Some(exe),
            log_json: Some(dir.join("no-such-dir").join("run.ndjson")),
            ..RunConfig::default()
        };
        let err = run(&builtin("fig6-small").unwrap(), &cfg).unwrap_err();
        assert!(err.contains("--log-json"), "got: {err}");
        assert!(!marker.exists(), "no worker may start before the log opens");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ndjson_log_rides_along_without_touching_the_report() {
        let dir = tmp_dir("ndjson");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = builtin("fig6-small").unwrap();
        let log = dir.join("run.ndjson");
        let cfg = RunConfig {
            threads: 2,
            log_json: Some(log.clone()),
            ..RunConfig::default()
        };
        let (logged, _) = run(&spec, &cfg).unwrap();
        let (plain, _) = run(&spec, &RunConfig::default()).unwrap();
        assert_eq!(json_of(&logged), json_of(&plain), "log must not perturb");
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), spec.num_points() + 1, "spans + summary");
        for line in &lines {
            dcn_scenarios::json::parse_json(line).expect("well-formed NDJSON");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
