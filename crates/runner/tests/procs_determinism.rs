//! Determinism contract of the multi-process runner, driven through the
//! real `xp` binary: `--procs N` output is byte-identical for N ∈
//! {1, 2, 4}, with and without a (cold, warm or half-warm) result cache,
//! for every scenario kind.

use std::path::{Path, PathBuf};
use std::process::Command;

const XP: &str = env!("CARGO_BIN_EXE_xp");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-procs-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `xp run` with the given extra args; returns (json, csv) bytes.
fn run(scenario: &str, dir: &Path, tag: &str, extra: &[&str]) -> (String, String) {
    let json = dir.join(format!("{tag}.json"));
    let csv = dir.join(format!("{tag}.csv"));
    let status = Command::new(XP)
        .arg("run")
        .arg(scenario)
        .args([
            "--json",
            json.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ])
        .args(extra)
        .output()
        .expect("spawn xp");
    assert!(
        status.status.success(),
        "xp run {scenario} {extra:?} failed:\n{}",
        String::from_utf8_lossy(&status.stderr)
    );
    (
        std::fs::read_to_string(json).unwrap(),
        std::fs::read_to_string(csv).unwrap(),
    )
}

#[test]
fn sweep_is_byte_identical_across_process_counts() {
    let dir = scratch("sweep");
    let (j1, c1) = run("fig6-small", &dir, "p1", &["--procs", "1"]);
    let (j2, c2) = run("fig6-small", &dir, "p2", &["--procs", "2"]);
    let (j4, c4) = run("fig6-small", &dir, "p4", &["--procs", "4"]);
    let (jt, ct) = run("fig6-small", &dir, "threads", &["--threads", "4"]);
    assert_eq!(j1, j2, "JSON differs between --procs 1 and 2");
    assert_eq!(j1, j4, "JSON differs between --procs 1 and 4");
    assert_eq!(j1, jt, "JSON differs between processes and threads");
    assert_eq!(c1, c2);
    assert_eq!(c1, c4);
    assert_eq!(c1, ct);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_is_byte_identical_across_process_counts_and_cache_states() {
    let dir = scratch("trace");
    let cache = dir.join("cache");
    let cache_arg = cache.to_str().unwrap();
    let (base, _) = run("fig5", &dir, "base", &["--threads", "4"]);
    // Cold cache, sharded across processes.
    let (cold, _) = run(
        "fig5",
        &dir,
        "cold",
        &["--procs", "2", "--cache-dir", cache_arg],
    );
    // Warm cache, different process count.
    let (warm, _) = run(
        "fig5",
        &dir,
        "warm",
        &["--procs", "4", "--cache-dir", cache_arg],
    );
    // Warm cache, in-process.
    let (warm_inproc, _) = run("fig5", &dir, "warm2", &["--cache-dir", cache_arg]);
    assert_eq!(base, cold, "procs+cold-cache must not move a byte");
    assert_eq!(base, warm, "warm cache must not move a byte");
    assert_eq!(base, warm_inproc);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analytic_grid_is_byte_identical_across_process_counts_and_cache_states() {
    let dir = scratch("analytic");
    let cache = dir.join("cache");
    let cache_arg = cache.to_str().unwrap();
    let (base, base_csv) = run("fig3", &dir, "base", &["--threads", "4"]);
    let (p1, c1) = run("fig3", &dir, "p1", &["--procs", "1"]);
    // Cold cache, sharded across worker processes.
    let (cold, _) = run(
        "fig3",
        &dir,
        "cold",
        &["--procs", "2", "--cache-dir", cache_arg],
    );
    // Warm cache, in-process.
    let (warm, warm_csv) = run("fig3", &dir, "warm", &["--cache-dir", cache_arg]);
    assert_eq!(base, p1);
    assert_eq!(base, cold, "analytic procs+cold-cache must not move a byte");
    assert_eq!(base, warm, "analytic warm cache must not move a byte");
    assert_eq!(base_csv, c1);
    assert_eq!(base_csv, warm_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_reports_full_hits_through_the_cli() {
    let dir = scratch("meta");
    let cache = dir.join("cache");
    let meta = dir.join("meta.json");
    let run_meta = || {
        let out = Command::new(XP)
            .args([
                "run",
                "fig6-small",
                "--cache-dir",
                cache.to_str().unwrap(),
                "--meta",
                meta.to_str().unwrap(),
            ])
            .output()
            .expect("spawn xp");
        assert!(out.status.success());
        std::fs::read_to_string(&meta).unwrap()
    };
    let cold = run_meta();
    assert!(cold.contains("\"cache_hits\": 0"), "{cold}");
    assert!(cold.contains("\"cache_misses\": 2"), "{cold}");
    let warm = run_meta();
    assert!(warm.contains("\"cache_hits\": 2"), "{warm}");
    assert!(warm.contains("\"cache_misses\": 0"), "{warm}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `ablations` computes its 14 points as two lane batches (γ and β̂
/// integrate the power law together, η the queue-length law). With every
/// other cache entry deleted, each batch mixes hits and misses: the hits
/// must be served, the misses computed together and stored, and the
/// report must not move a byte — in process at 1 and 4 threads, and
/// across 2 worker processes, one batch to each.
#[test]
fn a_half_warm_cache_serves_its_hits_and_computes_the_rest_of_a_batch() {
    use dcn_runner::{item_key, run, RunConfig};
    use dcn_scenarios::{builtin, work_items, CacheStatus};

    let dir = scratch("half-warm");
    let cache = dir.join("cache");
    let spec = builtin("ablations").unwrap();
    let items = work_items(&spec);
    assert_eq!(items.len(), 14);
    let (plain, _) = run(&spec, &RunConfig::default()).unwrap();
    let (plain_json, plain_csv) = (plain.to_json(), plain.to_csv());
    let cached = |threads: usize, procs: usize| RunConfig {
        threads,
        procs,
        cache_dir: Some(cache.clone()),
        worker_exe: Some(PathBuf::from(XP)),
        log_json: Some(dir.join("log.ndjson")),
        ..RunConfig::default()
    };
    let (filled, stats) = run(&spec, &cached(1, 1)).unwrap();
    assert_eq!(filled.to_json(), plain_json);
    assert_eq!(stats.cache_misses, 14);
    for (threads, procs) in [(1, 1), (4, 1), (1, 2)] {
        let what = format!("--threads {threads} --procs {procs}");
        // Delete the entries of the even points; the odd ones stay warm.
        for item in items.iter().step_by(2) {
            let file = cache.join(item_key(&spec, item).file_name());
            std::fs::remove_file(&file).unwrap_or_else(|e| panic!("{what}: {file:?}: {e}"));
        }
        let (out, stats) = run(&spec, &cached(threads, procs)).unwrap();
        assert_eq!(stats.fallback, None, "{what}");
        assert_eq!(out.to_json(), plain_json, "{what}");
        assert_eq!(out.to_csv(), plain_csv, "{what}");
        assert_eq!((stats.cache_hits, stats.cache_misses), (7, 7), "{what}");
        let spans: Vec<(usize, String, CacheStatus)> = stats
            .spans
            .iter()
            .map(|s| (s.index, s.label.clone(), s.cache))
            .collect();
        let want: Vec<(usize, String, CacheStatus)> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let cache = if i % 2 == 0 {
                    CacheStatus::Miss
                } else {
                    CacheStatus::Hit
                };
                (i, item.label(), cache)
            })
            .collect();
        assert_eq!(spans, want, "{what}");
        // The log holds one span per point and the summary. In process
        // at one thread it is written in index order.
        let log = std::fs::read_to_string(dir.join("log.ndjson")).unwrap();
        let logged: Vec<&str> = log.lines().filter(|l| l.contains("\"span\"")).collect();
        assert_eq!(logged.len(), 14, "{what}");
        if (threads, procs) == (1, 1) {
            for (i, line) in logged.iter().enumerate() {
                assert!(line.contains(&format!("\"index\":{i},")), "{what}: {line}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--procs` shards whole batches: at `--procs 2` each of `ablations`'
/// two lane batches goes to one worker, which integrates it in one call,
/// so every point of a batch carries one shard id — and the report is
/// `--threads 1`'s, byte for byte.
#[test]
fn procs_shard_whole_lane_batches() {
    use dcn_runner::{run, RunConfig};
    use dcn_scenarios::{batches, builtin, work_items};

    let spec = builtin("ablations").unwrap();
    let runs = batches(&spec, &work_items(&spec));
    assert_eq!(runs.len(), 2);
    let (plain, _) = run(&spec, &RunConfig::default()).unwrap();
    let cfg = RunConfig {
        procs: 2,
        worker_exe: Some(PathBuf::from(XP)),
        ..RunConfig::default()
    };
    let (out, stats) = run(&spec, &cfg).unwrap();
    assert_eq!(stats.fallback, None);
    assert_eq!(out.to_json(), plain.to_json());
    assert_eq!(out.to_csv(), plain.to_csv());
    let shard_of: Vec<Vec<Option<usize>>> = runs
        .into_iter()
        .map(|run| {
            let mut ids: Vec<Option<usize>> = stats.spans[run].iter().map(|s| s.shard).collect();
            ids.dedup();
            ids
        })
        .collect();
    assert_eq!(shard_of, [[Some(0)], [Some(1)]]);
}
