//! Observability never moves a report byte, driven through the real
//! `xp` binary: fig6-small with `--progress --log-json` produces the
//! same JSON/CSV bytes as a bare run, the NDJSON stream is well-formed
//! line by line (checked with the repo's own hand-rolled parser), spans
//! equal points, and the cache disposition flips miss→hit between a
//! cold and a warm run.

use dcn_scenarios::diff::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

const XP: &str = env!("CARGO_BIN_EXE_xp");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-obs-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(dir: &Path, tag: &str, extra: &[&str]) -> String {
    let json = dir.join(format!("{tag}.json"));
    let out = Command::new(XP)
        .args(["run", "fig6-small", "--json", json.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("spawn xp");
    assert!(
        out.status.success(),
        "xp run {extra:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(json).unwrap()
}

/// Parse an NDJSON log: every line must parse; returns (span objects,
/// summary object).
fn parse_ndjson(path: &Path) -> (Vec<Json>, Json) {
    let text = std::fs::read_to_string(path).unwrap();
    let mut spans = Vec::new();
    let mut summary = None;
    for line in text.lines() {
        let record = parse_json(line).expect("NDJSON line parses");
        match record.field("record", Json::as_str).expect(line) {
            "span" => spans.push(record),
            "summary" => {
                assert!(summary.is_none(), "exactly one summary record");
                summary = Some(record);
            }
            other => panic!("unknown record kind {other:?}"),
        }
    }
    // Span lines land in completion order; normalize to index order for
    // the assertions.
    spans.sort_by_key(|s| s.field("index", Json::as_usize).expect("span index"));
    (spans, summary.expect("summary record present, last"))
}

#[test]
fn observed_run_is_byte_identical_and_streams_wellformed_ndjson() {
    let dir = scratch("bytes");
    let cache = dir.join("cache");
    let cache_arg = cache.to_str().unwrap();
    let log_cold = dir.join("cold.ndjson");
    let log_warm = dir.join("warm.ndjson");

    // Bare run: no observability at all.
    let bare = run(&dir, "bare", &[]);
    // Cold cached run with the full observability surface on.
    let cold = run(
        &dir,
        "cold",
        &[
            "--progress",
            "--log-json",
            log_cold.to_str().unwrap(),
            "--cache-dir",
            cache_arg,
        ],
    );
    // Warm run: all hits, observability still on.
    let warm = run(
        &dir,
        "warm",
        &[
            "--progress",
            "--log-json",
            log_warm.to_str().unwrap(),
            "--cache-dir",
            cache_arg,
        ],
    );
    assert_eq!(bare, cold, "--progress/--log-json must not move a byte");
    assert_eq!(bare, warm, "a warm observed run must not move a byte");

    // fig6-small has 2 points: 2 spans + 1 summary per log.
    let (cold_spans, cold_sum) = parse_ndjson(&log_cold);
    let (warm_spans, warm_sum) = parse_ndjson(&log_warm);
    assert_eq!(cold_spans.len(), 2, "spans == points");
    assert_eq!(warm_spans.len(), 2);
    assert_eq!(cold_sum.field("points", Json::as_usize), Ok(2));
    assert_eq!(warm_sum.field("cached", Json::as_usize), Ok(2));
    for s in &cold_spans {
        assert_eq!(s.field("cache", Json::as_str), Ok("miss"));
        assert!(
            matches!(s.get("sim"), Some(Json::Obj(_))),
            "computed spans carry engine counters"
        );
    }
    for s in &warm_spans {
        assert_eq!(s.field("cache", Json::as_str), Ok("hit"));
        assert_eq!(
            s.get("sim"),
            Some(&Json::Null),
            "hits never ran a simulator"
        );
    }
    // Spans land in index order and carry the sweep labels.
    let label = cold_spans[0].field("label", Json::as_str).unwrap();
    assert!(label.contains("seed"), "{label}");
    assert_eq!(cold_spans[0].field("index", Json::as_usize), Ok(0));
    assert_eq!(cold_spans[1].field("index", Json::as_usize), Ok(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_run_tags_spans_with_their_shard() {
    let dir = scratch("shards");
    let log = dir.join("procs.ndjson");
    let bare = run(&dir, "bare", &[]);
    let sharded = run(
        &dir,
        "procs",
        &["--procs", "2", "--log-json", log.to_str().unwrap()],
    );
    assert_eq!(bare, sharded, "sharded observed run must not move a byte");
    let (spans, sum) = parse_ndjson(&log);
    assert_eq!(spans.len(), 2);
    // Round-robin over 2 procs: point 0 on shard 0, point 1 on shard 1.
    assert_eq!(spans[0].field("shard", Json::as_usize), Ok(0));
    assert_eq!(spans[1].field("shard", Json::as_usize), Ok(1));
    assert!(
        sum.field("events_per_sec", Json::as_f64).unwrap() > 0.0,
        "summary tracks engine throughput"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn meta_sidecar_carries_versioned_span_rollup() {
    let dir = scratch("meta");
    let meta = dir.join("meta.json");
    let out = Command::new(XP)
        .args(["run", "fig6-small", "--meta", meta.to_str().unwrap()])
        .output()
        .expect("spawn xp");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&meta).unwrap();
    let meta = parse_json(&text).expect("meta parses");
    assert_eq!(
        meta.field("meta_version", Json::as_u64),
        Ok(u64::from(dcn_runner::META_VERSION))
    );
    assert_eq!(meta.field("spans", Json::as_arr).map(<[Json]>::len), Ok(2));
    assert!(matches!(meta.get("drops"), Some(Json::Obj(_))));
    assert!(matches!(meta.get("pool"), Some(Json::Obj(_))));
    assert!(meta.field("events_per_sec", Json::as_f64).is_ok());
    // The one full-stack event count pinned at tier-1 (it was `xp bench`'s
    // fig6_small_sweep case): a change that moves it moved the simulation.
    assert_eq!(meta.field("events", Json::as_u64), Ok(1_581_127));
    let _ = std::fs::remove_dir_all(&dir);
}
