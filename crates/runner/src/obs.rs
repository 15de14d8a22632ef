//! Run-wide observability for the runner: the [`RunObserver`] behind
//! `xp run --progress` / `--log-json`, and the versioned `--meta`
//! sidecar renderer.
//!
//! The observer receives one [`SpanRecord`] per completed point from
//! whichever execution path ran it — the in-process executors report
//! through the `dcn_scenarios::Observer` trait, the multi-process
//! parent replays the spans its workers shipped over the result
//! protocol — and fans each span out to:
//!
//! * the `--log-json` NDJSON stream (one span record per line, one
//!   summary record at the end),
//! * the `--progress` stderr line (`done/total (cached k) · ETA ..s`,
//!   redrawn in place),
//! * the in-memory span table that [`RunObserver::finish`] rolls up
//!   into a [`SummaryRecord`] and the `--meta` sidecar.
//!
//! None of this touches the byte-pinned report path: spans are derived
//! from outcome sidecars and wall clocks, and reports are identical
//! with observation on or off.

use crate::exec::RunStats;
use dcn_scenarios::{eta, CacheStatus, Observer, ScenarioSpec, SpanRecord, SummaryRecord};
use dcn_sim::SimStats;
use dcn_telemetry::jstr;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Version of the `--meta` sidecar schema. Bump when keys change shape
/// or meaning so downstream consumers can dispatch.
pub const META_VERSION: u32 = 1;

struct Inner {
    spans: Vec<SpanRecord>,
    cached: usize,
    log: Option<File>,
}

/// Collects spans from a run and drives the `--progress` line and the
/// `--log-json` NDJSON stream. One observer per run attempt: the
/// multi-process fallback path builds a fresh one so a failed attempt
/// cannot double-count (and the log file holds only the run that
/// succeeded).
pub struct RunObserver {
    total: usize,
    progress: bool,
    t0: Instant,
    inner: Mutex<Inner>,
}

impl RunObserver {
    /// An observer for a run of `total` points. `log_json` opens (and
    /// truncates) the NDJSON sink eagerly so a bad path fails the run
    /// up front, not after minutes of compute.
    pub fn new(total: usize, progress: bool, log_json: Option<&Path>) -> Result<Self, String> {
        let log = match log_json {
            Some(path) => Some(
                File::create(path)
                    .map_err(|e| format!("cannot write --log-json {}: {e}", path.display()))?,
            ),
            None => None,
        };
        Ok(RunObserver {
            total,
            progress,
            #[expect(
                clippy::disallowed_methods,
                reason = "run wall-clock for progress lines and the --meta roll-up, never report bytes"
            )]
            t0: Instant::now(),
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(total),
                cached: 0,
                log,
            }),
        })
    }

    /// Record one completed span: append to the NDJSON stream, redraw
    /// the progress line, remember it for the roll-up. Shared by the
    /// `Observer` impl (in-process runs) and the multi-process parent
    /// (which replays worker-shipped spans).
    pub fn record(&self, span: SpanRecord) {
        let mut inner = self.inner.lock().expect("observer poisoned");
        if let Some(log) = &mut inner.log {
            let _ = writeln!(log, "{}", span.to_json());
        }
        if span.cache == CacheStatus::Hit {
            inner.cached += 1;
        }
        inner.spans.push(span);
        if self.progress {
            let done = inner.spans.len();
            let secs_left = eta(self.t0.elapsed().as_secs_f64(), done, self.total);
            eprint!(
                "\r{}/{} ({} cached) · ETA {:.1}s ",
                done,
                self.total,
                inner.cached,
                secs_left.unwrap_or(0.0)
            );
            if done >= self.total {
                eprintln!();
            }
        }
    }

    /// Close out the run: sort spans into index order, derive the
    /// [`SummaryRecord`] (total wall clock, cached count, summed event
    /// counts), and append the summary record to the NDJSON stream.
    pub fn finish(self, name: &str, kind: &str) -> (Vec<SpanRecord>, SummaryRecord) {
        let inner = self.inner.into_inner().expect("observer poisoned");
        let mut spans = inner.spans;
        if self.progress && spans.len() < self.total {
            eprintln!();
        }
        spans.sort_by_key(|s| s.index);
        let mut summary = SummaryRecord::new(name, kind);
        spans.iter().for_each(|span| summary.add(span));
        summary.wall_ms = self.t0.elapsed().as_secs_f64() * 1e3;
        if let Some(mut log) = inner.log {
            let _ = writeln!(log, "{}", summary.to_json());
            let _ = log.flush();
        }
        (spans, summary)
    }
}

impl Observer for RunObserver {
    fn span(&self, span: &SpanRecord) {
        self.record(span.clone());
    }
}

/// Sum a [`SimStats`] field over every span that carried stats.
fn sum_stats(stats: &RunStats, f: impl Fn(&SimStats) -> u64) -> u64 {
    stats
        .spans
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .map(&f)
        .sum()
}

/// The `--meta` sidecar: run metadata as JSON, versioned under
/// [`META_VERSION`]. Kept *outside* the result reports so a cold and a
/// warm cache run (or 1 vs 8 procs) still write byte-identical report
/// files — this is where the non-deterministic numbers (wall clock,
/// events/sec, per-span timings) live.
pub fn meta_json(
    spec: &ScenarioSpec,
    threads: usize,
    cache_enabled: bool,
    stats: &RunStats,
) -> String {
    let (wall_ms, events, eps) = match &stats.summary {
        Some(s) => (s.wall_ms, s.events, s.events_per_sec()),
        None => (0.0, 0, 0.0),
    };
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"meta_version\": {META_VERSION},\n"));
    s.push_str(&format!("  \"scenario\": {},\n", jstr(&spec.name)));
    s.push_str(&format!("  \"kind\": \"{}\",\n", spec.kind.key()));
    s.push_str(&format!("  \"points\": {},\n", stats.points));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"procs\": {},\n", stats.procs));
    s.push_str(&format!("  \"cache_enabled\": {cache_enabled},\n"));
    s.push_str(&format!("  \"cache_hits\": {},\n", stats.cache_hits));
    s.push_str(&format!("  \"cache_misses\": {},\n", stats.cache_misses));
    s.push_str(&format!(
        "  \"fallback\": {},\n",
        match &stats.fallback {
            Some(why) => jstr(why),
            None => "null".into(),
        }
    ));
    s.push_str(&format!(
        "  \"engine_version\": {},\n",
        dcn_sim::ENGINE_VERSION
    ));
    s.push_str(&format!("  \"key_format\": {},\n", crate::KEY_FORMAT));
    s.push_str(&format!("  \"wall_ms\": {wall_ms:.3},\n"));
    s.push_str(&format!("  \"events\": {events},\n"));
    s.push_str(&format!("  \"events_per_sec\": {eps:.1},\n"));
    s.push_str(&format!(
        "  \"drops\": {{\"no_route\": {}, \"buffer\": {}, \"custom\": {}, \"pfc_frames\": {}}},\n",
        sum_stats(stats, |s| s.drops_no_route),
        sum_stats(stats, |s| s.drops_buffer),
        sum_stats(stats, |s| s.drops_custom),
        sum_stats(stats, |s| s.pfc_frames),
    ));
    s.push_str(&format!(
        "  \"pool\": {{\"fresh\": {}, \"reused\": {}}},\n",
        sum_stats(stats, |s| s.pool_fresh),
        sum_stats(stats, |s| s.pool_reused),
    ));
    s.push_str("  \"spans\": [\n");
    for (i, span) in stats.spans.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&span.to_json());
        s.push_str(if i + 1 == stats.spans.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_scenarios::builtin;
    use dcn_scenarios::json::{parse_json, Json};

    fn stats_with_spans() -> RunStats {
        let sim = SimStats {
            events_processed: 100,
            events_scheduled: 120,
            overflow_scheduled: 1,
            batched_visits: 6,
            batched_events: 8,
            delivered: 40,
            forwarded: 80,
            drops_no_route: 1,
            drops_buffer: 2,
            drops_custom: 3,
            pfc_frames: 4,
            pool_fresh: 5,
            pool_reused: 95,
            wall_ms: 10.0,
        };
        RunStats {
            points: 2,
            cache_hits: 1,
            cache_misses: 1,
            procs: 1,
            fallback: None,
            spans: vec![
                SpanRecord {
                    index: 0,
                    label: "powertcp/load0.60/seed1".into(),
                    cache: CacheStatus::Miss,
                    shard: None,
                    wall_ms: 10.0,
                    stats: Some(sim),
                },
                SpanRecord {
                    index: 1,
                    label: "powertcp/load0.80/seed1".into(),
                    cache: CacheStatus::Hit,
                    shard: None,
                    wall_ms: 0.1,
                    stats: None,
                },
            ],
            summary: Some(SummaryRecord {
                name: "fig6-small".into(),
                kind: "sweep".into(),
                points: 2,
                cached: 1,
                wall_ms: 20.0,
                events: 100,
            }),
        }
    }

    #[test]
    fn meta_sidecar_has_the_versioned_schema_shape() {
        let spec = builtin("fig6-small").unwrap();
        let meta = meta_json(&spec, 2, true, &stats_with_spans());
        let Json::Obj(members) = parse_json(&meta).expect("valid JSON") else {
            panic!("meta must be an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "meta_version",
                "scenario",
                "kind",
                "points",
                "threads",
                "procs",
                "cache_enabled",
                "cache_hits",
                "cache_misses",
                "fallback",
                "engine_version",
                "key_format",
                "wall_ms",
                "events",
                "events_per_sec",
                "drops",
                "pool",
                "spans",
            ]
        );
        assert_eq!(members[0].1, Json::Int(META_VERSION as i128));
        // Aggregates come from the spans that carried stats.
        let drops = members.iter().find(|(k, _)| k == "drops").unwrap();
        let Json::Obj(d) = &drops.1 else {
            panic!("drops object")
        };
        assert_eq!(d[0], ("no_route".into(), Json::Int(1)));
        assert_eq!(d[3], ("pfc_frames".into(), Json::Int(4)));
        let spans = members.iter().find(|(k, _)| k == "spans").unwrap();
        let Json::Arr(sp) = &spans.1 else {
            panic!("spans array")
        };
        assert_eq!(sp.len(), 2);
    }

    #[test]
    fn observer_streams_ndjson_and_rolls_up() {
        let dir = std::env::temp_dir().join(format!("xp-obs-test-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let log = dir.join("run.ndjson");
        let obs = RunObserver::new(2, false, Some(&log)).unwrap();
        let st = stats_with_spans();
        // Feed out of order: finish() must sort by index.
        obs.record(st.spans[1].clone());
        obs.record(st.spans[0].clone());
        let (spans, summary) = obs.finish("fig6-small", "sweep");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].index, 0);
        assert_eq!(summary.points, 2);
        assert_eq!(summary.cached, 1);
        assert_eq!(summary.events, 100);
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "2 spans + 1 summary");
        for line in &lines {
            parse_json(line).expect("every NDJSON line parses");
        }
        assert!(lines[2].starts_with("{\"record\":\"summary\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_log_path_fails_up_front() {
        let err = RunObserver::new(1, false, Some(Path::new("/nonexistent-dir/x.ndjson")));
        assert!(err.is_err());
    }
}
