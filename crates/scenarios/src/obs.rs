//! Run-wide observability: per-point span records, run summaries, and
//! the observer hook the executors report through.
//!
//! Every point a scenario executor runs (sweep point, trace entry,
//! analytic entry) produces one [`SpanRecord`]: who ran (index + label),
//! where the outcome came from (computed, cache hit, cache miss), how
//! long it took, and — when a simulator actually ran — the engine's
//! [`SimStats`] counters. Executors emit spans through the [`Observer`]
//! trait as points complete; `dcn-runner` implements it to drive the
//! `--progress` line and the `--log-json` NDJSON stream, and rolls spans
//! up into the `--meta` sidecar.
//!
//! **Spans never touch reports.** Span records carry wall-clock time and
//! are emitted in completion order; the byte-pinned report path consumes
//! only the outcomes, which are ordered by index and bit-identical with
//! observation on or off.
//!
//! ## NDJSON record grammar
//!
//! One JSON object per line, discriminated by `"record"`:
//!
//! ```text
//! {"record":"span","index":0,"label":"powertcp/load0.60/seed1",
//!  "cache":"miss","shard":null,"wall_ms":12.345,"sim":{...}|null}
//! {"record":"summary","name":"fig6-small","kind":"sweep","points":2,
//!  "cached":0,"wall_ms":123.456,"events":123456,"events_per_sec":1000000.0}
//! ```
//!
//! `sim` objects carry the [`SimStats`] fields verbatim (see
//! [`sim_stats_json`]); `cache` is one of `computed` (no cache layer),
//! `hit`, or `miss`.

use crate::json::Json;
use crate::sweep::SweepPoint;
use dcn_sim::SimStats;
use dcn_telemetry::jstr;

/// Where a point's outcome came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Computed in-process with no cache layer configured.
    Computed,
    /// Served from the content-addressed result cache.
    Hit,
    /// Cache configured but cold for this point: computed, then stored.
    Miss,
}

impl CacheStatus {
    /// Wire label (`computed` / `hit` / `miss`).
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheStatus::Computed => "computed",
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// Observability sidecar of one point outcome: how it was produced.
/// Cache hits carry no stats — no simulator ran.
#[derive(Clone, Copy, Debug)]
pub struct PointObs {
    /// Cache disposition.
    pub cache: CacheStatus,
    /// Engine counters, when a simulator ran (analytic/fluid entries and
    /// cache hits have none).
    pub stats: Option<SimStats>,
}

/// One completed point, as reported to the [`Observer`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Point index in the spec's stable expansion order.
    pub index: usize,
    /// Human label: `algo[params]/loadL/seedS` for sweep points, the
    /// entry label for trace/analytic entries.
    pub label: String,
    /// Where the outcome came from.
    pub cache: CacheStatus,
    /// Worker shard that produced it (multi-process runs only).
    pub shard: Option<usize>,
    /// Wall-clock milliseconds spent producing the outcome.
    pub wall_ms: f64,
    /// Engine counters, when a simulator ran.
    pub stats: Option<SimStats>,
}

impl SpanRecord {
    /// The NDJSON span record (one line, no trailing newline).
    pub fn to_json(&self) -> String {
        let shard = match self.shard {
            Some(s) => s.to_string(),
            None => "null".into(),
        };
        let sim = match &self.stats {
            Some(s) => sim_stats_json(s),
            None => "null".into(),
        };
        format!(
            "{{\"record\":\"span\",\"index\":{},\"label\":{},\"cache\":\"{}\",\
             \"shard\":{},\"wall_ms\":{:.3},\"sim\":{}}}",
            self.index,
            jstr(&self.label),
            self.cache.as_str(),
            shard,
            self.wall_ms,
            sim
        )
    }
}

/// Scalar summary of a completed run: the struct behind the final
/// NDJSON record and the `xp run` stderr line, so the machine and human
/// renderings cannot drift apart.
#[derive(Clone, Debug)]
pub struct SummaryRecord {
    /// Scenario name.
    pub name: String,
    /// `sweep` / `timeseries` / `analytic`.
    pub kind: String,
    /// Points that ran.
    pub points: usize,
    /// Points served from the result cache.
    pub cached: usize,
    /// Wall-clock milliseconds: the run's elapsed time.
    pub wall_ms: f64,
    /// Simulation events dispatched across all points.
    pub events: u64,
}

impl SummaryRecord {
    /// The summary of a run no span of which has completed yet.
    pub fn new(name: &str, kind: &str) -> Self {
        SummaryRecord {
            name: name.into(),
            kind: kind.into(),
            points: 0,
            cached: 0,
            wall_ms: 0.0,
            events: 0,
        }
    }

    /// Count one more completed span. (`wall_ms` is not a sum of the
    /// spans', which overlap whenever points run on more than one
    /// thread: whoever timed the run sets it when the run ends.)
    pub fn add(&mut self, span: &SpanRecord) {
        self.points += 1;
        self.cached += usize::from(span.cache == CacheStatus::Hit);
        self.events += span.stats.as_ref().map_or(0, |s| s.events_processed);
    }

    /// Events dispatched per wall-clock second (0 when nothing ran).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 && self.events > 0 {
            self.events as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    /// The NDJSON summary record (one line, no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"record\":\"summary\",\"name\":{},\"kind\":\"{}\",\"points\":{},\
             \"cached\":{},\"wall_ms\":{:.3},\"events\":{},\"events_per_sec\":{:.1}}}",
            jstr(&self.name),
            self.kind,
            self.points,
            self.cached,
            self.wall_ms,
            self.events,
            self.events_per_sec()
        )
    }

    /// One human-readable table row (no trailing newline) rendering the
    /// same figures as [`SummaryRecord::to_json`].
    pub fn table_row(&self) -> String {
        format!(
            "{:<28} {:>10.3} ms  {:>3} pt ({} cached)  {:>11} ev  {:>12.0} ev/s",
            self.name,
            self.wall_ms,
            self.points,
            self.cached,
            self.events,
            self.events_per_sec()
        )
    }
}

/// Receiver of span records as points complete. Implementations must be
/// `Sync` (executors call from worker threads) and must not assume any
/// ordering — spans arrive in completion order, not index order.
pub trait Observer: Sync {
    /// One point finished.
    fn span(&self, span: &SpanRecord);
}

/// The do-nothing observer behind the plain (un-observed) entry points.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn span(&self, _span: &SpanRecord) {}
}

/// Time left in a run of `total` points, `done` of which finished in
/// `elapsed` (any unit; the answer is in the same one): elapsed ÷ done ×
/// remaining. `None` before the first point and after the last. The one
/// ETA formula, behind `--progress` and the daemon's job record alike:
/// it reads the run's own clock, never a sum of span clocks, which
/// overlap whenever points run on more than one thread.
pub fn eta(elapsed: f64, done: usize, total: usize) -> Option<f64> {
    (done > 0 && done < total).then(|| elapsed / done as f64 * (total - done) as f64)
}

/// Span label of a sweep point: `algo[params]/loadL/seedS`, with the
/// param suffix folded into the algo exactly like report keys.
pub fn point_label(point: &SweepPoint) -> String {
    let algo = if point.param.is_default() {
        point.algo.key()
    } else {
        format!("{}[{}]", point.algo.key(), point.param.label())
    };
    format!("{algo}/load{:.2}/seed{}", point.load, point.seed)
}

/// Serialize [`SimStats`] as a JSON object (fixed field order; the
/// derived events/sec figure is included for stream consumers).
pub fn sim_stats_json(s: &SimStats) -> String {
    format!(
        "{{\"events\":{},\"scheduled\":{},\"overflow\":{},\
         \"batched_visits\":{},\"batched_events\":{},\"delivered\":{},\
         \"forwarded\":{},\"drops_no_route\":{},\"drops_buffer\":{},\
         \"drops_custom\":{},\"pfc_frames\":{},\"pool_fresh\":{},\
         \"pool_reused\":{},\"wall_ms\":{:.3},\"events_per_sec\":{:.1}}}",
        s.events_processed,
        s.events_scheduled,
        s.overflow_scheduled,
        s.batched_visits,
        s.batched_events,
        s.delivered,
        s.forwarded,
        s.drops_no_route,
        s.drops_buffer,
        s.drops_custom,
        s.pfc_frames,
        s.pool_fresh,
        s.pool_reused,
        s.wall_ms,
        s.events_per_sec()
    )
}

/// Parse a [`sim_stats_json`] object back (the worker protocol ships
/// stats across the process boundary). Returns `None` on shape mismatch,
/// and on a `wall_ms` that is negative, not finite, or so small that
/// events/sec overflows: [`sim_stats_json`] could not render it as JSON.
pub fn sim_stats_from_json(j: &Json) -> Option<SimStats> {
    let u = |k: &str| j.get(k)?.as_u64();
    let stats = SimStats {
        events_processed: u("events")?,
        events_scheduled: u("scheduled")?,
        overflow_scheduled: u("overflow")?,
        batched_visits: u("batched_visits")?,
        batched_events: u("batched_events")?,
        delivered: u("delivered")?,
        forwarded: u("forwarded")?,
        drops_no_route: u("drops_no_route")?,
        drops_buffer: u("drops_buffer")?,
        drops_custom: u("drops_custom")?,
        pfc_frames: u("pfc_frames")?,
        pool_fresh: u("pool_fresh")?,
        pool_reused: u("pool_reused")?,
        wall_ms: j
            .get("wall_ms")?
            .as_f64()
            .filter(|ms| ms.is_finite() && *ms >= 0.0)?,
    };
    stats.events_per_sec().is_finite().then_some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn stats() -> SimStats {
        SimStats {
            events_processed: 1234,
            events_scheduled: 1300,
            overflow_scheduled: 12,
            batched_visits: 7,
            batched_events: 9,
            delivered: 400,
            forwarded: 800,
            drops_no_route: 1,
            drops_buffer: 2,
            drops_custom: 3,
            pfc_frames: 4,
            pool_fresh: 50,
            pool_reused: 950,
            wall_ms: 6.25,
        }
    }

    #[test]
    fn sim_stats_round_trip() {
        let s = stats();
        let j = parse_json(&sim_stats_json(&s)).expect("valid json");
        assert_eq!(sim_stats_from_json(&j), Some(s));
        assert_eq!(sim_stats_from_json(&Json::Null), None);
    }

    #[test]
    fn a_wall_clock_the_writer_cannot_render_is_refused() {
        let text = sim_stats_json(&stats());
        let with = |ms: &str| text.replace("\"wall_ms\":6.250", &format!("\"wall_ms\":{ms}"));
        assert_ne!(with("1"), text);
        for ms in ["3.1e999", "-3.1e999", "-1.5", "1e-320"] {
            let j = parse_json(&with(ms)).expect("valid json");
            assert_eq!(sim_stats_from_json(&j), None, "{ms}");
        }
        let j = parse_json(&with("0")).expect("valid json");
        assert!(sim_stats_from_json(&j).is_some_and(|s| s.events_per_sec() == 0.0));
    }

    #[test]
    fn span_record_is_one_well_formed_json_line() {
        let span = SpanRecord {
            index: 3,
            label: "powertcp/load0.60/seed1".into(),
            cache: CacheStatus::Miss,
            shard: Some(2),
            wall_ms: 12.3456,
            stats: Some(stats()),
        };
        let line = span.to_json();
        assert!(!line.contains('\n'));
        let j = parse_json(&line).expect("valid json");
        let Json::Obj(m) = j else { panic!("object") };
        assert_eq!(m[0], ("record".into(), Json::Str("span".into())));
        assert_eq!(m[1], ("index".into(), Json::Int(3)));
        assert_eq!(m[3], ("cache".into(), Json::Str("miss".into())));
        assert_eq!(m[4], ("shard".into(), Json::Int(2)));
        // Hits carry no sim stats and no shard.
        let hit = SpanRecord {
            cache: CacheStatus::Hit,
            shard: None,
            stats: None,
            ..span
        };
        let j = parse_json(&hit.to_json()).expect("valid json");
        let Json::Obj(m) = j else { panic!("object") };
        assert_eq!(m[4], ("shard".into(), Json::Null));
        assert_eq!(m[6], ("sim".into(), Json::Null));
    }

    #[test]
    fn summary_record_json_and_table_agree() {
        let s = SummaryRecord {
            name: "fig6-small".into(),
            kind: "sweep".into(),
            points: 2,
            cached: 1,
            wall_ms: 2000.0,
            events: 1_000_000,
        };
        assert!((s.events_per_sec() - 500_000.0).abs() < 1e-9);
        let j = parse_json(&s.to_json()).expect("valid json");
        let Json::Obj(m) = j else { panic!("object") };
        assert_eq!(m[0], ("record".into(), Json::Str("summary".into())));
        assert_eq!(m[6], ("events".into(), Json::Int(1_000_000)));
        let row = s.table_row();
        assert!(row.contains("fig6-small"));
        assert!(row.contains("1000000 ev"));
        assert!(row.contains("500000 ev/s"));
    }

    #[test]
    fn eta_is_elapsed_per_done_point_times_the_rest() {
        assert_eq!(eta(30.0, 1, 4), Some(90.0));
        assert_eq!(eta(30.0, 3, 4), Some(10.0));
        assert_eq!(eta(30.0, 0, 4), None, "no point done yet");
        assert_eq!(eta(30.0, 4, 4), None, "nothing left");
    }

    #[test]
    fn point_labels_fold_params_like_report_keys() {
        use crate::algo::Algo;
        use crate::spec::ParamSpec;
        let p = SweepPoint {
            index: 0,
            algo: Algo::PowerTcp,
            param: ParamSpec::default(),
            load: 0.6,
            seed: 1,
        };
        assert_eq!(point_label(&p), "powertcp/load0.60/seed1");
        let tuned = SweepPoint {
            param: ParamSpec { gamma: Some(0.2) },
            ..p
        };
        assert_eq!(point_label(&tuned), "powertcp[gamma=0.2]/load0.60/seed1");
    }
}
