//! Outside-in tracing: spans recorded by the harness around each call
//! into a layer's public functions. No product code is instrumented.
//!
//! Spans are kept in memory and written at exit in the repository's
//! `"record":"span"` NDJSON grammar (`dcn_scenarios::obs`), extended with
//! the operation id, parent span, start offset and self time. A layer's
//! *self time* is its span's duration minus its direct children.

use crate::host;
use dcn_scenarios::{sim_stats_json, CacheStatus};
use dcn_sim::SimStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`runner.run`, `scenarios.to_json`, ...).
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Start, nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Cache disposition, for per-point spans.
    pub cache: Option<CacheStatus>,
    /// Engine counters, for per-point spans where a simulator ran.
    pub sim: Option<SimStats>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-layer roll-up of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans of this name.
    pub count: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
}

/// The span recorder. Disabled, [`Tracer::span`] is a plain call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans: (index, where the next reported child is laid).
    stack: Vec<(usize, u64)>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: host::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Switch recording on or off (between operations).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new operation: later spans carry the next operation id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        host::now().duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().map(|&(i, _)| i),
            op: self.op,
            start_ns,
            end_ns: start_ns,
            cache: None,
            sim: None,
        });
        self.stack.push((idx, start_ns));
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a child the product reported by duration only (a per-point
    /// span out of `RunStats.spans` or a daemon event stream). Reported
    /// children are laid end to end from the open span's start — the
    /// points of a single-threaded run do execute back to back — so the
    /// parent's self time is exact and the offsets are nominal.
    pub fn reported(
        &mut self,
        name: &'static str,
        wall_ms: f64,
        cache: CacheStatus,
        sim: Option<SimStats>,
    ) {
        if !self.enabled {
            return;
        }
        let Some(&mut (parent, ref mut cursor)) = self.stack.last_mut() else {
            return;
        };
        let start_ns = *cursor;
        let end_ns = start_ns + (wall_ms * 1e6) as u64;
        *cursor = end_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            op: self.op,
            start_ns,
            end_ns,
            cache: Some(cache),
            sim,
        });
    }

    /// All spans, in start order of their recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's
    /// (clamped at zero against clock granularity).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Span count and summed self time per layer name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += self_ns;
            t.total_ns += s.dur_ns();
        }
        out
    }

    /// The span file: one record per line, in the repository's span
    /// grammar plus `op`, `parent`, `start_us` and `self_ms`.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cache = s
                .cache
                .map_or("null".to_string(), |c| format!("\"{}\"", c.as_str()));
            let sim = s.sim.as_ref().map_or("null".to_string(), sim_stats_json);
            out.push_str(&format!(
                "{{\"record\":\"span\",\"index\":{i},\"label\":\"{}\",\"cache\":{cache},\
                 \"shard\":null,\"wall_ms\":{:.6},\"sim\":{sim},\"op\":{},\"parent\":{parent},\
                 \"start_us\":{:.3},\"self_ms\":{:.6}}}\n",
                s.name,
                s.dur_ns() as f64 / 1e6,
                s.op,
                s.start_ns as f64 / 1e3,
                self_ns as f64 / 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer over hand-placed spans, so self times are exact.
    fn fixture(spans: &[(&'static str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                name,
                parent,
                op: 1,
                start_ns,
                end_ns,
                cache: None,
                sim: None,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) -> run [10,90) -> points [10,40) and [40,70);
        // op also has a sibling child to_json [90,98).
        let t = fixture(&[
            ("op", None, 0, 100),
            ("run", Some(0), 10, 90),
            ("point", Some(1), 10, 40),
            ("point", Some(1), 40, 70),
            ("to_json", Some(0), 90, 98),
        ]);
        assert_eq!(t.self_ns(), vec![12, 20, 30, 30, 8]);
        let totals = t.layer_totals();
        assert_eq!(
            totals["point"],
            LayerTotal {
                count: 2,
                self_ns: 60,
                total_ns: 60
            }
        );
        assert_eq!((totals["run"].self_ns, totals["run"].total_ns), (20, 80));
        // Self times partition the root span.
        assert_eq!(totals.values().map(|l| l.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let t = fixture(&[
            ("a", None, 0, 50),
            ("b", Some(0), 0, 40),
            ("c", Some(1), 0, 30),
        ]);
        assert_eq!(t.self_ns(), vec![10, 10, 30]);
    }

    #[test]
    fn children_longer_than_the_parent_clamp_to_zero() {
        let t = fixture(&[("a", None, 0, 10), ("b", Some(0), 0, 12)]);
        assert_eq!(t.self_ns()[0], 0);
    }

    #[test]
    fn recording_nests_and_lays_reported_children_end_to_end() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.next_op();
        t.span("op", |t| {
            t.span("run", |t| {
                t.reported("point", 0.002, CacheStatus::Computed, None);
                t.reported("point", 0.003, CacheStatus::Hit, None);
            });
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[2].parent, s[3].parent), (Some(1), Some(1)));
        assert_eq!(s[2].start_ns, s[1].start_ns);
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert_eq!(s[3].end_ns - s[3].start_ns, 3_000);
        assert!(s.iter().all(|x| x.op == 1));
        for line in t.to_ndjson().lines() {
            dcn_scenarios::diff::parse_json(line).expect("span line parses");
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("op", |t| {
            t.reported("point", 1.0, CacheStatus::Computed, None);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
