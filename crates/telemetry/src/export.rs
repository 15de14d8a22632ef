//! Deterministic trace reports: JSON / CSV / markdown rendering of
//! recorded channels.
//!
//! Rendering is hand-rolled with fixed field order and shortest-round-trip
//! float formatting, mirroring the sweep reports of `dcn-scenarios`: the
//! same trace renders byte-identically across runs and thread counts (the
//! determinism contract golden-tested in `crates/scenarios/tests/`).

use crate::probe::{Channel, Sample, X_TIME_US};
use crate::reduce::kept_rows;
use std::borrow::Cow;
use std::fmt::Write;

/// One exported channel: metadata plus (decimated) samples.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelTrace {
    /// Channel name.
    pub name: String,
    /// Value unit.
    pub unit: String,
    /// X-axis unit.
    pub x_unit: String,
    /// Samples collected over the whole run (before ring eviction and
    /// decimation).
    pub total_samples: u64,
    /// Samples evicted by the ring (oldest-first).
    pub evicted: u64,
    /// Exported samples (ring contents, decimated).
    pub samples: Vec<Sample>,
}

impl ChannelTrace {
    /// Export a recorder channel, decimating to at most `max_rows` rows:
    /// the rows [`decimate`](crate::decimate) keeps of the ring's samples,
    /// read from the ring without copying it. Its x-axis is simulated
    /// time ([`X_TIME_US`]).
    pub fn from_channel(ch: &Channel, max_rows: usize) -> Self {
        ChannelTrace {
            name: ch.name.clone(),
            unit: ch.unit.clone(),
            x_unit: X_TIME_US.to_string(),
            total_samples: ch.ring.len() as u64 + ch.ring.evicted(),
            evicted: ch.ring.evicted(),
            samples: kept_rows(ch.ring.len(), max_rows)
                .map(|i| {
                    *ch.ring
                        .get(i)
                        .expect("a kept row is below the ring's length")
                })
                .collect(),
        }
    }
}

/// One traced run (one algorithm / lineup entry of a trace scenario).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Entry label ("PowerTCP-INT", "reTCP-600us", …).
    pub label: String,
    /// Scalar reductions, in insertion order (name, value).
    pub stats: Vec<(String, f64)>,
    /// Recorded channels, in creation order.
    pub channels: Vec<ChannelTrace>,
}

impl TraceEntry {
    /// Look up a stat by name.
    pub fn stat(&self, name: &str) -> Option<f64> {
        self.stats.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a channel by name.
    pub fn channel(&self, name: &str) -> Option<&ChannelTrace> {
        self.channels.iter().find(|c| c.name == name)
    }
}

/// The full, structured result of a trace scenario: one entry per traced
/// run, rendered as JSON, CSV, or a markdown stat table.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReport {
    /// Scenario name.
    pub name: String,
    /// Scenario description.
    pub description: String,
    /// One entry per traced run, in lineup order.
    pub entries: Vec<TraceEntry>,
}

impl TraceReport {
    /// Render as JSON (fixed field order, shortest-round-trip floats;
    /// byte-identical for identical traces).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"scenario\": {},\n", jstr(&self.name)));
        out.push_str(&format!(
            "  \"description\": {},\n",
            jstr(&self.description)
        ));
        out.push_str("  \"kind\": \"timeseries\",\n");
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": {},\n", jstr(&e.label)));
            out.push_str("      \"stats\": {");
            for (j, (k, v)) in e.stats.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", jstr(k), jf(*v)));
            }
            out.push_str("},\n");
            out.push_str("      \"channels\": [\n");
            for (j, c) in e.channels.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"name\": {}, \"unit\": {}, \"x_unit\": {}, \
                     \"total_samples\": {}, \"evicted\": {}, \"samples\": [",
                    jstr(&c.name),
                    jstr(&c.unit),
                    jstr(&c.x_unit),
                    c.total_samples,
                    c.evicted
                ));
                for (k, s) in c.samples.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("[{}, {}]", jf(s.x), jf(s.y)));
                }
                out.push_str("]}");
                out.push_str(if j + 1 < e.channels.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str("    }");
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render as long-format CSV: one row per exported sample.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("scenario,entry,channel,unit,x_unit,x,value\n");
        for e in &self.entries {
            for c in &e.channels {
                for s in &c.samples {
                    out.push_str(&format!(
                        "{},{},{},{},{},{},{}\n",
                        csv_escape(&self.name),
                        csv_escape(&e.label),
                        csv_escape(&c.name),
                        csv_escape(&c.unit),
                        csv_escape(&c.x_unit),
                        jf(s.x),
                        jf(s.y)
                    ));
                }
            }
        }
        out
    }

    /// Render the entry stats as a human-readable markdown table (one row
    /// per entry; columns are the union of stat names in first-seen
    /// order, so lineups with per-entry stat sets — analytic grids —
    /// still show everything).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n## {} — {}\n\n", self.name, self.description));
        if self.entries.is_empty() {
            return out;
        }
        let mut cols: Vec<&str> = Vec::new();
        for e in &self.entries {
            for (k, _) in &e.stats {
                if !cols.contains(&k.as_str()) {
                    cols.push(k);
                }
            }
        }
        out.push_str(&format!("| entry | {} |\n", cols.join(" | ")));
        out.push_str(&format!(
            "|---|{}|\n",
            cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        ));
        for e in &self.entries {
            let cells: Vec<String> = cols
                .iter()
                .map(|c| e.stat(c).map(fmt_compact).unwrap_or_else(|| "-".into()))
                .collect();
            out.push_str(&format!("| {} | {} |\n", e.label, cells.join(" | ")));
        }
        out
    }
}

/// JSON string literal with escaping — the workspace's one escaper:
/// every hand-rolled JSON emission (reports, span/summary/job records,
/// cache envelopes, worker manifests, the `--meta` sidecar) goes through
/// it, so all of them escape identically.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (shortest round-trip; non-finite becomes null): the
/// [`push_jf`] form that returns a fresh `String`.
pub fn jf(x: f64) -> String {
    let mut out = String::new();
    push_jf(&mut out, x);
    out
}

/// [`jf`] written straight onto the end of `out` — the workspace's one
/// JSON number form; writers that emit many numbers call this and
/// allocate nothing per number.
pub fn push_jf(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// A CSV cell: quoted (with `""` for a quote) when it holds a comma, a
/// quote or a newline, borrowed verbatim otherwise.
pub fn csv_escape(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\n']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// Compact float for table cells: integers from 100 up, two decimals
/// from 1, four below.
pub fn fmt_compact(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Recorder;
    use powertcp_core::Tick;

    fn sample_report() -> TraceReport {
        let mut r = Recorder::new(Tick::from_micros(10), 64);
        let q = r.channel("queue", "bytes");
        for i in 0..5 {
            r.record_at(q, Tick::from_micros(10 * (i + 1)), (i * 100) as f64);
        }
        // A channel over another x-axis than time, as analytic entries
        // build them.
        let md = ChannelTrace {
            name: "md".into(),
            unit: "factor".into(),
            x_unit: "qdot_over_bw".into(),
            total_samples: 2,
            evicted: 0,
            samples: vec![Sample { x: 0.0, y: 1.0 }, Sample { x: 8.0, y: 9.0 }],
        };
        TraceReport {
            name: "t".into(),
            description: "test trace".into(),
            entries: vec![TraceEntry {
                label: "PowerTCP-INT".into(),
                stats: vec![("peak".into(), 400.0), ("jain".into(), 0.987)],
                channels: vec![ChannelTrace::from_channel(r.get(q), 4), md],
            }],
        }
    }

    #[test]
    fn json_is_well_formed_and_stable() {
        let r = sample_report();
        let j = r.to_json();
        assert_eq!(j, sample_report().to_json());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"scenario\": \"t\""));
        assert!(j.contains("\"kind\": \"timeseries\""));
        assert!(j.contains("\"peak\": 400"));
        assert!(j.contains("\"x_unit\": \"qdot_over_bw\""));
    }

    #[test]
    fn csv_is_long_format_with_header() {
        let r = sample_report();
        let csv = r.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "scenario,entry,channel,unit,x_unit,x,value"
        );
        // queue decimated 5 -> <= 4 rows, md has 2 rows.
        let rows: Vec<&str> = lines.collect();
        assert!(rows.len() <= 6 && rows.len() >= 4, "{}", rows.len());
        assert!(rows.iter().all(|r| r.starts_with("t,PowerTCP-INT,")));
    }

    #[test]
    fn decimation_and_eviction_metadata_survive_export() {
        let mut r = Recorder::new(Tick::from_micros(1), 8);
        let c = r.channel("c", "u");
        for i in 0..20 {
            r.record_at(c, Tick::from_micros(i), i as f64);
        }
        let t = ChannelTrace::from_channel(r.get(c), 4);
        assert_eq!(t.total_samples, 20);
        assert_eq!(t.evicted, 12);
        assert!(t.samples.len() <= 4);
        assert_eq!(t.samples[0].x, 12.0); // oldest kept sample
    }

    /// Picking rows from the ring in place exports what decimating a copy
    /// of it did: rings that wrapped and rings that did not, with a row
    /// budget below, at and above the samples held.
    #[test]
    fn rows_picked_from_the_ring_are_a_decimated_copy() {
        for (capacity, pushed) in [(8, 5), (8, 8), (8, 20), (8, 23), (1, 3), (120, 4096)] {
            let mut r = Recorder::new(Tick::from_micros(1), capacity);
            let c = r.channel("c", "u");
            for i in 0..pushed {
                r.record_at(c, Tick::from_micros(i), (i * i) as f64);
            }
            let ch = r.get(c);
            let len = ch.ring.len();
            for max_rows in [0, 1, 2, len.saturating_sub(1), len, len + 1, 120] {
                assert_eq!(
                    ChannelTrace::from_channel(ch, max_rows).samples,
                    crate::decimate(&ch.ring.to_vec(), max_rows),
                    "capacity {capacity}, {pushed} pushed, max_rows {max_rows}"
                );
            }
        }
    }

    #[test]
    fn table_lists_entries_by_stat_columns() {
        let t = sample_report().table();
        assert!(t.contains("| entry | peak | jain |"));
        assert!(t.contains("| PowerTCP-INT | 400 | 0.9870 |"));
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(jstr("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(jf(f64::NAN), "null");
        let mut out = String::from("[");
        for x in [0.5, -0.0, 1e300, f64::INFINITY] {
            push_jf(&mut out, x);
            out.push(',');
        }
        assert_eq!(out, format!("[0.5,-0,{},null,", 1e300));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_compact(0.0), "0");
        assert_eq!(fmt_compact(123.456), "123");
        assert_eq!(fmt_compact(2.6543), "2.65");
        assert_eq!(fmt_compact(0.001234), "0.0012");
    }

    #[test]
    fn csv_cells_are_quoted_only_when_they_must_be() {
        assert_eq!(csv_escape("powertcp"), "powertcp");
        assert_eq!(
            csv_escape("powertcp[gamma=0.5,n=32]"),
            "\"powertcp[gamma=0.5,n=32]\""
        );
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("a\nb"), "\"a\nb\"");
    }
}
