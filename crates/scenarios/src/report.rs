//! Structured sweep results: per-point and per-(algo, param, load) aggregate
//! summaries, rendered as JSON, CSV, or a markdown table.
//!
//! Rendering is deliberately hand-rolled and deterministic: fields are
//! emitted in fixed order and floats use Rust's shortest round-trip
//! formatting, so a sweep's JSON is byte-identical across runs and
//! thread counts (the determinism contract tested in
//! `tests/determinism.rs`).

use crate::engine::PointOutcome;
use crate::spec::ScenarioSpec;
use dcn_stats::{Sorted, Summary};
use dcn_telemetry::{csv_escape, fmt_compact, jstr, push_jf};
use dcn_workloads::{size_class, SizeClass};
use std::fmt::Write;

/// The Figure 6 x-axis buckets (bytes): a flow falls in the first bucket
/// whose boundary is at least its size, and a flow larger than the last
/// boundary in none.
pub const SIZE_BUCKETS: [u64; 8] = [
    5_000, 20_000, 50_000, 100_000, 400_000, 800_000, 5_000_000, 30_000_000,
];

/// Cut indices of [`Cuts`]: all flows, the three Figure 7 size classes,
/// then one per [`SIZE_BUCKETS`] boundary from `BUCKET0` on.
const ALL: usize = 0;
const SHORT: usize = 1;
const MEDIUM: usize = 2;
const LONG: usize = 3;
const BUCKET0: usize = 4;
/// The cuts a point's report summarizes: all flows and the three classes.
const CLASSES: usize = BUCKET0;
const CUTS: usize = BUCKET0 + SIZE_BUCKETS.len();

/// The slowdown cuts of one point's flows the report summarizes: all
/// flows, the Figure 7 size classes ([`dcn_workloads::size_class`];
/// 10 KB–100 KB flows are in no class) and the Figure 6 size buckets.
/// The cuts lie one after another in one exact-sized buffer, each in
/// the flows' order; cut `k` is `values[starts[k]..starts[k + 1]]`.
struct Cuts {
    values: Vec<f64>,
    starts: [usize; CUTS + 1],
}

impl Cuts {
    /// Count each cut, then fill the buffer: two passes over `flows`,
    /// one allocation.
    fn of(flows: &[(u64, f64)]) -> Cuts {
        let mut starts = [0; CUTS + 1];
        for &(size, _) in flows {
            for k in Self::cuts_of(size).into_iter().flatten() {
                starts[k + 1] += 1;
            }
        }
        for k in 0..CUTS {
            starts[k + 1] += starts[k];
        }
        let mut values = vec![0.0; starts[CUTS]];
        let mut next = starts;
        for &(size, s) in flows {
            for k in Self::cuts_of(size).into_iter().flatten() {
                values[next[k]] = s;
                next[k] += 1;
            }
        }
        Cuts { values, starts }
    }

    /// The cuts a flow of `size` bytes lies in: all, its class (if
    /// any) and its bucket (if any).
    fn cuts_of(size: u64) -> [Option<usize>; 3] {
        let class = match size_class(size) {
            SizeClass::Short => Some(SHORT),
            SizeClass::Medium => Some(MEDIUM),
            SizeClass::Long => Some(LONG),
            SizeClass::SmallMedium => None,
        };
        let bucket = SIZE_BUCKETS.iter().position(|&ub| size <= ub);
        [Some(ALL), class, bucket.map(|b| BUCKET0 + b)]
    }

    /// Cut `k`, in flow order.
    fn get(&self, k: usize) -> &[f64] {
        &self.values[self.starts[k]..self.starts[k + 1]]
    }
}

/// Slowdown summary of one Figure-6 size bucket (flows with size ≤
/// `le_bytes` and above the previous boundary), pooled across seeds.
#[derive(Clone, Copy, Debug)]
pub struct BucketReport {
    /// Upper size boundary of the bucket (bytes).
    pub le_bytes: u64,
    /// Pooled slowdown summary (`None` when the bucket saw no flows).
    pub summary: Option<Summary>,
}

/// Summaries of one sweep point.
#[derive(Clone, Debug)]
pub struct PointReport {
    /// Spec identifier of the algorithm (`Algo::key`).
    pub algo_key: String,
    /// Display name of the algorithm (`Algo::name`).
    pub algo_name: String,
    /// Swept load.
    pub load: f64,
    /// Workload seed.
    pub seed: u64,
    /// Flows offered.
    pub offered: usize,
    /// Flows completed before run end.
    pub completed: usize,
    /// Switch drops.
    pub drops: u64,
    /// Short-flow (<10KB) slowdown summary.
    pub short: Option<Summary>,
    /// Medium-flow (100KB–1MB) slowdown summary.
    pub medium: Option<Summary>,
    /// Long-flow (≥1MB) slowdown summary.
    pub long: Option<Summary>,
    /// All-flow slowdown summary.
    pub all: Option<Summary>,
    /// Median edge-buffer occupancy (bytes).
    pub buffer_p50: Option<f64>,
    /// p99 edge-buffer occupancy (bytes).
    pub buffer_p99: Option<f64>,
    /// Peak edge-buffer occupancy (bytes).
    pub buffer_max: Option<f64>,
}

/// Summaries of one (algo, param, load) cell with all seeds merged. Slowdown
/// vectors are pooled across seeds *before* percentiles are taken, so
/// tails reflect the whole sample, not a mean of per-seed tails.
#[derive(Clone, Debug)]
pub struct AggregateReport {
    /// Spec identifier of the algorithm.
    pub algo_key: String,
    /// Display name of the algorithm.
    pub algo_name: String,
    /// Swept load.
    pub load: f64,
    /// Number of seeds pooled.
    pub seeds: usize,
    /// Flows offered (across seeds).
    pub offered: usize,
    /// Flows completed (across seeds).
    pub completed: usize,
    /// Switch drops (across seeds).
    pub drops: u64,
    /// Short-flow slowdown summary.
    pub short: Option<Summary>,
    /// Medium-flow slowdown summary.
    pub medium: Option<Summary>,
    /// Long-flow slowdown summary.
    pub long: Option<Summary>,
    /// All-flow slowdown summary.
    pub all: Option<Summary>,
    /// Credible short-flow tail: `(percentile, value)` at the highest
    /// percentile the pooled sample size supports.
    pub short_tail: Option<(f64, f64)>,
    /// Credible long-flow tail.
    pub long_tail: Option<(f64, f64)>,
    /// Median edge-buffer occupancy (bytes, pooled samples).
    pub buffer_p50: Option<f64>,
    /// p99 edge-buffer occupancy (bytes).
    pub buffer_p99: Option<f64>,
    /// Peak edge-buffer occupancy (bytes).
    pub buffer_max: Option<f64>,
    /// Per-size-bucket slowdown summaries (the Figure 6 x-axis), pooled
    /// across seeds; one entry per [`SIZE_BUCKETS`] boundary.
    pub buckets: Vec<BucketReport>,
    /// Buffer-occupancy CDF, `(percentile, bytes)` at each
    /// [`BUFFER_CDF_PCTS`] rung, pooled across seeds. `None` unless the
    /// spec opts in with `buffer_cdf = true` — the default report bytes
    /// never move.
    pub buffer_cdf: Option<Vec<(f64, f64)>>,
}

/// The percentile ladder of the optional buffer-occupancy CDF export
/// (`buffer_cdf = true` in a sweep spec).
pub const BUFFER_CDF_PCTS: [f64; 9] = [0.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0];

/// The full, structured result of a sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// Scenario name.
    pub name: String,
    /// Scenario description.
    pub description: String,
    /// One report per sweep point, in point order.
    pub points: Vec<PointReport>,
    /// One report per (algo, param, load) cell, in sweep order.
    pub aggregates: Vec<AggregateReport>,
}

impl SweepResult {
    /// Reduce raw outcomes (in sweep-point order) to reports. Public so
    /// alternative executors (the `dcn-runner` multi-process layer) can
    /// merge worker-computed outcomes through the exact same reduction;
    /// `outcomes` must be in [`crate::sweep::sweep_points`] order.
    /// Each point's flows are cut once into one buffer ([`Cuts`]), a cell
    /// at a time, and the cuts are reduced one after another: a cut's
    /// point summaries, then its pool — the cell's copies of that cut,
    /// sorted once ([`Sorted`]) with every aggregate read off that sort —
    /// so at most one pool is alive. A one-point cell's pool is its
    /// point's only sort. Panics if `spec` is no sweep.
    pub fn build(spec: &ScenarioSpec, outcomes: Vec<PointOutcome>) -> SweepResult {
        let sweep = spec.sweep_body("SweepResult::build");
        // Algorithm-parameter overrides fold into the algo identity
        // strings ("powertcp[gamma=0.5]") instead of a new report field:
        // default-param reports stay byte-identical to their pre-params
        // pinned baselines, and every renderer/differ sees the axis.
        let keyed = |o: &PointOutcome| {
            if o.param.is_default() {
                (o.algo.key(), o.algo.name())
            } else {
                let label = o.param.label();
                (
                    format!("{}[{label}]", o.algo.key()),
                    format!("{} [{label}]", o.algo.name()),
                )
            }
        };
        // The expansion is algo → params → load → seed with seeds
        // innermost, so each (algo, param, load) cell is a consecutive
        // run of `seeds` outcomes, and cell order is point order.
        let seeds = sweep.sweep.seeds.len();
        let mut points = Vec::with_capacity(outcomes.len());
        let mut aggregates = Vec::new();
        for cell in outcomes.chunks(seeds) {
            let cuts: Vec<Cuts> = cell.iter().map(|o| Cuts::of(&o.flows)).collect();
            let mut classes = vec![[None; CLASSES]; cell.len()];
            let mut pooled = [None; CUTS];
            let (mut short_tail, mut long_tail) = (None, None);
            // A one-point cell's pool is its point's cut: one summary
            // serves both.
            let one = cell.len() == 1;
            for k in 0..CUTS {
                if k < CLASSES && !one {
                    for (s, c) in classes.iter_mut().zip(&cuts) {
                        s[k] = Summary::of(c.get(k));
                    }
                }
                let pool = pool(&cuts, |c| c.get(k));
                pooled[k] = pool.summary();
                if k < CLASSES && one {
                    classes[0][k] = pooled[k];
                }
                match k {
                    SHORT => short_tail = pool.credible_tail(),
                    LONG => long_tail = pool.credible_tail(),
                    _ => {}
                }
            }
            for (o, s) in cell.iter().zip(classes) {
                let (algo_key, algo_name) = keyed(o);
                let buffer = Sorted::of(&o.buffer);
                points.push(PointReport {
                    algo_key,
                    algo_name,
                    load: o.load,
                    seed: o.seed,
                    offered: o.offered,
                    completed: o.completed,
                    drops: o.drops,
                    short: s[SHORT],
                    medium: s[MEDIUM],
                    long: s[LONG],
                    all: s[ALL],
                    buffer_p50: buffer.percentile(50.0),
                    buffer_p99: buffer.percentile(99.0),
                    buffer_max: buffer.percentile(100.0),
                });
            }
            let first = &cell[0];
            let buffer = pool(cell, |o| &o.buffer);
            let buckets: Vec<BucketReport> = SIZE_BUCKETS
                .iter()
                .zip(&pooled[BUCKET0..])
                .map(|(&le_bytes, &summary)| BucketReport { le_bytes, summary })
                .collect();
            let (algo_key, algo_name) = keyed(first);
            aggregates.push(AggregateReport {
                algo_key,
                algo_name,
                load: first.load,
                seeds: cell.len(),
                offered: cell.iter().map(|o| o.offered).sum(),
                completed: cell.iter().map(|o| o.completed).sum(),
                drops: cell.iter().map(|o| o.drops).sum(),
                short_tail,
                long_tail,
                short: pooled[SHORT],
                medium: pooled[MEDIUM],
                long: pooled[LONG],
                all: pooled[ALL],
                buffer_p50: buffer.percentile(50.0),
                buffer_p99: buffer.percentile(99.0),
                buffer_max: buffer.percentile(100.0),
                buckets,
                buffer_cdf: sweep.buffer_cdf.then(|| {
                    BUFFER_CDF_PCTS
                        .iter()
                        .filter_map(|&p| buffer.percentile(p).map(|v| (p, v)))
                        .collect()
                }),
            });
        }

        SweepResult {
            name: spec.name.clone(),
            description: spec.description.clone(),
            points,
            aggregates,
        }
    }

    /// Render as JSON (fixed field order, shortest-round-trip floats;
    /// byte-identical for identical sweeps). Every number is written
    /// straight into the output ([`push_jf`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"scenario\": ");
        out.push_str(&jstr(&self.name));
        out.push_str(",\n  \"description\": ");
        out.push_str(&jstr(&self.description));
        out.push_str(",\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            out.push_str("    {\"algo\": ");
            out.push_str(&jstr(&p.algo_key));
            out.push_str(", \"load\": ");
            push_jf(&mut out, p.load);
            let _ = write!(
                out,
                ", \"seed\": {}, \"offered\": {}, \"completed\": {}, \"drops\": {}, ",
                p.seed, p.offered, p.completed, p.drops
            );
            push_classes(&mut out, [&p.short, &p.medium, &p.long, &p.all]);
            push_buffer(&mut out, [p.buffer_p50, p.buffer_p99, p.buffer_max]);
            out.push('}');
            out.push_str(if i + 1 < self.points.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"aggregates\": [\n");
        for (i, a) in self.aggregates.iter().enumerate() {
            out.push_str("    {\"algo\": ");
            out.push_str(&jstr(&a.algo_key));
            out.push_str(", \"algo_name\": ");
            out.push_str(&jstr(&a.algo_name));
            out.push_str(", \"load\": ");
            push_jf(&mut out, a.load);
            let _ = write!(
                out,
                ", \"seeds\": {}, \"offered\": {}, \"completed\": {}, \"drops\": {}, ",
                a.seeds, a.offered, a.completed, a.drops
            );
            for (key, tail) in [("short_tail", a.short_tail), ("long_tail", a.long_tail)] {
                push_key(&mut out, key);
                match tail {
                    Some((pct, value)) => push_object(&mut out, &[("pct", pct), ("value", value)]),
                    None => out.push_str("null"),
                }
                out.push_str(", ");
            }
            push_classes(&mut out, [&a.short, &a.medium, &a.long, &a.all]);
            push_buffer(&mut out, [a.buffer_p50, a.buffer_p99, a.buffer_max]);
            out.push_str(", \"buckets\": [");
            for (j, b) in a.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"le_bytes\": {}, \"summary\": ", b.le_bytes);
                push_summary(&mut out, &b.summary);
                out.push('}');
            }
            out.push(']');
            // Opt-in CDF rows go *after* every always-on field, so specs
            // without `buffer_cdf = true` render byte-identically to
            // reports produced before the field existed.
            if let Some(cdf) = &a.buffer_cdf {
                out.push_str(", \"buffer_cdf\": [");
                for (j, &(pct, bytes)) in cdf.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    push_object(&mut out, &[("pct", pct), ("bytes", bytes)]);
                }
                out.push(']');
            }
            out.push('}');
            out.push_str(if i + 1 < self.aggregates.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render the aggregates as CSV (one row per (algo, param, load)
    /// cell), then the size-bucket table and the opt-in buffer CDF.
    /// Every number is written straight into the output ([`push_jf`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "scenario,algo,load,seeds,offered,completed,drops,\
             short_n,short_mean,short_tail_pct,short_tail,\
             medium_n,medium_mean,long_n,long_mean,long_tail_pct,long_tail,\
             all_n,all_mean,buffer_p50_bytes,buffer_p99_bytes,buffer_max_bytes\n",
        );
        let name = csv_escape(&self.name);
        // `scenario,algo,load`, the three cells every table's rows open with.
        let head = |out: &mut String, a: &AggregateReport| {
            out.push_str(&name);
            out.push(',');
            out.push_str(&csv_escape(&a.algo_key));
            out.push(',');
            push_jf(out, a.load);
        };
        for a in &self.aggregates {
            head(&mut out, a);
            let _ = write!(
                out,
                ",{},{},{},{}",
                a.seeds, a.offered, a.completed, a.drops
            );
            let class = |out: &mut String, s: &Option<Summary>| {
                let _ = write!(out, ",{}", s.map_or(0, |s| s.count));
                push_cell(out, s.map(|s| s.mean));
            };
            let tail = |out: &mut String, t: Option<(f64, f64)>| {
                push_cell(out, t.map(|t| t.0));
                push_cell(out, t.map(|t| t.1));
            };
            class(&mut out, &a.short);
            tail(&mut out, a.short_tail);
            class(&mut out, &a.medium);
            class(&mut out, &a.long);
            tail(&mut out, a.long_tail);
            class(&mut out, &a.all);
            for b in [a.buffer_p50, a.buffer_p99, a.buffer_max] {
                push_cell(&mut out, b);
            }
            out.push('\n');
        }
        // Second table: one row per (algo, load, size bucket) — the
        // Figure 6 x-axis, pooled across seeds.
        out.push('\n');
        out.push_str("scenario,algo,load,bucket_le_bytes,n,mean,p50,p95,p99,p999,max\n");
        for a in &self.aggregates {
            for b in &a.buckets {
                head(&mut out, a);
                let _ = write!(out, ",{}", b.le_bytes);
                match b.summary {
                    Some(s) => {
                        let _ = write!(out, ",{}", s.count);
                        for x in [s.mean, s.p50, s.p95, s.p99, s.p999, s.max] {
                            push_cell(&mut out, Some(x));
                        }
                    }
                    None => out.push_str(",0,,,,,,"),
                }
                out.push('\n');
            }
        }
        // Third table, opt-in (`buffer_cdf = true`): one row per
        // (algo, load, percentile) of the pooled buffer-occupancy CDF.
        // Appended after both always-on tables so default reports stay
        // byte-identical.
        if self.aggregates.iter().any(|a| a.buffer_cdf.is_some()) {
            out.push('\n');
            out.push_str("scenario,algo,load,pct,buffer_bytes\n");
            for a in &self.aggregates {
                for &(pct, bytes) in a.buffer_cdf.iter().flatten() {
                    head(&mut out, a);
                    push_cell(&mut out, Some(pct));
                    push_cell(&mut out, Some(bytes));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Render the aggregates as a human-readable markdown table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n## {} — {}\n\n", self.name, self.description));
        out.push_str(
            "| protocol | load | short-flow tail | long-flow tail | mean slowdown | done/offered | drops | p99 buffer (KB) |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for a in &self.aggregates {
            let tail = |t: Option<(f64, f64)>| match t {
                Some((p, v)) => format!("{} (p{p})", fmt_compact(v)),
                None => "-".into(),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {}/{} | {} | {} |\n",
                a.algo_name,
                if a.load > 0.0 {
                    format!("{:.0}%", a.load * 100.0)
                } else {
                    "-".into()
                },
                tail(a.short_tail),
                tail(a.long_tail),
                a.all
                    .map(|s| fmt_compact(s.mean))
                    .unwrap_or_else(|| "-".into()),
                a.completed,
                a.offered,
                a.drops,
                a.buffer_p99
                    .map(|b| fmt_compact(b / 1000.0))
                    .unwrap_or_default(),
            ));
        }
        out
    }
}

/// One sample vector of each of a cell's points, concatenated unsorted
/// in point order into one exact-sized copy — the order its mean is
/// summed in — which is then sorted in place.
fn pool<T>(cell: &[T], samples: impl Fn(&T) -> &[f64]) -> Sorted {
    let mut all = Vec::with_capacity(cell.iter().map(|x| samples(x).len()).sum());
    for x in cell {
        all.extend_from_slice(samples(x));
    }
    Sorted::new(all)
}

/// `"key": `.
fn push_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
}

/// `"k": x, …` over `fields`, in order.
fn push_fields(out: &mut String, fields: &[(&str, f64)]) {
    for (i, &(key, x)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_key(out, key);
        push_jf(out, x);
    }
}

/// `{"k": x, …}` over `fields`, in order.
fn push_object(out: &mut String, fields: &[(&str, f64)]) {
    out.push('{');
    push_fields(out, fields);
    out.push('}');
}

/// A summary as a JSON object, or `null`.
fn push_summary(out: &mut String, s: &Option<Summary>) {
    let Some(s) = s else {
        return out.push_str("null");
    };
    let _ = write!(out, "{{\"count\": {}, ", s.count);
    let fields = [
        ("mean", s.mean),
        ("p50", s.p50),
        ("p95", s.p95),
        ("p99", s.p99),
        ("p999", s.p999),
        ("max", s.max),
    ];
    push_fields(out, &fields);
    out.push('}');
}

/// `"short": …, "medium": …, "long": …, "all": …, `.
fn push_classes(out: &mut String, classes: [&Option<Summary>; 4]) {
    for (key, s) in ["short", "medium", "long", "all"].into_iter().zip(classes) {
        push_key(out, key);
        push_summary(out, s);
        out.push_str(", ");
    }
}

/// `"buffer_p50": …, "buffer_p99": …, "buffer_max": …`, `null` when absent.
fn push_buffer(out: &mut String, buffer: [Option<f64>; 3]) {
    let keys = ["buffer_p50", "buffer_p99", "buffer_max"];
    for (i, (key, x)) in keys.into_iter().zip(buffer).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_key(out, key);
        match x {
            Some(x) => push_jf(out, x),
            None => out.push_str("null"),
        }
    }
}

/// A CSV cell after its comma: the number, or empty when absent.
fn push_cell(out: &mut String, x: Option<f64>) {
    out.push(',');
    if let Some(x) = x {
        push_jf(out, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algo;
    use crate::engine::PointOutcome;
    use crate::spec::{ScenarioSpec, SizeSpec, TopologySpec};

    fn fake_outcome(algo: Algo, load: f64, seed: u64, base: f64) -> PointOutcome {
        PointOutcome {
            algo,
            param: crate::spec::ParamSpec::default(),
            load,
            seed,
            // Two short flows in the <= 5 KB bucket, one medium flow in
            // the <= 400 KB bucket.
            flows: vec![(1_000, base), (2_000, base * 2.0), (200_000, base * 3.0)],
            buffer: vec![1000.0, 2000.0],
            completed: 3,
            offered: 3,
            drops: 1,
        }
    }

    fn spec2x2() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            "r",
            TopologySpec::Star {
                hosts: 4,
                host_gbps: 25.0,
            },
        )
        .poisson(SizeSpec::Websearch)
        .seeds([1, 2]);
        let sweep = &mut spec.sweep_mut("test").sweep;
        sweep.algos = vec![Algo::PowerTcp, Algo::Hpcc];
        sweep.loads = vec![0.5];
        spec
    }

    #[test]
    fn aggregates_pool_seeds() {
        let spec = spec2x2();
        let outcomes = vec![
            fake_outcome(Algo::PowerTcp, 0.5, 1, 1.0),
            fake_outcome(Algo::PowerTcp, 0.5, 2, 2.0),
            fake_outcome(Algo::Hpcc, 0.5, 1, 4.0),
            fake_outcome(Algo::Hpcc, 0.5, 2, 8.0),
        ];
        let r = SweepResult::build(&spec, outcomes);
        assert_eq!(r.points.len(), 4);
        assert_eq!(r.aggregates.len(), 2);
        let a = &r.aggregates[0];
        assert_eq!(a.algo_key, "powertcp");
        assert_eq!(a.seeds, 2);
        assert_eq!(a.offered, 6);
        assert_eq!(a.drops, 2);
        // Pooled short samples: [1, 2] + [2, 4] -> count 4.
        assert_eq!(a.short.unwrap().count, 4);
        assert!(a.long.is_none());
        // Buckets pool across seeds too: [1, 2] + [2, 4] in bucket 0.
        assert_eq!(a.buckets.len(), SIZE_BUCKETS.len());
        assert_eq!(a.buckets[0].le_bytes, 5_000);
        assert_eq!(a.buckets[0].summary.unwrap().count, 4);
        assert_eq!(a.buckets[4].summary.unwrap().count, 2);
        assert!(a.buckets[1].summary.is_none());
    }

    /// One flow on each side of every bucket and class edge, its slowdown
    /// its position: each cut holds the flows it should, in flow order.
    #[test]
    fn flows_land_in_the_cuts_their_sizes_name() {
        let sizes = [
            5_000, 5_001, 9_999, 10_000, 99_999, 100_000, 999_999, 1_000_000, 30_000_000,
            30_000_001,
        ];
        let flows: Vec<(u64, f64)> = (1..).zip(sizes).map(|(i, size)| (size, i as f64)).collect();
        let c = Cuts::of(&flows);
        let buckets: [&[f64]; 8] = [
            &[1.0],
            &[2.0, 3.0, 4.0],
            &[],
            &[5.0, 6.0],
            &[],
            &[],
            &[7.0, 8.0],
            &[9.0],
        ];
        // 30,000,001 B is past the last boundary: in no bucket.
        for (b, want) in buckets.iter().enumerate() {
            assert_eq!(c.get(BUCKET0 + b), *want, "bucket {b}");
        }
        // 10,000 and 99,999 B are in no class.
        let classes: [&[f64]; 3] = [&[1.0, 2.0, 3.0], &[6.0, 7.0], &[8.0, 9.0, 10.0]];
        for (k, want) in [SHORT, MEDIUM, LONG].into_iter().zip(classes) {
            assert_eq!(c.get(k), want, "class cut {k}");
        }
        let all: Vec<f64> = flows.iter().map(|f| f.1).collect();
        assert_eq!(c.get(ALL), all);
        // One exact-sized buffer: every flow, plus each flow in a class,
        // plus each flow in a bucket.
        let in_cuts = |cuts: &[&[f64]]| cuts.iter().map(|c| c.len()).sum::<usize>();
        assert_eq!(
            c.values.len(),
            flows.len() + in_cuts(&classes) + in_cuts(&buckets)
        );
        assert_eq!(c.values.capacity(), c.values.len());
    }

    /// The reduction [`SweepResult::build`] replaced, kept as the oracle:
    /// a `Vec` per cut, `Summary::of` per point, and a pool that copies
    /// each cut again.
    struct OracleCuts {
        buckets: [Vec<f64>; SIZE_BUCKETS.len()],
        short: Vec<f64>,
        medium: Vec<f64>,
        long: Vec<f64>,
        all: Vec<f64>,
    }

    impl OracleCuts {
        fn of(flows: &[(u64, f64)]) -> OracleCuts {
            let mut c = OracleCuts {
                buckets: Default::default(),
                short: Vec::new(),
                medium: Vec::new(),
                long: Vec::new(),
                all: Vec::with_capacity(flows.len()),
            };
            for &(size, s) in flows {
                if let Some(b) = SIZE_BUCKETS.iter().position(|&ub| size <= ub) {
                    c.buckets[b].push(s);
                }
                match size_class(size) {
                    SizeClass::Short => c.short.push(s),
                    SizeClass::Medium => c.medium.push(s),
                    SizeClass::Long => c.long.push(s),
                    SizeClass::SmallMedium => {}
                }
                c.all.push(s);
            }
            c
        }
    }

    fn oracle_pool(cell: &[OracleCuts], samples: impl Fn(&OracleCuts) -> &[f64]) -> Sorted {
        Sorted::new(
            cell.iter()
                .flat_map(|x| samples(x).iter().copied())
                .collect(),
        )
    }

    /// Every bit of a summary, so `-0.0` and `+0.0` differ.
    fn bits(s: Option<Summary>) -> Option<[u64; 7]> {
        s.map(|s| {
            let f = [s.mean, s.p50, s.p95, s.p99, s.p999, s.max];
            let mut b = [s.count as u64; 7];
            for (b, x) in b[1..].iter_mut().zip(f) {
                *b = x.to_bits();
            }
            b
        })
    }

    fn tail_bits(t: Option<(f64, f64)>) -> Option<(u64, u64)> {
        t.map(|(p, v)| (p.to_bits(), v.to_bits()))
    }

    /// Random cells of 1 and 3 points — sizes on both sides of every
    /// bucket and class edge, repeated slowdowns, `±0.0`, empty cuts and
    /// points with no flows — reduce to the oracle's summaries, tails and
    /// buckets bit for bit.
    #[test]
    fn build_matches_the_per_cut_oracle_bit_for_bit() {
        let mut edges = vec![10_000, 100_000, 1_000_000];
        edges.extend(SIZE_BUCKETS);
        let sizes: Vec<u64> = edges
            .iter()
            .flat_map(|&e| [e - 1, e, e + 1])
            .chain([1, 64_000])
            .collect();
        let values = [0.0, -0.0, 1.0, 1.0, 2.5, 7.0, 1e-300, 3.75];
        let mut rng = proptest::TestRng::deterministic("build_matches_the_per_cut_oracle");
        for case in 0..300 {
            let seeds = if case % 2 == 0 { 1 } else { 3 };
            let mut spec = spec2x2().seeds(1..=seeds);
            spec.sweep_mut("test").sweep.algos = vec![Algo::PowerTcp];
            // Mostly small points (empty cuts are common); now and then
            // one large enough to move the credible tail off p50.
            let cap = if rng.below(8) == 0 { 400 } else { 12 };
            let outcomes: Vec<PointOutcome> = (1..=seeds)
                .map(|seed| {
                    let mut o = fake_outcome(Algo::PowerTcp, 0.5, seed, 1.0);
                    o.flows = (0..rng.below(cap + 1))
                        .map(|_| {
                            let size = if rng.below(4) == 0 {
                                1 + rng.below(40_000_000) as u64
                            } else {
                                sizes[rng.below(sizes.len())]
                            };
                            let s = if rng.below(3) == 0 {
                                rng.unit_f64() * 100.0
                            } else {
                                values[rng.below(values.len())]
                            };
                            (size, s)
                        })
                        .collect();
                    o
                })
                .collect();
            let oracle: Vec<OracleCuts> =
                outcomes.iter().map(|o| OracleCuts::of(&o.flows)).collect();
            let r = SweepResult::build(&spec, outcomes);
            for (p, c) in r.points.iter().zip(&oracle) {
                let got = [p.short, p.medium, p.long, p.all].map(bits);
                let want = [&c.short, &c.medium, &c.long, &c.all].map(|v| bits(Summary::of(v)));
                assert_eq!(got, want, "case {case}, seed {}", p.seed);
            }
            let [a] = &r.aggregates[..] else {
                panic!("one cell")
            };
            let short = oracle_pool(&oracle, |c| &c.short);
            let long = oracle_pool(&oracle, |c| &c.long);
            let medium = oracle_pool(&oracle, |c| &c.medium);
            let all = oracle_pool(&oracle, |c| &c.all);
            let got = [a.short, a.medium, a.long, a.all].map(bits);
            let want = [&short, &medium, &long, &all].map(|s| bits(s.summary()));
            assert_eq!(got, want, "case {case}");
            assert_eq!(tail_bits(a.short_tail), tail_bits(short.credible_tail()));
            assert_eq!(tail_bits(a.long_tail), tail_bits(long.credible_tail()));
            for (b, got) in a.buckets.iter().enumerate() {
                assert_eq!(got.le_bytes, SIZE_BUCKETS[b]);
                let want = oracle_pool(&oracle, |c| &c.buckets[b]).summary();
                assert_eq!(bits(got.summary), bits(want), "case {case}, bucket {b}");
            }
        }
    }

    #[test]
    fn buffer_cdf_is_opt_in_and_byte_stable_when_off() {
        let outcomes = || {
            vec![
                fake_outcome(Algo::PowerTcp, 0.5, 1, 1.0),
                fake_outcome(Algo::PowerTcp, 0.5, 2, 2.0),
                fake_outcome(Algo::Hpcc, 0.5, 1, 4.0),
                fake_outcome(Algo::Hpcc, 0.5, 2, 8.0),
            ]
        };
        let off = SweepResult::build(&spec2x2(), outcomes());
        assert!(off.aggregates.iter().all(|a| a.buffer_cdf.is_none()));
        assert!(!off.to_json().contains("buffer_cdf"));
        assert!(!off.to_csv().contains("pct,buffer_bytes"));

        let mut with_cdf = spec2x2();
        with_cdf.sweep_mut("test").buffer_cdf = true;
        let on = SweepResult::build(&with_cdf, outcomes());
        let cdf = on.aggregates[0].buffer_cdf.as_ref().unwrap();
        assert_eq!(cdf.len(), BUFFER_CDF_PCTS.len());
        // Pooled samples [1000, 2000] x 2 seeds: min 1000, max 2000,
        // monotone in between.
        assert_eq!(cdf[0], (0.0, 1000.0));
        assert_eq!(cdf[cdf.len() - 1], (100.0, 2000.0));
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
        let j = on.to_json();
        assert!(j.contains("\"buffer_cdf\": [{\"pct\": 0, \"bytes\": 1000}"));
        // The CDF only appends: stripping its field must restore the
        // default bytes exactly (so off-path reports never move).
        let csv = on.to_csv();
        assert!(csv.contains("scenario,algo,load,pct,buffer_bytes\n"));
        assert!(csv.starts_with(&off.to_csv()));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn json_is_well_formed_and_stable() {
        let spec = spec2x2();
        let outcomes = vec![
            fake_outcome(Algo::PowerTcp, 0.5, 1, 1.0),
            fake_outcome(Algo::PowerTcp, 0.5, 2, 2.0),
            fake_outcome(Algo::Hpcc, 0.5, 1, 4.0),
            fake_outcome(Algo::Hpcc, 0.5, 2, 8.0),
        ];
        let r = SweepResult::build(&spec, outcomes.clone());
        let j = r.to_json();
        assert_eq!(j, SweepResult::build(&spec, outcomes).to_json());
        // Balanced braces/brackets, quoted keys, null for missing long.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"scenario\": \"r\""));
        assert!(j.contains("\"long\": null"));
        assert!(j.contains("\"algo\": \"powertcp\""));
    }

    /// Split one CSV line into cells, honoring the quoting the report
    /// writers emit (`"..."` with `""` escaping a quote).
    fn csv_cells(line: &str) -> Vec<String> {
        let mut cells = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if cur.is_empty() => quoted = true,
                ',' if !quoted => cells.push(std::mem::take(&mut cur)),
                c => cur.push(c),
            }
        }
        cells.push(cur);
        cells
    }

    #[test]
    fn csv_cells_honor_quoting() {
        assert_eq!(csv_cells("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(csv_cells("a,,c"), vec!["a", "", "c"]);
        assert_eq!(
            csv_cells(r#""x, y",1,"he said ""hi""""#),
            vec!["x, y", "1", "he said \"hi\""]
        );
    }

    #[test]
    fn csv_has_header_and_one_row_per_aggregate() {
        // A comma in the spec's name must be quoted in all three tables
        // (the CDF table is opted in for it), beside a param's algo label.
        let tuned = crate::spec::ParamSpec { gamma: Some(0.5) };
        for param in [crate::spec::ParamSpec::default(), tuned] {
            let mut spec = spec2x2();
            spec.sweep_mut("test").buffer_cdf = !param.is_default();
            if !param.is_default() {
                spec.name = "r,x".into();
            }
            let outcomes = [
                fake_outcome(Algo::PowerTcp, 0.5, 1, 1.0),
                fake_outcome(Algo::PowerTcp, 0.5, 2, 2.0),
                fake_outcome(Algo::Hpcc, 0.5, 1, 4.0),
                fake_outcome(Algo::Hpcc, 0.5, 2, 8.0),
            ];
            let outcomes = outcomes.map(|o| PointOutcome { param, ..o }).to_vec();
            let csv = SweepResult::build(&spec, outcomes).to_csv();
            // Every row of every table has its header's cell count.
            for table in csv.split("\n\n") {
                let mut rows = table.lines().map(csv_cells);
                let header = rows.next().unwrap().len();
                for (i, row) in rows.enumerate() {
                    assert_eq!(row.len(), header, "row {i} of {table}");
                }
            }
            if !param.is_default() {
                assert!(csv.contains("\"r,x\",powertcp[gamma=0.5],0.5,2,6,6,2,"));
                assert!(csv.contains("\"r,x\",hpcc[gamma=0.5],0.5,5000,4,"));
                assert!(csv.contains("\"r,x\",hpcc[gamma=0.5],0.5,0,1000\n"));
                continue;
            }
            // Header + 2 aggregate rows, a blank separator, then the bucket
            // table: header + 8 buckets x 2 aggregates.
            assert_eq!(csv.lines().count(), 3 + 1 + 1 + 16);
            assert!(csv
                .lines()
                .next()
                .unwrap()
                .starts_with("scenario,algo,load"));
            assert!(csv.contains("r,hpcc,0.5,2,6,6,2"));
            assert!(csv.contains("scenario,algo,load,bucket_le_bytes,n,mean"));
            // Bucket 0 of powertcp pooled [1,2,2,4]: n=4, mean 2.25.
            assert!(csv.contains("r,powertcp,0.5,5000,4,2.25"));
            // Empty bucket rows keep the schema with n=0.
            assert!(csv.contains("r,powertcp,0.5,20000,0,,"));
        }
    }

    #[test]
    fn json_emits_per_bucket_summaries() {
        let spec = spec2x2();
        let outcomes = vec![
            fake_outcome(Algo::PowerTcp, 0.5, 1, 1.0),
            fake_outcome(Algo::PowerTcp, 0.5, 2, 2.0),
            fake_outcome(Algo::Hpcc, 0.5, 1, 4.0),
            fake_outcome(Algo::Hpcc, 0.5, 2, 8.0),
        ];
        let j = SweepResult::build(&spec, outcomes).to_json();
        assert!(j.contains("\"buckets\": [{\"le_bytes\": 5000, \"summary\": {\"count\": 4"));
        assert!(j.contains("{\"le_bytes\": 30000000, \"summary\": null}"));
    }
}
