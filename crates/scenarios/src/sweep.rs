//! The executor: one work-item model, one parallel loop.
//!
//! Every scenario kind runs as the same thing — a list of independent,
//! deterministic [`WorkItem`]s ([`work_items`]: sweep points for FCT
//! sweeps, lineup entries for timeseries and analytic scenarios), each
//! producing one [`Outcome`], reduced in index order by [`reduce`].
//! [`run_scenario_observed`] is the only executor: it shards items
//! across OS threads with a work-stealing counter and writes each
//! outcome into its item's slot. Because an outcome is a pure function
//! of `(spec, item)` and results are ordered by index — never by
//! completion order — the [`ScenarioOutput`] is byte-identical no
//! matter how many threads run it.

use crate::algo::Algo;
use crate::analytic_engine::{analytic_entries, run_analytic_entry, AnalyticEntrySpec};
use crate::engine::{run_sweep_point_observed, PointOutcome};
use crate::obs::{point_label, CacheStatus, NullObserver, Observer, PointObs, SpanRecord};
use crate::report::SweepResult;
use crate::spec::{ParamSpec, ScenarioKind, ScenarioSpec};
use crate::trace_engine::{run_trace_entry_observed, trace_entries, TraceEntrySpec};
use dcn_sim::SimStats;
use dcn_telemetry::{TraceEntry, TraceReport};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One cell of the sweep cross-product.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Position in the expansion (stable: algo-major, then params, then
    /// load, then seed).
    pub index: usize,
    /// Algorithm.
    pub algo: Algo,
    /// Algorithm-parameter overrides (default when no params axis).
    pub param: ParamSpec,
    /// Load (0 for incast-only workloads).
    pub load: f64,
    /// Workload seed.
    pub seed: u64,
}

/// Expand a sweep's axes into points, in stable order (a scenario of
/// another kind has none).
pub fn sweep_points(spec: &ScenarioSpec) -> Vec<SweepPoint> {
    let ScenarioKind::Sweep(sweep) = &spec.kind else {
        return Vec::new();
    };
    let axes = &sweep.sweep;
    // No `params` axis is the one default entry; no Poisson traffic is
    // the one pseudo-load 0 (incast-only workloads have no load axis).
    let params = match axes.params.as_slice() {
        [] => &[ParamSpec::default()],
        params => params,
    };
    let loads = match sweep.workload.poisson {
        Some(_) => axes.loads.as_slice(),
        None => &[0.0],
    };
    let cells = axes.algos.len() * params.len() * loads.len() * axes.seeds.len();
    let mut out = Vec::with_capacity(cells);
    for &algo in &axes.algos {
        for &param in params {
            for &load in loads {
                for &seed in &axes.seeds {
                    out.push(SweepPoint {
                        index: out.len(),
                        algo,
                        param,
                        load,
                        seed,
                    });
                }
            }
        }
    }
    out
}

/// One unit of work: a sweep point or a lineup entry.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkItem {
    /// One cell of an FCT sweep.
    Point(SweepPoint),
    /// One timeseries lineup entry.
    Trace(TraceEntrySpec),
    /// One analytic lineup entry.
    Analytic(AnalyticEntrySpec),
}

impl WorkItem {
    /// Position in the spec's stable expansion order.
    pub fn index(&self) -> usize {
        match self {
            WorkItem::Point(p) => p.index,
            WorkItem::Trace(e) => e.index,
            WorkItem::Analytic(e) => e.index,
        }
    }

    /// Span label: `algo[params]/loadL/seedS` for sweep points, the
    /// entry label for lineup entries.
    pub fn label(&self) -> String {
        match self {
            WorkItem::Point(p) => point_label(p),
            WorkItem::Trace(e) => e.label.clone(),
            WorkItem::Analytic(e) => e.label.clone(),
        }
    }

    /// Whether `outcome` is the kind this item produces (a cache file or
    /// worker line of the other kind must not be served for it).
    pub fn accepts(&self, outcome: &Outcome) -> bool {
        matches!(
            (self, outcome),
            (WorkItem::Point(_), Outcome::Sweep(_))
                | (
                    WorkItem::Trace(_) | WorkItem::Analytic(_),
                    Outcome::Trace(_)
                )
        )
    }
}

/// Expand a spec into its work items, in stable index order: the one
/// place, with [`compute`], that picks the engine by the spec's kind.
pub fn work_items(spec: &ScenarioSpec) -> Vec<WorkItem> {
    match &spec.kind {
        ScenarioKind::Sweep(_) => sweep_points(spec)
            .into_iter()
            .map(WorkItem::Point)
            .collect(),
        ScenarioKind::Timeseries(timeseries) => trace_entries(timeseries)
            .into_iter()
            .map(WorkItem::Trace)
            .collect(),
        ScenarioKind::Analytic(analytic) => analytic_entries(analytic)
            .into_iter()
            .map(WorkItem::Analytic)
            .collect(),
    }
}

/// The result of one work item. Boxed so cached and worker-transported
/// outcomes move through the executor without copying their vectors.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Raw outcome of one sweep point.
    Sweep(Box<PointOutcome>),
    /// One traced lineup entry.
    Trace(Box<TraceEntry>),
}

/// Compute one work item in-process with a fresh deterministic engine
/// run, returning the engine's counters when a simulator ran
/// (analytic/fluid entries have none). Panics on an item of another
/// kind than the spec's.
pub fn compute(spec: &ScenarioSpec, item: &WorkItem) -> (Outcome, Option<SimStats>) {
    match (item, &spec.kind) {
        (WorkItem::Point(p), _) => {
            let (out, stats) = run_sweep_point_observed(spec, p);
            (Outcome::Sweep(Box::new(out)), Some(stats))
        }
        (WorkItem::Trace(e), ScenarioKind::Timeseries(timeseries)) => {
            let (out, stats) = run_trace_entry_observed(timeseries, e);
            (Outcome::Trace(Box::new(out)), Some(stats))
        }
        (WorkItem::Analytic(e), ScenarioKind::Analytic(analytic)) => {
            let out = run_analytic_entry(analytic, e);
            (Outcome::Trace(Box::new(out)), None)
        }
        (entry, _) => panic!("entry {:?} is not of {:?}'s kind", entry.label(), spec.name),
    }
}

/// Reduce outcomes (in [`work_items`] order) to the scenario's report.
/// Shared by the thread executor and the multi-process merge, so both
/// render through the exact same reduction. Errors when an outcome is
/// not the kind the spec's items produce.
pub fn reduce(spec: &ScenarioSpec, outcomes: Vec<Outcome>) -> Result<ScenarioOutput, String> {
    if matches!(spec.kind, ScenarioKind::Sweep(_)) {
        let points = outcomes
            .into_iter()
            .map(|o| match o {
                Outcome::Sweep(p) => Ok(*p),
                Outcome::Trace(_) => Err("trace outcome for a sweep point".to_string()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScenarioOutput::Sweep(SweepResult::build(spec, points)))
    } else {
        let entries = outcomes
            .into_iter()
            .map(|o| match o {
                Outcome::Trace(e) => Ok(*e),
                Outcome::Sweep(_) => Err("sweep outcome for a trace entry".to_string()),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScenarioOutput::Trace(TraceReport {
            name: spec.name.clone(),
            description: spec.description.clone(),
            entries,
        }))
    }
}

/// Where an item's outcome comes from. The executor is generic over
/// this so alternative execution layers — the content-addressed result
/// cache in `dcn-runner` — can substitute stored outcomes without
/// reimplementing sharding, ordering, or reduction.
///
/// Implementations must uphold the determinism contract: the returned
/// outcome must be **identical** (bit-for-bit, for every float) to what
/// [`compute`] would produce for the same `(spec, item)` — the
/// byte-identical-reports guarantee rests on it.
pub trait PointSource: Sync {
    /// Produce the outcome of one work item plus its observability
    /// sidecar (cache disposition, engine counters).
    fn produce(&self, spec: &ScenarioSpec, item: &WorkItem) -> (Outcome, PointObs);
}

/// The default [`PointSource`]: [`compute`] every item in-process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Compute;

impl PointSource for Compute {
    fn produce(&self, spec: &ScenarioSpec, item: &WorkItem) -> (Outcome, PointObs) {
        let (outcome, stats) = compute(spec, item);
        let cache = CacheStatus::Computed;
        (outcome, PointObs { cache, stats })
    }
}

/// Run any scenario on `threads` worker threads (clamped to
/// `[1, num_points]`), producing each item through `source` and
/// reporting a [`SpanRecord`] per item to `obs` as items complete. The
/// spec is validated first. Observation is outside the report path: the
/// output is byte-identical for any observer and any `threads` value
/// (spans are derived from the source's sidecar and a wall clock;
/// outcomes flow through untouched).
///
/// # Panics
///
/// If an item panics, with `point <i> (<label>): <its message>` for the
/// lowest such index — the same text at any `threads` value.
pub fn run_scenario_observed(
    spec: &ScenarioSpec,
    threads: usize,
    source: &dyn PointSource,
    obs: &dyn Observer,
) -> Result<ScenarioOutput, String> {
    spec.validate()?;
    let items = work_items(spec);
    let outcomes = run_indexed(items.len(), threads, |i| {
        #[expect(
            clippy::disallowed_methods,
            reason = "executor span timing — observability only, never in report bytes"
        )]
        let t0 = Instant::now();
        let (outcome, pobs) = source.produce(spec, &items[i]);
        obs.span(&SpanRecord {
            index: i,
            label: items[i].label(),
            cache: pobs.cache,
            shard: None,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            stats: pobs.stats,
        });
        outcome
    });
    match outcomes {
        Ok(outcomes) => reduce(spec, outcomes),
        Err((i, payload)) => {
            let why = panic_message(payload.as_ref());
            panic!("point {i} ({}): {why}", items[i].label());
        }
    }
}

/// The message a caught panic carried (`panic!` with a literal or with a
/// format string; anything else has none to show).
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// [`run_scenario_observed`] computing every item in-process, unobserved.
pub fn run_scenario(spec: &ScenarioSpec, threads: usize) -> Result<ScenarioOutput, String> {
    run_scenario_observed(spec, threads, &Compute, &NullObserver)
}

/// [`run_scenario`] for an FCT sweep, typed: errors on a timeseries or
/// analytic scenario (those run through [`run_trace`]).
pub fn run_sweep(spec: &ScenarioSpec, threads: usize) -> Result<SweepResult, String> {
    match run_scenario(spec, threads)? {
        ScenarioOutput::Sweep(r) => Ok(r),
        ScenarioOutput::Trace(_) => Err(format!(
            "scenario {:?} is a timeseries/analytic scenario; run it with \
             run_scenario/run_trace",
            spec.name
        )),
    }
}

/// [`run_scenario`] for a timeseries or analytic scenario, typed: errors
/// on a sweep (those run through [`run_sweep`]).
pub fn run_trace(spec: &ScenarioSpec, threads: usize) -> Result<TraceReport, String> {
    match run_scenario(spec, threads)? {
        ScenarioOutput::Trace(r) => Ok(r),
        ScenarioOutput::Sweep(_) => Err(format!(
            "scenario {:?} is a sweep; run it with run_sweep",
            spec.name
        )),
    }
}

/// The result of running a scenario of either kind.
#[derive(Clone, Debug)]
pub enum ScenarioOutput {
    /// An FCT sweep result.
    Sweep(SweepResult),
    /// A time-series trace report.
    Trace(TraceReport),
}

impl ScenarioOutput {
    /// Render as a human-readable markdown table.
    pub fn table(&self) -> String {
        match self {
            ScenarioOutput::Sweep(r) => r.table(),
            ScenarioOutput::Trace(r) => r.table(),
        }
    }

    /// Render as deterministic JSON.
    pub fn to_json(&self) -> String {
        match self {
            ScenarioOutput::Sweep(r) => r.to_json(),
            ScenarioOutput::Trace(r) => r.to_json(),
        }
    }

    /// Render as deterministic CSV.
    pub fn to_csv(&self) -> String {
        match self {
            ScenarioOutput::Sweep(r) => r.to_csv(),
            ScenarioOutput::Trace(r) => r.to_csv(),
        }
    }
}

/// A caught unwind: the index that panicked and what `panic!` carried.
type Failure = (usize, Box<dyn Any + Send>);

/// Run `f(0..n)` on `threads` worker threads (clamped to `[1, n]`) with a
/// work-stealing counter, collecting results in index order. Because each
/// call must be a pure function of its index and results land in their
/// own slot — never in completion order — output is identical at any
/// thread count. So is failure: a call that panics is caught into its
/// slot, no further index is claimed, and the lowest failed index comes
/// back with its payload. (Left to unwind, a scoped thread's payload is
/// replaced by "a scoped thread panicked" and the message is lost.)
fn run_indexed<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, Failure> {
    // Unwind-safe: a failed call's slot holds only its payload, and
    // nothing else it touched is read again.
    let call = |i| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| (i, payload));
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(call).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, Failure>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // Work stealing: whichever worker is free takes the next
                // index; the outcome lands in the index's own slot, so
                // scheduling order cannot leak into results.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = call(i);
                if out.is_err() {
                    next.store(n, Ordering::Relaxed);
                }
                *slots[i].lock().expect("slot poisoned") = Some(out);
            });
        }
    });
    // Indices are claimed in order, so every slot below a failed one is
    // filled: the first `Err` met is the lowest, and it is met before any
    // slot left unclaimed.
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every slot below the first failure is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ScenarioSpec {
        let text = r#"
name = "exec-test"
horizon_ms = 1.0
drain_ms = 2.0
[topology]
kind = "star"
hosts = 6
host_gbps = 25.0
[workload.poisson]
sizes = "fixed"
fixed_bytes = 30000
[workload.incast]
rate_per_sec = 1000.0
request_bytes = 120000
fan_in = 3
periodic = true
[sweep]
algos = ["powertcp", "hpcc"]
loads = [0.3, 0.5]
seeds = [1, 2]
"#;
        ScenarioSpec::from_toml(text).expect("the test sweep parses")
    }

    #[test]
    fn expansion_is_algo_major_and_indexed() {
        let spec = small_spec();
        let pts = sweep_points(&spec);
        assert_eq!(pts.len(), 2 * 2 * 2);
        assert_eq!(pts[0].algo, Algo::PowerTcp);
        assert_eq!((pts[0].load, pts[0].seed), (0.3, 1));
        assert_eq!((pts[1].load, pts[1].seed), (0.3, 2));
        assert_eq!((pts[2].load, pts[2].seed), (0.5, 1));
        assert_eq!(pts[4].algo, Algo::Hpcc);
        assert!(pts.iter().enumerate().all(|(i, p)| p.index == i));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = small_spec();
        let serial = run_sweep(&spec, 1).expect("serial");
        let parallel = run_sweep(&spec, 4).expect("parallel");
        let wide = run_sweep(&spec, 64).expect("over-provisioned");
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.to_json(), wide.to_json());
        assert_eq!(serial.to_csv(), parallel.to_csv());
    }

    #[test]
    fn invalid_spec_is_rejected_before_running() {
        let mut spec = small_spec();
        spec.sweep_mut("test").sweep.algos.clear();
        assert!(run_sweep(&spec, 2).is_err());
    }

    /// [`Compute`], except that the listed indices panic.
    struct Faulty(&'static [usize]);

    impl PointSource for Faulty {
        fn produce(&self, spec: &ScenarioSpec, item: &WorkItem) -> (Outcome, PointObs) {
            if self.0.contains(&item.index()) {
                panic!("buffer underflow at switch 3");
            }
            Compute.produce(spec, item)
        }
    }

    /// At `threads = 1` the payload used to survive; from a scoped thread
    /// it came back as "a scoped thread panicked".
    #[test]
    fn a_panicking_point_keeps_its_message_and_names_itself() {
        let spec = small_spec();
        let label = work_items(&spec)[1].label();
        for threads in [1, 2, 4] {
            let run = || run_scenario_observed(&spec, threads, &Faulty(&[1, 5]), &NullObserver);
            let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("point 1 panics");
            assert_eq!(
                payload
                    .downcast_ref::<String>()
                    .expect("a formatted message"),
                &format!("point 1 ({label}): buffer underflow at switch 3"),
                "threads = {threads}"
            );
        }
    }

    /// Records `(index, label)` of every span it is handed.
    #[derive(Default)]
    struct Recording(Mutex<Vec<(usize, String)>>);

    impl Observer for Recording {
        fn span(&self, span: &SpanRecord) {
            let mut seen = self.0.lock().expect("recording poisoned");
            seen.push((span.index, span.label.clone()));
        }
    }

    #[test]
    fn every_scenario_kind_runs_through_the_one_executor() {
        // One sweep, one simulated timeseries, one analytic grid.
        for name in ["fig6-small", "fig5", "fig3-small"] {
            let spec = crate::library::builtin(name).expect("builtin");
            let items = work_items(&spec);
            assert_eq!(items.len(), spec.num_points(), "{name}");
            assert!(items.iter().enumerate().all(|(i, w)| w.index() == i));

            let rec = Recording::default();
            let out = run_scenario_observed(&spec, 3, &Compute, &rec).expect(name);
            // One span per item, labelled by the item (completion order
            // is free; index order is the contract).
            let mut spans = rec.0.into_inner().expect("recording poisoned");
            spans.sort();
            let want: Vec<(usize, String)> = items.iter().map(|w| (w.index(), w.label())).collect();
            assert_eq!(spans, want, "{name}");

            // The typed wrappers are the same executor, unobserved.
            let (json, csv) = match spec.kind.key() {
                "sweep" => {
                    assert!(run_trace(&spec, 1).is_err(), "{name} is not a trace");
                    let r = run_sweep(&spec, 1).expect(name);
                    (r.to_json(), r.to_csv())
                }
                _ => {
                    assert!(run_sweep(&spec, 1).is_err(), "{name} is not a sweep");
                    let r = run_trace(&spec, 1).expect(name);
                    (r.to_json(), r.to_csv())
                }
            };
            assert_eq!(out.to_json(), json, "{name}");
            assert_eq!(out.to_csv(), csv, "{name}");
        }
    }
}
