//! # dcn-scenarios
//!
//! The experiment-orchestration subsystem of the PowerTCP reproduction:
//! instead of one hand-written binary per figure, an experiment is a
//! declarative [`ScenarioSpec`] — topology × workload × sweep axes —
//! written in TOML (the built-in [`library`] of paper scenarios is one
//! TOML file each) and executed by a parallel, deterministic sweep
//! runner.
//!
//! ## The pieces
//!
//! * [`spec`] — [`ScenarioSpec`]: fat-tree / star / dumbbell topologies,
//!   Poisson (websearch or fixed-size) and incast workloads, and the
//!   sweep grid (algorithms × loads × seeds); its TOML format — reader,
//!   writer, ranges, cache fragment — is one table of rows (the private
//!   `schema` module) over the dependency-free parser in [`toml`].
//! * [`algo`] — the [`Algo`] registry mapping the paper's protocol names
//!   to CC constructors, switch requirements, and transports.
//! * [`engine`] — one sweep point = one deterministic single-threaded
//!   `Simulator` run, reduced to each flow's size and FCT slowdown,
//!   completion counts, drops and buffer occupancy ([`PointOutcome`]);
//!   [`report`] cuts the flows into the figures' size buckets and classes.
//! * [`trace_engine`] / [`analytic_engine`] — one lineup entry = one
//!   instrumented simulation (or one fluid-model integration), reduced
//!   to a telemetry `TraceEntry`.
//! * [`sweep`] — the one executor. Every scenario kind expands to a list
//!   of [`WorkItem`]s (sweep points or lineup entries; [`work_items`]),
//!   each a pure function of `(spec, item)` producing one [`Outcome`]
//!   ([`compute`]); [`run_scenario_observed`] shards the items over OS
//!   threads and [`reduce`]s the outcomes in index order, so output is
//!   byte-identical at any thread count.
//! * [`report`] — structured [`SweepResult`]: per-point and pooled
//!   per-(algo, load) summaries as JSON, CSV, or a markdown table.
//! * [`json`] — the one JSON reader, for every byte from outside the
//!   process (cache files, worker lines, manifests); [`diff`] compares
//!   two reports it reads.
//! * [`library`] — every figure and panel of the paper as a TOML file
//!   under `builtins/`, compiled in and looked up by name ([`builtin`],
//!   [`builtin_specs`]).
//!
//! The executor is generic over a one-method [`PointSource`] ("where
//! does the outcome of item *i* come from?"); the default [`Compute`]
//! source runs everything in-process, and the `dcn-runner` crate layers
//! a content-addressed result cache and multi-process sharding on the
//! same `work_items` / `reduce` pair. [`run_scenario`], [`run_sweep`]
//! and [`run_trace`] are thin typed wrappers (`Compute` + no observer).
//! The `xp` CLI binary lives in `dcn-runner`.
//!
//! ## Example
//!
//! ```
//! use dcn_scenarios::{run_sweep, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_toml(
//!     r#"
//! name = "quick-incast"
//! horizon_ms = 1.0
//! drain_ms = 2.0
//!
//! [topology]
//! kind = "star"
//! hosts = 6
//! host_gbps = 25.0
//!
//! [workload.incast]
//! rate_per_sec = 1000.0
//! request_bytes = 120000
//! fan_in = 3
//! periodic = true
//!
//! [sweep]
//! algos = ["powertcp", "hpcc"]
//! seeds = [42]
//! "#,
//! )
//! .unwrap();
//!
//! let result = run_sweep(&spec, 2).unwrap();
//! assert_eq!(result.aggregates.len(), 2); // one per algorithm
//! ```

#![warn(missing_docs)]

pub mod algo;
pub mod analytic_engine;
pub mod diff;
pub mod engine;
pub mod flow_engine;
pub mod json;
pub mod library;
pub mod obs;
pub mod report;
mod schema;
pub mod spec;
pub mod sweep;
pub mod toml;
pub mod trace_engine;

pub use algo::Algo;
pub use analytic_engine::{analytic_entries, run_analytic_entry, AnalyticEntrySpec};
pub use diff::{diff_reports, DiffOutcome};
pub use engine::{run_point, run_sweep_point_observed, PointOutcome, Scale};
pub use library::{builtin, builtin_specs};
pub use obs::{
    eta, point_label, sim_stats_from_json, sim_stats_json, CacheStatus, NullObserver, Observer,
    PointObs, SpanRecord, SummaryRecord,
};
pub use report::{
    AggregateReport, BucketReport, PointReport, SweepResult, BUFFER_CDF_PCTS, SIZE_BUCKETS,
};
pub use spec::{
    AnalyticScenario, EngineKind, IncastSpec, LineupSpec, ParamSpec, PoissonSpec, ScenarioKind,
    ScenarioSpec, SizeSpec, SweepBody, SweepSpec, TimeseriesBody, TopologySpec, TraceScenario,
    WorkloadSpec,
};
pub use sweep::{
    compute, panic_message, reduce, run_scenario, run_scenario_observed, run_sweep, run_trace,
    sweep_points, work_items, Compute, Outcome, PointSource, ScenarioOutput, SweepPoint, WorkItem,
};
pub use trace_engine::{run_trace_entry_observed, trace_entries, TraceEntrySpec};
// The workspace's one JSON string/number writer pair, re-exported for
// crates that depend on this one alone (`dcn-serve`).
pub use dcn_telemetry::{jf, jstr};
