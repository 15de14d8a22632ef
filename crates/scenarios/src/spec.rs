//! Declarative experiment specifications.
//!
//! A [`ScenarioSpec`] fully describes one experiment family: a topology
//! (fat-tree / star / dumbbell), a workload (Poisson background traffic,
//! an incast overlay, or both), a time horizon, and the sweep axes
//! (algorithm grid × load grid × seed grid). Specs are plain data: they
//! are read from TOML (`xp run spec.toml`, and every builtin of
//! [`crate::library`] is a TOML file), or assembled in code from a
//! constructor, a few builder methods and the public fields; the
//! cross-product of their sweep axes is executed by
//! [`crate::sweep::run_sweep`].

use crate::algo::Algo;
use crate::schema::{self, Pass, Ty, Val};
use crate::toml::Value;
use dcn_sim::topology::{AGGS_PER_POD, CORES, PODS, TORS, TORS_PER_POD};
use dcn_sim::PortId;
use fluid_model::{FluidParams, Law};
use powertcp_core::{Bandwidth, Tick};
use std::fmt::Write as _;

/// `ensure!(rule, "message", args…)`: the error of a spec that breaks a
/// rule relating several of its fields.
macro_rules! ensure {
    ($holds:expr, $($message:tt)+) => {{
        let holds: bool = $holds;
        if !holds {
            return Err(format!($($message)+));
        }
    }};
}

/// The network under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologySpec {
    /// The paper's oversubscribed fat-tree (§4.1). Oversubscription is
    /// set by `hosts_per_tor × host_gbps` versus the ToR uplink capacity
    /// (`AGGS_PER_POD × fabric_gbps`: 2 uplinks; the shape is
    /// [`dcn_sim::topology`]'s constants).
    FatTree {
        /// Hosts per ToR (paper: 32; `tiny` scale: 2).
        hosts_per_tor: usize,
        /// Host NIC bandwidth in Gbps.
        host_gbps: f64,
        /// Switch-to-switch bandwidth in Gbps.
        fabric_gbps: f64,
    },
    /// A single-switch star — the canonical incast fixture: every
    /// sender shares the receiver's downlink.
    Star {
        /// Number of hosts (≥ 2).
        hosts: usize,
        /// Host NIC bandwidth in Gbps.
        host_gbps: f64,
    },
    /// Two switches with one bottleneck link; `pairs` senders on the
    /// left, `pairs` receivers on the right. All Poisson traffic is
    /// oriented left → right so `load` is bottleneck utilization.
    Dumbbell {
        /// Hosts per side (≥ 1).
        pairs: usize,
        /// Host NIC bandwidth in Gbps.
        host_gbps: f64,
        /// Bottleneck bandwidth in Gbps.
        bottleneck_gbps: f64,
    },
}

impl TopologySpec {
    /// Total host count.
    pub fn num_hosts(&self) -> usize {
        match self {
            // Saturating: validation asks before it has bounded anything.
            TopologySpec::FatTree { hosts_per_tor, .. } => TORS.saturating_mul(*hosts_per_tor),
            TopologySpec::Star { hosts, .. } => *hosts,
            TopologySpec::Dumbbell { pairs, .. } => pairs * 2,
        }
    }

    /// Port count of the widest switch the packet engine builds for this
    /// topology, with the key that sizes it (saturating: validation asks
    /// before it has bounded anything).
    fn widest_switch(&self) -> (&'static str, usize) {
        match *self {
            TopologySpec::FatTree { hosts_per_tor, .. } => {
                // A ToR's hosts and uplinks, an agg's ToRs and cores, a
                // core's aggs.
                let tor = hosts_per_tor.saturating_add(AGGS_PER_POD);
                let widest = tor.max(TORS_PER_POD + CORES).max(PODS * AGGS_PER_POD);
                ("hosts_per_tor", widest)
            }
            TopologySpec::Star { hosts, .. } => ("hosts", hosts),
            TopologySpec::Dumbbell { pairs, .. } => ("pairs", pairs.saturating_add(1)),
        }
    }

    /// The maximum incast fan-in this topology supports (responders must
    /// live outside the requester's rack).
    pub fn max_fan_in(&self) -> usize {
        match self {
            TopologySpec::FatTree { hosts_per_tor, .. } => {
                self.num_hosts().saturating_sub(*hosts_per_tor)
            }
            TopologySpec::Star { hosts, .. } => hosts.saturating_sub(1),
            TopologySpec::Dumbbell { pairs, .. } => *pairs,
        }
    }
}

/// Convert Gbps (possibly fractional, e.g. 12.5) to [`Bandwidth`].
pub(crate) fn gbps(g: f64) -> Bandwidth {
    Bandwidth::from_bps((g * 1e9).round() as u64)
}

/// Flow-size distribution for Poisson background traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeSpec {
    /// The paper's web search distribution (DCTCP §4.1).
    Websearch,
    /// A 50/50 mixture of the web-search and Hadoop distributions — the
    /// heavy-tailed datacenter mix of the 100k-host flow-engine
    /// scenarios ([`dcn_workloads::SizeCdf::websearch_hadoop`]).
    WebsearchHadoop,
    /// Every flow has the same size (controlled experiments).
    Fixed(u64),
}

/// Which engine executes a sweep's points.
///
/// The packet engine is the default and the source of truth: full
/// per-packet simulation with congestion control, switch buffers, and
/// INT telemetry. The flow engine (`dcn-flow`) trades all transport
/// dynamics for scale: flows progress at max-min fair rates between
/// arrival/completion events, which is what makes 100k-host fat-trees
/// and million-flow mixes tractable. Both produce the same
/// [`crate::SweepResult`] rows; `dcn-runner` salts their cache keys
/// with independent behavioral versions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Per-packet simulation via `dcn-sim` (the default).
    #[default]
    Packet,
    /// Flow-level max-min shared-bandwidth simulation via `dcn-flow`.
    Flow,
}

impl EngineKind {
    /// The TOML key of this engine kind.
    pub fn key(self) -> &'static str {
        match self {
            EngineKind::Packet => "packet",
            EngineKind::Flow => "flow",
        }
    }

    /// Parse a TOML engine value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "packet" => Ok(EngineKind::Packet),
            "flow" => Ok(EngineKind::Flow),
            other => Err(format!(
                "unknown engine {other:?} (expected packet or flow)"
            )),
        }
    }
}

/// Poisson background traffic at the swept load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PoissonSpec {
    /// Flow-size distribution.
    pub sizes: SizeSpec,
}

/// The synthetic incast overlay of §4.1 (paper Figure 7c–f).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IncastSpec {
    /// Requests per second across the fabric.
    pub rate_per_sec: f64,
    /// Total response bytes per request (split across responders).
    pub request_bytes: u64,
    /// Responding servers per request.
    pub fan_in: usize,
    /// Fire requests at a fixed period instead of Poisson arrivals.
    pub periodic: bool,
}

/// What traffic the scenario offers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkloadSpec {
    /// Poisson background traffic (rate set by the swept `load`).
    pub poisson: Option<PoissonSpec>,
    /// Incast overlay.
    pub incast: Option<IncastSpec>,
}

/// What a scenario produces when run, with everything only that kind of
/// scenario has.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioKind {
    /// The default: an FCT sweep over (algorithm × params × load × seed),
    /// reduced to slowdown/buffer statistics ([`crate::sweep::run_sweep`]).
    Sweep(SweepBody),
    /// Time-series traces: one instrumented run per algorithm (or lineup
    /// entry), producing sampled channels — queue depth, throughput,
    /// per-flow cwnd, PowerTCP Γ — instead of FCT statistics
    /// ([`crate::sweep::run_trace`]).
    Timeseries(TimeseriesBody),
    /// Fluid-model experiments: no simulation at all — phase portraits,
    /// parameter ablations, and theorem checks over `fluid-model`, one
    /// deterministic computation per grid entry
    /// ([`crate::analytic_engine`]); `[analytic]` is all there is.
    Analytic(AnalyticSpec),
}

impl ScenarioKind {
    /// The TOML `kind` value (and that of summary records and `--meta`).
    pub fn key(&self) -> &'static str {
        match self {
            ScenarioKind::Sweep(_) => "sweep",
            ScenarioKind::Timeseries(_) => "timeseries",
            ScenarioKind::Analytic(_) => "analytic",
        }
    }
}

/// An FCT sweep: a network, the traffic offered to it, a time box and
/// the four axes whose cross-product is the sweep's points.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepBody {
    /// Network under test.
    pub topology: TopologySpec,
    /// Offered traffic.
    pub workload: WorkloadSpec,
    /// Workload generation horizon, milliseconds.
    pub horizon_ms: f64,
    /// Extra drain time after the horizon, milliseconds.
    pub drain_ms: f64,
    /// Sweep axes.
    pub sweep: SweepSpec,
    /// Which engine runs the points.
    pub engine: EngineKind,
    /// Emit per-aggregate buffer-occupancy CDF columns in the report
    /// (packet engine only; a report option, not physics — stripped
    /// from [`ScenarioSpec::cache_fragment`]). Off by default so
    /// existing baselines stay byte-identical.
    pub buffer_cdf: bool,
}

impl SweepBody {
    /// The generation horizon as simulator time.
    pub fn horizon(&self) -> Tick {
        Tick::from_secs_f64(self.horizon_ms / 1e3)
    }

    /// When the run stops: horizon plus drain (saturating, as the
    /// conversion of an absurd horizon itself does).
    pub fn run_end(&self) -> Tick {
        let drain = Tick::from_secs_f64(self.drain_ms / 1e3);
        Tick::from_ps(self.horizon().as_ps().saturating_add(drain.as_ps()))
    }
}

/// A time-series scenario: the traced experiment (which implies its own
/// fixture, traffic and run length) and the lineup traced one by one.
/// Nothing in it is random, so it has no seed.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeseriesBody {
    /// The `[trace]` table.
    pub trace: TraceSpec,
    /// The algorithms traced. `response` runs none: its one entry is a
    /// PowerTCP placeholder, and its spec has no `[sweep]`.
    pub lineup: LineupSpec,
}

/// How long `rdcn`'s `weeks` of the rotor schedule run. `Err` if
/// simulator time cannot hold them.
pub fn rotor_run_length(weeks: u64) -> Result<Tick, String> {
    let week = rdcn::RotorSchedule::paper_defaults().week().as_ps();
    let ps = week.checked_mul(weeks).ok_or_else(|| {
        format!(
            "trace.weeks = {weeks} is too long a run: simulator time holds at most {} \
             rotor weeks of {week} ps",
            u64::MAX / week
        )
    })?;
    Ok(Tick::from_ps(ps))
}

/// `[sweep]` of a timeseries scenario: one traced run per algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct LineupSpec {
    /// Algorithms to trace.
    pub algos: Vec<Algo>,
}

/// Probe configuration plus the traced experiment of a `timeseries`
/// scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpec {
    /// The traced experiment.
    pub scenario: TraceScenario,
    /// Sampling tick of all probes, microseconds.
    pub tick_us: f64,
    /// Ring capacity per channel (oldest samples evicted beyond this).
    pub max_samples: usize,
    /// Maximum exported rows per channel (stride decimation).
    pub max_rows: usize,
    /// Probe selection: record only these channels (empty = all). Names
    /// must come from [`TraceScenario::channel_names`]; filtered-out
    /// probes are not registered at all, but scalar stats are unaffected
    /// (their windowed accumulators run regardless).
    pub channels: Vec<String>,
    /// Windowed-mean reducer: average consecutive windows of this many
    /// samples before decimation (low-pass smoothing of exported
    /// channels; 1 = off). Scalar stats are unaffected — their streaming
    /// accumulators see every raw sample.
    pub window: usize,
}

impl TraceSpec {
    /// A trace spec with the `[trace]` table's default probe
    /// configuration: 20 µs tick, 4096-sample rings, 120 exported rows,
    /// no windowing, every channel.
    pub fn new(scenario: TraceScenario) -> Self {
        // Defaulted under the keyless scenario, so that only the probe
        // keys are touched and the caller's scenario goes in as given.
        let mut trace = TraceSpec {
            scenario: TraceScenario::Response,
            tick_us: 0.0,
            max_samples: 0,
            max_rows: 0,
            channels: Vec::new(),
            window: 0,
        };
        schema::apply_defaults(schema::TRACE.fields, &mut trace);
        trace.scenario = scenario;
        trace
    }
}

/// The traced experiments: the paper's temporal figures as declarative
/// data. Each defines its own fixture (a star sized by the scenario's
/// own keys, or the `rdcn` crate's rotor fabric).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceScenario {
    /// Figure 2: the analytic voltage/current/power multiplicative-decrease
    /// response curves of the fluid model (no simulation).
    Response,
    /// Figure 4: a long flow to one receiver; at `at_ms`, `fan_in` other
    /// hosts burst `burst_bytes` each into the same 25G downlink.
    Incast {
        /// Incast fan-in (number of burst senders).
        fan_in: usize,
        /// Bytes each burst sender transmits.
        burst_bytes: u64,
        /// When the incast fires, milliseconds into the run.
        at_ms: f64,
        /// Run length, milliseconds.
        horizon_ms: f64,
    },
    /// Figure 5: `flows` long flows joining one shared bottleneck at
    /// `stagger_ms` intervals — fairness and convergence.
    Fairness {
        /// Number of staggered senders.
        flows: usize,
        /// Join interval, milliseconds.
        stagger_ms: f64,
        /// Run length, milliseconds.
        horizon_ms: f64,
    },
    /// Figure 8: the reconfigurable-DCN case study — rack-pair throughput
    /// and VOQ occupancy over the rotor schedule.
    Rdcn {
        /// Rotor weeks to simulate: the run's length
        /// ([`rotor_run_length`]).
        weeks: u64,
        /// Packet-network (non-circuit) bandwidth in Gbps.
        packet_gbps: f64,
        /// reTCP prebuffering values to trace (µs); each expands to one
        /// lineup entry per `retcp` in the algorithm grid.
        retcp_prebuffer_us: Vec<f64>,
    },
}

impl TraceScenario {
    /// Host count of the star the packet engine builds for this trace
    /// scenario, with the key that sizes it (`None`: a fixed fixture).
    fn star_hosts(&self) -> Option<(&'static str, usize)> {
        match *self {
            // Receiver + long-flow sender + burst senders.
            TraceScenario::Incast { fan_in, .. } => Some(("fan_in", fan_in + 2)),
            TraceScenario::Fairness { flows, .. } => Some(("flows", flows + 1)),
            TraceScenario::Response | TraceScenario::Rdcn { .. } => None,
        }
    }

    /// Stable TOML identifier.
    pub fn key(&self) -> &'static str {
        match self {
            TraceScenario::Response => "response",
            TraceScenario::Incast { .. } => "incast",
            TraceScenario::Fairness { .. } => "fairness",
            TraceScenario::Rdcn { .. } => "rdcn",
        }
    }

    /// Every channel name this trace scenario can record, in recording
    /// order — the vocabulary a `[trace] channels` filter may select
    /// from (fairness channels are per-flow, so the list depends on the
    /// configured flow count); the fixtures record from the same tables.
    pub fn channel_names(&self) -> Vec<String> {
        crate::trace_engine::channel_names(self)
    }
}

/// Shared fluid-model configuration plus the analytic experiment of a
/// `kind = "analytic"` scenario. These scenarios never build a simulator:
/// each grid entry is a pure computation over `fluid-model`, and results
/// flow through the same executor / cache / multi-process pipeline as
/// simulated points (cache keys are salted with
/// [`fluid_model::MODEL_VERSION`] instead of the sim engine version).
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyticSpec {
    /// The analytic experiment.
    pub scenario: AnalyticScenario,
    /// Bottleneck bandwidth in Gbps (paper example: 100).
    pub bandwidth_gbps: f64,
    /// Base RTT τ in microseconds (paper example: 20).
    pub base_rtt_us: f64,
    /// Per-update EWMA gain γ ∈ (0, 1] (paper recommendation: 0.9).
    pub gamma: f64,
    /// Control updates per base RTT (per-ACK updates ≈ 10); together with
    /// `gamma` this sets the continuous-time gain γr = γ·updates/τ.
    pub updates_per_rtt: f64,
    /// Aggregate additive increase β̂ as a fraction of BDP.
    pub beta_frac: f64,
    /// Target utilization η of the queue-length (HPCC-class) law.
    pub hpcc_eta: f64,
}

impl AnalyticSpec {
    /// An analytic spec over the paper's running example, the
    /// `[analytic]` table's defaults (100 Gbps, 20 µs, γ = 0.9 at 10
    /// updates/RTT, β̂ = BDP/10, η = 1).
    pub fn new(scenario: AnalyticScenario) -> Self {
        // Defaulted under a placeholder scenario (whose own keys get
        // theirs too), so the caller's scenario goes in as given.
        let mut analytic = AnalyticSpec {
            scenario: AnalyticScenario::Laws { tolerance: 0.0 },
            bandwidth_gbps: 0.0,
            base_rtt_us: 0.0,
            gamma: 0.0,
            updates_per_rtt: 0.0,
            beta_frac: 0.0,
            hpcc_eta: 0.0,
        };
        schema::apply_defaults(schema::ANALYTIC.fields, &mut analytic);
        analytic.scenario = scenario;
        analytic
    }

    /// The [`FluidParams`] this spec denotes.
    pub fn fluid_params(&self) -> FluidParams {
        let bandwidth = self.bandwidth_gbps * 1e9 / 8.0;
        let base_rtt = self.base_rtt_us * 1e-6;
        FluidParams {
            bandwidth,
            base_rtt,
            beta_hat: bandwidth * base_rtt * self.beta_frac,
            gamma_r: self.gamma / (base_rtt / self.updates_per_rtt),
            hpcc_eta: self.hpcc_eta,
        }
    }
}

/// Most starts one phase portrait integrates (`w_over_bdp` entries ×
/// `q_over_bdp` entries): each start is 601 sampled states and up to
/// 120,000 RK4 steps, so the grid's size is the run's memory and time.
pub const MAX_PHASE_CELLS: usize = 1024;

/// Largest phase-grid start, in BDPs. The paper's Figure 3 spans 0.05–4;
/// far beyond it the model says nothing and the numbers stop being finite.
pub const MAX_PHASE_START_OVER_BDP: f64 = 1000.0;

/// The analytic experiments: the paper's fluid-model figures and appendix
/// checks as declarative data.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalyticScenario {
    /// Figure 3: phase portraits — integrate a grid of initial
    /// `(window, queue)` states under each control law; one grid entry
    /// per law, with per-trajectory channels and endpoint statistics.
    Phase {
        /// Control laws to portrait (one lineup entry each).
        laws: Vec<Law>,
        /// Window starting points, as fractions of BDP (grid is the cross
        /// product with `q_over_bdp`, window-major).
        w_over_bdp: Vec<f64>,
        /// Queue starting points, as fractions of BDP.
        q_over_bdp: Vec<f64>,
    },
    /// Fluid-model parameter ablations: 1-D response sweeps over γ, β̂,
    /// and HPCC η — one grid entry per swept value, each measuring the
    /// perturbed model's settled state and convergence fit.
    Ablation {
        /// γ values to sweep (power law).
        gammas: Vec<f64>,
        /// β̂ values (fractions of BDP) to sweep (power law).
        beta_fracs: Vec<f64>,
        /// HPCC η values to sweep (queue-length law).
        etas: Vec<f64>,
    },
    /// Theorems 1–3 (Appendix A) verified numerically, one grid entry per
    /// theorem, with pass/fail stats under `tolerance`.
    Laws {
        /// Relative tolerance of the numeric checks.
        tolerance: f64,
    },
}

/// One point on the algorithm-parameter sweep axis: overrides applied to
/// the swept algorithms' tunables. Every field is optional; an all-`None`
/// spec is the algorithm's paper-default configuration. This is what lets
/// *simulation* specs run ablation grids (γ, β's flow count N, HPCC η)
/// through the same executor/cache/sharding pipeline as load and seed
/// grids.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ParamSpec {
    /// PowerTCP / θ-PowerTCP EWMA gain γ ∈ (0, 1].
    pub gamma: Option<f64>,
    /// Expected flow count N in the additive-increase rule β = HostBw·τ/N
    /// (applies to every windowed-transport algorithm).
    pub expected_flows: Option<u32>,
    /// HPCC target utilization η ∈ (0, 1].
    pub hpcc_eta: Option<f64>,
    /// Dynamic-Thresholds α of every switch in the topology — how much
    /// of the shared buffer one hot port may take (the buffer-sizing
    /// ablation of DESIGN.md).
    pub dt_alpha: Option<f64>,
}

impl ParamSpec {
    /// True when no override is set (the paper-default configuration).
    pub fn is_default(&self) -> bool {
        *self == ParamSpec::default()
    }

    /// Canonical spec identifier: `key=value` pairs joined by `,`, in
    /// fixed field order with shortest-round-trip floats — `""` for the
    /// default spec. Round-trips through [`ParamSpec::parse`]; used in
    /// TOML, report algo labels, and cache-key canons.
    pub fn label(&self) -> String {
        let mut out = String::new();
        for f in schema::PARAMS {
            let sep = if out.is_empty() { "" } else { "," };
            let _ = match (f.get)(self) {
                Some(Val::Float(x)) => write!(out, "{sep}{}={x}", f.key),
                Some(Val::Uint(n)) => write!(out, "{sep}{}={n}", f.key),
                _ => Ok(()),
            };
        }
        out
    }

    /// Parse a [`ParamSpec::label`]-shaped string (`"gamma=0.5,n=32"`).
    pub fn parse(s: &str) -> Result<ParamSpec, String> {
        let mut out = ParamSpec::default();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let Some((k, v)) = part.split_once('=') else {
                return Err(format!("param {part:?} is not a key=value pair"));
            };
            let (k, v) = (k.trim(), v.trim());
            let Some(f) = schema::PARAMS.iter().find(|f| f.key == k) else {
                let keys: Vec<&str> = schema::PARAMS.iter().map(|f| f.key).collect();
                return Err(format!(
                    "unknown param key {k:?} (expected: {})",
                    keys.join(", ")
                ));
            };
            if (f.get)(&out).is_some() {
                return Err(format!("param key {k:?} is repeated in {s:?}"));
            }
            let value = match f.ty {
                Ty::Uint => v.parse().ok().map(Value::Int),
                _ => v.parse().ok().map(Value::Float),
            };
            let set = value.and_then(|value| (f.set)(&mut out, &value));
            set.unwrap_or_else(|| Err(format!("bad {k} value {v:?}")))?;
        }
        Ok(out)
    }
}

/// The sweep axes: every (algo, params, load, seed) combination runs as
/// one independent, deterministic simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Algorithms to compare.
    pub algos: Vec<Algo>,
    /// Algorithm-parameter overrides (empty = one default entry). Each
    /// entry multiplies the sweep like a load or seed does.
    pub params: Vec<ParamSpec>,
    /// Target loads (fraction of the reference capacity; empty means the
    /// single pseudo-load 0, for incast-only workloads).
    pub loads: Vec<f64>,
    /// Workload seeds. The same seed is reused across algorithms and
    /// loads so comparisons are paired (identical arrival processes).
    pub seeds: Vec<u64>,
}

/// The lineup every constructor starts from: PowerTCP.
impl Default for LineupSpec {
    fn default() -> Self {
        LineupSpec {
            algos: vec![Algo::PowerTcp],
        }
    }
}

/// A complete declarative experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and `xp list`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// What the scenario produces — an FCT sweep (default), time-series
    /// traces, a fluid-model analysis — and that kind's own fields.
    pub kind: ScenarioKind,
}

impl ScenarioSpec {
    /// A new sweep with an empty workload, a PowerTCP-only algorithm
    /// grid, seed 42, and a 4 ms + 6 ms time box (the `tiny` scale).
    pub fn new(name: impl Into<String>, topology: TopologySpec) -> Self {
        let body = SweepBody {
            topology,
            workload: WorkloadSpec::default(),
            horizon_ms: 0.0,
            drain_ms: 0.0,
            sweep: SweepSpec {
                algos: LineupSpec::default().algos,
                params: Vec::new(),
                loads: Vec::new(),
                seeds: vec![42],
            },
            engine: EngineKind::Packet,
            buffer_cdf: false,
        };
        Self::assemble(name.into(), ScenarioKind::Sweep(body))
    }

    /// A new time-series scenario: fixture, traffic and run length are
    /// the trace scenario's own, and the algorithm grid is the lineup
    /// (PowerTCP only).
    pub fn timeseries(name: impl Into<String>, trace: TraceSpec) -> Self {
        let body = TimeseriesBody {
            trace,
            lineup: LineupSpec::default(),
        };
        Self::assemble(name.into(), ScenarioKind::Timeseries(body))
    }

    /// A new analytic scenario: the `[analytic]` table fully describes
    /// the experiment.
    pub fn new_analytic(name: impl Into<String>, analytic: AnalyticSpec) -> Self {
        Self::assemble(name.into(), ScenarioKind::Analytic(analytic))
    }

    /// The one constructor: every scalar the kind has in the top-level
    /// table at its default.
    fn assemble(name: String, kind: ScenarioKind) -> Self {
        let mut spec = ScenarioSpec {
            name,
            description: String::new(),
            kind,
        };
        schema::apply_defaults(schema::ROOT.fields, &mut spec);
        spec
    }

    /// The sweep that `what` — a function only sweeps can answer or, for
    /// the `_mut`s, a builder call — needs. Panics on another kind.
    pub(crate) fn sweep_body(&self, what: &str) -> &SweepBody {
        match &self.kind {
            ScenarioKind::Sweep(body) => body,
            other => panic!("{}", foreign(what, "sweep", &self.name, other.key())),
        }
    }

    pub(crate) fn sweep_mut(&mut self, what: &str) -> &mut SweepBody {
        let kind = self.kind.key();
        match &mut self.kind {
            ScenarioKind::Sweep(body) => body,
            _ => panic!("{}", foreign(what, "sweep", &self.name, kind)),
        }
    }

    /// The seed grid of a sweep, which a trace or an analytic grid
    /// (nothing random in either) does not have: the `Err` says so.
    pub fn seeds_mut(&mut self) -> Result<&mut Vec<u64>, String> {
        match &mut self.kind {
            ScenarioKind::Sweep(s) => Ok(&mut s.sweep.seeds),
            other => Err(foreign("seeds", "sweep", &self.name, other.key())),
        }
    }

    /// Add Poisson background traffic with the given size distribution
    /// (panics on a scenario that is no sweep).
    pub fn poisson(mut self, sizes: SizeSpec) -> Self {
        self.sweep_mut("poisson").workload.poisson = Some(PoissonSpec { sizes });
        self
    }

    /// Set the generation horizon (ms) of a sweep (panics on another
    /// kind: a trace that stops at a horizon has it in `[trace]`).
    pub fn horizon_ms(mut self, ms: f64) -> Self {
        self.sweep_mut("horizon_ms").horizon_ms = ms;
        self
    }

    /// Set the post-horizon drain time (ms) of a sweep; as
    /// [`Self::horizon_ms`].
    pub fn drain_ms(mut self, ms: f64) -> Self {
        self.sweep_mut("drain_ms").drain_ms = ms;
        self
    }

    /// Set the seed grid of a sweep; as [`Self::horizon_ms`].
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        *self.seeds_mut().unwrap_or_else(|e| panic!("{e}")) = seeds.into_iter().collect();
        self
    }

    /// The canonical result-affecting fragment of this spec: everything
    /// that determines a point outcome **except** the identity fields
    /// (name, description) and the sweep axes — those are either
    /// irrelevant to point results or part of the per-point cache key.
    /// `dcn-runner` combines this fragment with `(algo, params, load,
    /// seed)` (or the lineup-entry identity) and a behavioral-version
    /// salt — the sim engine version for simulated kinds, the fluid-model
    /// version for analytic ones — to derive content-addressed cache
    /// keys, so two differently-named specs with identical physics share
    /// cached outcomes.
    pub fn cache_fragment(&self) -> String {
        // The spec's TOML with every non-physics key (the schema's role
        // column) reading as its type's blank: identity emptied, axes
        // emptied — ablation grids included, since each entry's swept
        // value is its label in the key, so growing a grid recomputes
        // one point (phase grids stay: every law entry integrates the
        // whole w×q grid) — and render options at their omitted default.
        self.render(false)
    }

    /// Check internal consistency; returns a human-readable error. Every
    /// field's own range comes from the schema table; what follows it
    /// are the kind's rules that relate several fields.
    pub fn validate(&self) -> Result<(), String> {
        ensure!(!self.name.is_empty(), "scenario needs a name");
        schema::ROOT.visit(self, &mut Pass::Check)?;
        match &self.kind {
            ScenarioKind::Sweep(sweep) => sweep.validate(),
            ScenarioKind::Timeseries(timeseries) => timeseries.validate(),
            ScenarioKind::Analytic(analytic) => analytic.validate(),
        }
    }

    /// Total number of sweep points (algos × params × loads × seeds) for
    /// sweeps, or lineup entries for timeseries/analytic scenarios: the
    /// length of the executor's actual item list.
    pub fn num_points(&self) -> usize {
        crate::sweep::work_items(self).len()
    }

    // ---- TOML ----

    /// The spec as TOML (`full`), or as its cache fragment.
    fn render(&self, full: bool) -> String {
        let mut out = String::new();
        let pass = &mut Pass::Write {
            out: &mut out,
            full,
        };
        schema::ROOT
            .visit(self, pass)
            .expect("writing a spec cannot fail");
        out
    }

    /// Render as TOML (the exact format [`ScenarioSpec::from_toml`]
    /// reads back; `parse(to_toml(s)) == s`).
    pub fn to_toml(&self) -> String {
        self.render(true)
    }

    /// Parse a spec from TOML source. The result is validated.
    pub fn from_toml(src: &str) -> Result<Self, String> {
        let root = crate::toml::parse(src).map_err(|e| e.to_string())?;
        let spec = schema::ROOT.read(&root)?;
        spec.validate()?;
        Ok(spec)
    }
}

/// The complaint when `what` meets a scenario not of its `home` kind(s).
fn foreign(what: &str, home: &str, name: &str, kind: &str) -> String {
    format!("{what} is for {home} scenarios; {name:?} has kind = {kind:?}")
}

/// A switch of `ports` ports (sized by `key`) is one the packet engine
/// can build: a wrapped port id delivers to the wrong host, silently.
fn ensure_ports_fit(key: &str, ports: usize) -> Result<(), String> {
    ensure!(
        ports <= PortId::MAX_PORTS,
        "{key} asks the packet engine for a switch with {ports} ports; \
         port ids are 16-bit, so {} is the most one switch can have",
        PortId::MAX_PORTS
    );
    Ok(())
}

impl SweepBody {
    /// A fabric the engine can build, a workload the topology can
    /// carry, a load grid where Poisson traffic needs one, non-empty axes.
    fn validate(&self) -> Result<(), String> {
        // The flow engine never builds the fabric.
        if self.engine == EngineKind::Packet {
            let (key, ports) = self.topology.widest_switch();
            ensure_ports_fit(key, ports)?;
        }
        ensure!(
            self.engine == EngineKind::Packet || !self.buffer_cdf,
            "buffer_cdf requires the packet engine: the flow engine models no \
             switch buffers to sample (use engine = \"packet\")"
        );
        ensure!(
            self.workload != WorkloadSpec::default(),
            "workload needs poisson traffic, an incast overlay, or both"
        );
        if self.workload.poisson.is_some() {
            let loads = &self.sweep.loads;
            ensure!(
                !loads.is_empty(),
                "poisson workload needs a non-empty load grid"
            );
            if let Some(l) = loads.iter().find(|&&l| !(l > 0.0 && l < 1.5)) {
                return Err(format!("implausible load {l} (expected 0 < load < 1.5)"));
            }
        }
        if let Some(ic) = self.workload.incast {
            let max = self.topology.max_fan_in();
            ensure!(
                ic.fan_in <= max,
                "incast fan_in {} exceeds what the topology supports ({max})",
                ic.fan_in
            );
        }
        ensure!(
            !self.sweep.algos.is_empty(),
            "sweep needs at least one algorithm"
        );
        ensure!(
            !self.sweep.seeds.is_empty(),
            "sweep needs at least one seed"
        );
        // CC-law overrides (γ, N, η) only exist on the windowed
        // transport; switch-level overrides (DT α) apply to any lineup —
        // and matter most under lossy HOMA, where DT actually drops
        // (PFC-lossless fabrics bypass the per-port threshold).
        let params = &self.sweep.params;
        let tunes_cc =
            |p: &ParamSpec| p.gamma.is_some() || p.expected_flows.is_some() || p.hpcc_eta.is_some();
        ensure!(
            !(params.iter().any(tunes_cc) && self.sweep.algos.iter().any(|a| a.is_homa())),
            "the gamma/n/eta params tune windowed-transport CC laws; HOMA takes \
             only switch-level params (alpha)"
        );
        for (i, p) in params.iter().enumerate() {
            ensure!(
                !p.is_default(),
                "params entries must set at least one override (drop the entry \
                 for the default configuration)"
            );
            ensure!(
                !params[..i].contains(p),
                "duplicate params entry {:?}",
                p.label()
            );
        }
        Ok(())
    }
}

impl TimeseriesBody {
    /// A star the engine can build, a run simulator time can hold, and
    /// the trace scenario's fit within its horizon and the lineup.
    fn validate(&self) -> Result<(), String> {
        let (trace, lineup) = (&self.trace, &self.lineup);
        if let Some((key, hosts)) = trace.scenario.star_hosts() {
            ensure_ports_fit(key, hosts)?;
        }
        ensure!(
            !lineup.algos.is_empty(),
            "timeseries lineup needs at least one algorithm"
        );
        ensure!(
            trace.window <= trace.max_samples,
            "trace window {} exceeds max_samples {} (every export would collapse to one row)",
            trace.window,
            trace.max_samples
        );
        if !trace.channels.is_empty() {
            let known = trace.scenario.channel_names();
            if let Some(ch) = trace.channels.iter().find(|ch| !known.contains(ch)) {
                return Err(format!(
                    "unknown trace channel {ch:?} for the {} scenario (known: {})",
                    trace.scenario.key(),
                    known.join(", ")
                ));
            }
        }
        match &trace.scenario {
            // The trace writes no lineup, so only the default would
            // round-trip.
            TraceScenario::Response => ensure!(
                *lineup == LineupSpec::default(),
                "the response trace runs no algorithm, so it takes no lineup"
            ),
            TraceScenario::Incast {
                at_ms, horizon_ms, ..
            } => ensure!(
                at_ms < horizon_ms,
                "incast at_ms {at_ms} must lie within [0, horizon_ms {horizon_ms})"
            ),
            TraceScenario::Fairness {
                flows,
                stagger_ms,
                horizon_ms,
            } => ensure!(
                (*flows as f64 - 1.0) * stagger_ms < *horizon_ms,
                "fairness: last flow would join after the horizon"
            ),
            TraceScenario::Rdcn {
                weeks,
                retcp_prebuffer_us,
                ..
            } => {
                rotor_run_length(*weeks)?;
                ensure!(
                    !(lineup.algos.contains(&Algo::ReTcp) && retcp_prebuffer_us.is_empty()),
                    "rdcn lineup includes retcp but retcp_prebuffer_us is empty"
                );
                ensure!(
                    !lineup.algos.iter().any(|a| a.is_homa()),
                    "the rdcn trace runs the windowed transport; HOMA is unsupported"
                );
            }
        }
        Ok(())
    }
}

impl AnalyticSpec {
    /// Grids whose entries label distinct lineup entries, none empty.
    fn validate(&self) -> Result<(), String> {
        // Every grid entry labels one lineup entry (and its cache key).
        for f in schema::ANALYTIC.fields {
            let mut labels: Vec<String> = match (f.get)(self) {
                Some(Val::Floats(xs)) => xs.iter().map(f64::to_string).collect(),
                Some(Val::Laws(laws)) => laws.iter().map(|l| l.key().to_string()).collect(),
                _ => continue,
            };
            let n = labels.len();
            labels.sort();
            labels.dedup();
            ensure!(
                labels.len() == n,
                "analytic {} entries must be distinct",
                f.key
            );
        }
        match &self.scenario {
            AnalyticScenario::Phase {
                laws,
                w_over_bdp,
                q_over_bdp,
            } => {
                ensure!(!laws.is_empty(), "analytic phase needs at least one law");
                ensure!(
                    !(w_over_bdp.is_empty() || q_over_bdp.is_empty()),
                    "analytic phase needs non-empty w_over_bdp and q_over_bdp"
                );
                let cells = w_over_bdp.len().saturating_mul(q_over_bdp.len());
                ensure!(
                    cells <= MAX_PHASE_CELLS,
                    "analytic phase grid has {cells} starts ({} w_over_bdp × {} q_over_bdp); \
                     at most {MAX_PHASE_CELLS}",
                    w_over_bdp.len(),
                    q_over_bdp.len()
                );
            }
            AnalyticScenario::Ablation {
                gammas,
                beta_fracs,
                etas,
            } => ensure!(
                !(gammas.is_empty() && beta_fracs.is_empty() && etas.is_empty()),
                "analytic ablation needs at least one of gammas, beta_fracs, or etas"
            ),
            AnalyticScenario::Laws { .. } => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ScenarioSpec {
        /// The timeseries that `what` edits. Panics on another kind.
        fn timeseries_mut(&mut self, what: &str) -> &mut TimeseriesBody {
            let kind = self.kind.key();
            match &mut self.kind {
                ScenarioKind::Timeseries(body) => body,
                _ => panic!("{}", foreign(what, "timeseries", &self.name, kind)),
            }
        }
    }

    fn sample_spec() -> ScenarioSpec {
        let text = r#"
name = "sample"
description = "a sample scenario"
[topology]
kind = "fat-tree"
hosts_per_tor = 2
host_gbps = 25.0
fabric_gbps = 12.5
[workload.poisson]
sizes = "websearch"
[workload.incast]
rate_per_sec = 1000.0
request_bytes = 200000
fan_in = 4
periodic = false
[sweep]
algos = ["powertcp", "hpcc", "homa:2"]
loads = [0.2, 0.6]
seeds = [7, 11]
"#;
        ScenarioSpec::from_toml(text).expect("the sample spec parses")
    }

    #[test]
    fn toml_round_trip_is_identity() {
        let spec = sample_spec();
        let text = spec.to_toml();
        let back = ScenarioSpec::from_toml(&text).expect("reparse");
        assert_eq!(back, spec);
    }

    #[test]
    fn round_trip_all_topologies_and_fixed_sizes() {
        for topo in [
            TopologySpec::Star {
                hosts: 10,
                host_gbps: 25.0,
            },
            TopologySpec::Dumbbell {
                pairs: 4,
                host_gbps: 25.0,
                bottleneck_gbps: 25.0,
            },
        ] {
            let mut spec = ScenarioSpec::new("t", topo)
                .poisson(SizeSpec::Fixed(50_000))
                .seeds([1]);
            spec.sweep_mut("test").sweep.loads = vec![0.5];
            assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        }
    }

    #[test]
    fn validation_catches_mistakes() {
        let ok = sample_spec();
        assert!(ok.validate().is_ok());

        let mut s = sample_spec();
        s.sweep_mut("test").sweep.loads = vec![2.0];
        assert!(s.validate().unwrap_err().contains("implausible load"));

        let mut s = sample_spec();
        s.sweep_mut("test").workload = WorkloadSpec::default();
        assert!(s.validate().is_err());

        let mut s = sample_spec();
        let incast = &mut s.sweep_mut("test").workload.incast;
        incast.as_mut().unwrap().fan_in = 1000;
        assert!(s.validate().unwrap_err().contains("fan_in"));

        let s = sample_spec().seeds([]);
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::new(
            "s",
            TopologySpec::Star {
                hosts: 1,
                host_gbps: 25.0,
            },
        )
        .poisson(SizeSpec::Websearch);
        s.sweep_mut("test").sweep.loads = vec![0.5];
        assert!(s.validate().is_err());
    }

    #[test]
    fn a_switch_wider_than_port_ids_is_refused_for_the_packet_engine() {
        let sweep = |topology| {
            let mut spec = ScenarioSpec::new("wide", topology).poisson(SizeSpec::Websearch);
            spec.sweep_mut("test").sweep.loads = vec![0.5];
            spec
        };
        let star = |hosts| TopologySpec::Star {
            hosts,
            host_gbps: 25.0,
        };
        let fat_tree = |hosts_per_tor| TopologySpec::FatTree {
            hosts_per_tor,
            host_gbps: 25.0,
            fabric_gbps: 100.0,
        };
        let dumbbell = |pairs| TopologySpec::Dumbbell {
            pairs,
            host_gbps: 25.0,
            bottleneck_gbps: 25.0,
        };
        // Star: one port per host. Fat-tree ToR: hosts + 2 uplinks.
        // Dumbbell switch: one side's hosts + the trunk.
        for (key, fits, too_wide) in [
            ("hosts", star(65_535), star(65_536)),
            ("hosts_per_tor", fat_tree(65_533), fat_tree(65_534)),
            ("pairs", dumbbell(65_534), dumbbell(65_535)),
        ] {
            assert_eq!(sweep(fits).validate(), Ok(()), "{key}");
            let err = sweep(too_wide).validate().unwrap_err();
            assert!(err.contains(key) && err.contains("65535"), "{key}: {err}");
            // The flow engine never builds the fabric (fattree-100k is
            // 12,500 hosts per ToR; nothing stops 70,000).
            let mut flow = sweep(too_wide);
            flow.sweep_mut("test").engine = EngineKind::Flow;
            assert_eq!(flow.validate(), Ok(()), "{key} on the flow engine");
        }
        // A trace's star is sized by the trace scenario's own key.
        let incast = |fan_in| {
            ScenarioSpec::timeseries(
                "wide",
                TraceSpec::new(TraceScenario::Incast {
                    fan_in,
                    burst_bytes: 1_000,
                    at_ms: 1.0,
                    horizon_ms: 5.0,
                }),
            )
        };
        assert_eq!(incast(65_533).validate(), Ok(()));
        let err = incast(65_534).validate().unwrap_err();
        assert!(err.contains("fan_in") && err.contains("65535"), "{err}");
    }

    #[test]
    fn widest_switch_is_the_widest_the_fat_tree_builder_lays() {
        // Below 6 hosts per ToR a core (8 ports, one per agg) is wider
        // than a ToR (hosts + 2 uplinks).
        for hosts_per_tor in 1..=8 {
            let topo = TopologySpec::FatTree {
                hosts_per_tor,
                host_gbps: 25.0,
                fabric_gbps: 100.0,
            };
            let cfg = dcn_sim::FatTreeConfig {
                hosts_per_tor,
                ..Default::default()
            };
            let mut null = |_, _| -> Box<dyn dcn_sim::Endpoint> { Box::new(dcn_sim::NullEndpoint) };
            let ft = dcn_sim::build_fat_tree(cfg, &mut null);
            let built = ft.tors.iter().chain(&ft.aggs).chain(&ft.cores);
            let widest = built.map(|&sw| ft.net.switch(sw).num_ports()).max();
            assert_eq!(
                Some(topo.widest_switch()),
                widest.map(|ports| ("hosts_per_tor", ports)),
                "hosts_per_tor = {hosts_per_tor}"
            );
        }
    }

    #[test]
    fn incast_only_scenarios_have_one_pseudo_load() {
        let text = r#"
name = "i"
[topology]
kind = "star"
hosts = 6
host_gbps = 25.0
[workload.incast]
rate_per_sec = 2000.0
request_bytes = 500000
fan_in = 4
periodic = true
[sweep]
algos = ["homa:1", "homa:2"]
seeds = [1, 2, 3]
"#;
        let spec = ScenarioSpec::from_toml(text).expect("an incast-only sweep");
        let points = crate::sweep::sweep_points(&spec);
        assert!(points.iter().all(|p| p.load == 0.0));
        assert_eq!(spec.num_points(), 6); // 2 algos x 1 pseudo-load x 3 seeds
    }

    fn ts_spec(scenario: TraceScenario) -> ScenarioSpec {
        let mut spec = ScenarioSpec::timeseries(
            "ts",
            TraceSpec {
                scenario,
                tick_us: 20.0,
                max_samples: 1024,
                max_rows: 50,
                window: 1,
                channels: Vec::new(),
            },
        );
        spec.description = "a timeseries scenario".into();
        spec.timeseries_mut("test").lineup.algos = vec![Algo::PowerTcp, Algo::Hpcc];
        spec
    }

    #[test]
    fn timeseries_round_trips_all_scenarios() {
        for scenario in [
            TraceScenario::Response,
            TraceScenario::Incast {
                fan_in: 10,
                burst_bytes: 150_000,
                at_ms: 1.0,
                horizon_ms: 5.0,
            },
            TraceScenario::Fairness {
                flows: 4,
                stagger_ms: 1.0,
                horizon_ms: 5.0,
            },
            TraceScenario::Rdcn {
                weeks: 2,
                packet_gbps: 25.0,
                retcp_prebuffer_us: vec![600.0, 1800.0],
            },
        ] {
            let analytic = matches!(scenario, TraceScenario::Response);
            let mut spec = ts_spec(scenario);
            if analytic {
                // Response runs no algorithm and writes no lineup, so
                // validation requires the default.
                spec.timeseries_mut("test").lineup = LineupSpec::default();
            }
            spec.validate().unwrap_or_else(|e| panic!("{e}"));
            let text = spec.to_toml();
            assert!(text.contains("kind = \"timeseries\""), "{text}");
            assert!(!text.contains("[topology]"), "derived, not written");
            assert_eq!(text.contains("[sweep]"), !analytic, "{text}");
            assert!(
                !text.contains("seeds") && !text.contains("drain_ms"),
                "{text}"
            );
            let back = ScenarioSpec::from_toml(&text).expect("reparse");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn timeseries_validation_catches_mistakes() {
        // Incast burst after the horizon.
        let s = ts_spec(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 1000,
            at_ms: 9.0,
            horizon_ms: 5.0,
        });
        assert!(s.validate().unwrap_err().contains("at_ms"));

        // The last fairness flow joins after the horizon.
        let s = ts_spec(TraceScenario::Fairness {
            flows: 4,
            stagger_ms: 2.0,
            horizon_ms: 6.0,
        });
        assert!(s.validate().unwrap_err().contains("horizon"));

        // HOMA cannot run the RDCN trace.
        let mut s = ts_spec(TraceScenario::Rdcn {
            weeks: 1,
            packet_gbps: 25.0,
            retcp_prebuffer_us: vec![],
        });
        s.timeseries_mut("test").lineup.algos = vec![Algo::Homa(1)];
        assert!(s.validate().unwrap_err().contains("HOMA"));

        // A response trace runs no algorithm: a code-built lineup would
        // run the placeholder and vanish from `to_toml`.
        let mut s = ts_spec(TraceScenario::Response);
        s.timeseries_mut("test").lineup.algos = vec![Algo::Hpcc, Algo::Dcqcn];
        let err = s.validate().unwrap_err();
        assert!(err.contains("response trace"), "{err}");
        s.timeseries_mut("test").lineup = LineupSpec::default();
        s.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// What the parent policed in `validate` (a load axis on a trace, a
    /// seed on an analytic grid) is now a field the kind does not have:
    /// a call that needs it panics naming both, and the fallible
    /// `seeds_mut` says why.
    #[test]
    fn a_setting_the_kind_has_no_field_for_is_refused_at_the_call() {
        let message = |call: fn() -> ScenarioSpec| {
            let payload = std::panic::catch_unwind(call).expect_err("the call panics");
            payload.downcast_ref::<String>().expect("a message").clone()
        };
        let poisson = message(|| ts_spec(TraceScenario::Response).poisson(SizeSpec::Websearch));
        assert!(
            poisson.contains("poisson is for sweep scenarios"),
            "{poisson}"
        );
        assert!(
            poisson.contains("\"ts\" has kind = \"timeseries\""),
            "{poisson}"
        );
        let channels = message(|| {
            let mut spec = sample_spec();
            spec.timeseries_mut("channels").trace.channels.clear();
            spec
        });
        let for_traces = "channels is for timeseries scenarios";
        assert!(channels.contains(for_traces), "{channels}");
        fn laws() -> ScenarioSpec {
            let laws = AnalyticScenario::Laws { tolerance: 0.1 };
            ScenarioSpec::new_analytic("an", AnalyticSpec::new(laws))
        }
        let seeds = message(|| laws().seeds([7]));
        assert!(seeds.contains("\"an\" has kind = \"analytic\""), "{seeds}");
        assert_eq!(laws().seeds_mut().unwrap_err(), seeds);
        assert!(sample_spec().seeds_mut().is_ok());
        // A trace has nothing random in it either.
        let trace = message(|| ts_spec(TraceScenario::Response).seeds([7]));
        assert!(trace.contains("seeds is for sweep scenarios"), "{trace}");
        assert!(trace.contains("has kind = \"timeseries\""), "{trace}");
        let horizon = message(|| ts_spec(TraceScenario::Response).horizon_ms(1.0));
        assert!(horizon.contains("horizon_ms is for sweep"), "{horizon}");
    }

    #[test]
    fn trace_channel_filter_round_trips_and_validates() {
        let mut spec = ts_spec(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 1000,
            at_ms: 1.0,
            horizon_ms: 5.0,
        });
        spec.timeseries_mut("test").trace.channels = vec!["queue".into(), "cwnd".into()];
        spec.validate().unwrap();
        let text = spec.to_toml();
        assert!(text.contains("channels = [\"queue\", \"cwnd\"]"), "{text}");
        assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec);

        // An empty filter (record everything) is the default and is not
        // written out.
        assert!(!ts_spec(TraceScenario::Response)
            .to_toml()
            .contains("channels"));

        // Unknown names are a validation error naming the vocabulary.
        let mut bad = ts_spec(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 1000,
            at_ms: 1.0,
            horizon_ms: 5.0,
        });
        bad.timeseries_mut("test").trace.channels = vec!["voq".into()];
        let err = bad.validate().unwrap_err();
        assert!(err.contains("unknown trace channel"), "{err}");
        assert!(err.contains("throughput, queue, cwnd, power"), "{err}");

        // Fairness names are per-flow, so validity depends on the flow
        // count.
        let mut fair = ts_spec(TraceScenario::Fairness {
            flows: 2,
            stagger_ms: 1.0,
            horizon_ms: 5.0,
        });
        fair.timeseries_mut("test").trace.channels = vec!["flow-2".into()];
        assert!(fair.validate().is_ok());
        fair.timeseries_mut("test").trace.channels = vec!["flow-3".into()];
        assert!(fair.validate().is_err());
    }

    #[test]
    fn cache_fragment_tracks_physics_not_identity() {
        let a = sample_spec();
        let mut renamed = a.clone();
        renamed.description = "other words".into();
        renamed.name = "renamed".into();
        let renamed = renamed.seeds([1, 2, 3]);
        assert_eq!(a.cache_fragment(), renamed.cache_fragment());
        let hotter = a.clone().horizon_ms(8.0);
        assert_ne!(a.cache_fragment(), hotter.cache_fragment());
        let other_workload = a.clone().poisson(SizeSpec::Fixed(10));
        assert_ne!(a.cache_fragment(), other_workload.cache_fragment());
        // Trace config (including the channel filter) is physics for
        // timeseries specs: it changes the recorded output.
        let t = ts_spec(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 1000,
            at_ms: 1.0,
            horizon_ms: 5.0,
        });
        let mut filtered = t.clone();
        filtered.timeseries_mut("test").trace.channels = vec!["queue".into()];
        assert_ne!(t.cache_fragment(), filtered.cache_fragment());
    }

    #[test]
    fn timeseries_entry_counts_expand_retcp_prebuffers() {
        let mut s = ts_spec(TraceScenario::Rdcn {
            weeks: 2,
            packet_gbps: 25.0,
            retcp_prebuffer_us: vec![600.0, 1800.0],
        });
        s.timeseries_mut("test").lineup.algos = vec![Algo::PowerTcp, Algo::ReTcp, Algo::Hpcc];
        assert_eq!(s.num_points(), 4); // powertcp + 2x retcp + hpcc
        assert_eq!(ts_spec(TraceScenario::Response).num_points(), 1);
    }

    #[test]
    fn analytic_specs_round_trip_and_validate() {
        use fluid_model::Law;
        for scenario in [
            AnalyticScenario::Phase {
                laws: vec![Law::QueueLength, Law::RttGradient, Law::Power],
                w_over_bdp: vec![0.05, 1.0, 4.0],
                q_over_bdp: vec![0.0, 2.0],
            },
            AnalyticScenario::Ablation {
                gammas: vec![0.3, 0.9],
                beta_fracs: vec![0.05, 0.2],
                etas: vec![0.95],
            },
            AnalyticScenario::Laws { tolerance: 0.02 },
        ] {
            let mut spec = ScenarioSpec::new_analytic("an", AnalyticSpec::new(scenario));
            spec.description = "an analytic scenario".into();
            spec.validate().unwrap_or_else(|e| panic!("{e}"));
            let text = spec.to_toml();
            assert!(text.contains("kind = \"analytic\""), "{text}");
            assert!(!text.contains("[topology]"), "no topology for analytic");
            assert!(!text.contains("[sweep]"), "no sweep axes for analytic");
            let back = ScenarioSpec::from_toml(&text).expect("reparse");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn analytic_validation_catches_mistakes() {
        use fluid_model::Law;
        let base = || {
            ScenarioSpec::new_analytic(
                "an",
                AnalyticSpec::new(AnalyticScenario::Phase {
                    laws: vec![Law::Power],
                    w_over_bdp: vec![1.0],
                    q_over_bdp: vec![0.0],
                }),
            )
        };
        assert!(base().validate().is_ok());

        // Duplicate laws would collide entry labels (and cache keys).
        let mut s = base();
        let ScenarioKind::Analytic(a) = &mut s.kind else {
            unreachable!()
        };
        a.scenario = AnalyticScenario::Phase {
            laws: vec![Law::Power, Law::Power],
            w_over_bdp: vec![1.0],
            q_over_bdp: vec![0.0],
        };
        assert!(s.validate().unwrap_err().contains("distinct"));

        // Fluid parameters are range-checked.
        let mut s = base();
        let ScenarioKind::Analytic(a) = &mut s.kind else {
            unreachable!()
        };
        a.gamma = 1.5;
        assert!(s.validate().unwrap_err().contains("gamma"));

        // An empty ablation sweeps nothing.
        let mut s = base();
        let ScenarioKind::Analytic(a) = &mut s.kind else {
            unreachable!()
        };
        a.scenario = AnalyticScenario::Ablation {
            gammas: vec![],
            beta_fracs: vec![],
            etas: vec![],
        };
        assert!(s.validate().unwrap_err().contains("at least one"));

        // A phase grid is bounded before anything is allocated for it: in
        // its cell count (3,000 × 3,000 starts aborted the process) ...
        let phase = |w_over_bdp: Vec<f64>, q_over_bdp: Vec<f64>| {
            let mut s = base();
            let ScenarioKind::Analytic(a) = &mut s.kind else {
                unreachable!()
            };
            a.scenario = AnalyticScenario::Phase {
                laws: vec![Law::Power],
                w_over_bdp,
                q_over_bdp,
            };
            s.validate()
        };
        let fracs = |n: usize| (1..=n).map(|i| i as f64 / 8.0).collect::<Vec<f64>>();
        assert_eq!(phase(fracs(32), fracs(32)), Ok(()));
        let err = phase(fracs(3000), fracs(3000)).unwrap_err();
        assert!(
            err.contains("9000000 starts") && err.contains(&MAX_PHASE_CELLS.to_string()),
            "{err}"
        );
        // ... and in each start (1e300 BDPs integrated to non-finite stats).
        assert_eq!(phase(vec![MAX_PHASE_START_OVER_BDP], vec![0.0]), Ok(()));
        for (w, q, key) in [(1e300, 0.0, "w_over_bdp"), (1.0, 1e300, "q_over_bdp")] {
            let err = phase(vec![w], vec![q]).unwrap_err();
            assert!(err.contains(key) && err.contains("1000]"), "{err}");
        }
    }

    #[test]
    fn analytic_toml_rejects_sim_tables() {
        let with_topo = r#"
name = "x"
kind = "analytic"
[topology]
kind = "star"
hosts = 4
[analytic]
scenario = "laws"
"#;
        assert!(ScenarioSpec::from_toml(with_topo)
            .unwrap_err()
            .contains("no topology"));
        let sweep_with_analytic = r#"
name = "x"
[analytic]
scenario = "laws"
[topology]
kind = "star"
hosts = 4
[workload.poisson]
sizes = "websearch"
[sweep]
algos = ["powertcp"]
loads = [0.5]
seeds = [1]
"#;
        assert!(ScenarioSpec::from_toml(sweep_with_analytic)
            .unwrap_err()
            .contains("analytic"));
    }

    #[test]
    fn analytic_toml_rejects_sub_kind_mismatched_keys() {
        // A grid key of the wrong sub-kind must error, not silently run
        // a different experiment than configured.
        let phase_with_gammas = r#"
name = "x"
kind = "analytic"
[analytic]
scenario = "phase"
gammas = [0.5, 0.9]
"#;
        let err = ScenarioSpec::from_toml(phase_with_gammas).unwrap_err();
        assert!(err.contains("gammas") && err.contains("phase"), "{err}");
        let ablation_with_grid = r#"
name = "x"
kind = "analytic"
[analytic]
scenario = "ablation"
gammas = [0.5]
w_over_bdp = [0.1, 1.0]
"#;
        let err = ScenarioSpec::from_toml(ablation_with_grid).unwrap_err();
        assert!(err.contains("w_over_bdp"), "{err}");
        let laws_with_tolerance_ok = r#"
name = "x"
kind = "analytic"
[analytic]
scenario = "laws"
tolerance = 0.05
"#;
        assert!(ScenarioSpec::from_toml(laws_with_tolerance_ok).is_ok());
    }

    #[test]
    fn ablation_fragment_excludes_the_grid_axes() {
        use fluid_model::Law;
        // Extending an ablation axis must not move the other entries'
        // cache keys: the axes are sweep axes, each entry's identity is
        // its label plus the shared fluid parameters.
        let small = ScenarioSpec::new_analytic(
            "ab",
            AnalyticSpec::new(AnalyticScenario::Ablation {
                gammas: vec![0.5],
                beta_fracs: vec![],
                etas: vec![],
            }),
        );
        let mut wider = small.clone();
        let ScenarioKind::Analytic(a) = &mut wider.kind else {
            unreachable!()
        };
        a.scenario = AnalyticScenario::Ablation {
            gammas: vec![0.5, 0.9],
            beta_fracs: vec![0.1],
            etas: vec![],
        };
        assert_eq!(small.cache_fragment(), wider.cache_fragment());
        // Shared fluid parameters ARE per-entry physics.
        let mut tuned = small.clone();
        let ScenarioKind::Analytic(a) = &mut tuned.kind else {
            unreachable!()
        };
        a.base_rtt_us = 40.0;
        assert_ne!(small.cache_fragment(), tuned.cache_fragment());
        // Phase grids stay in the fragment: every law entry integrates
        // the whole grid.
        let phase = |w: Vec<f64>| {
            ScenarioSpec::new_analytic(
                "ph",
                AnalyticSpec::new(AnalyticScenario::Phase {
                    laws: vec![Law::Power],
                    w_over_bdp: w,
                    q_over_bdp: vec![0.0],
                }),
            )
        };
        assert_ne!(
            phase(vec![1.0]).cache_fragment(),
            phase(vec![1.0, 2.0]).cache_fragment()
        );
    }

    #[test]
    fn param_specs_round_trip_and_expand_the_sweep() {
        let p = ParamSpec {
            gamma: Some(0.5),
            expected_flows: Some(32),
            hpcc_eta: Some(0.95),
            dt_alpha: Some(0.25),
        };
        assert_eq!(p.label(), "gamma=0.5,n=32,eta=0.95,alpha=0.25");
        assert_eq!(ParamSpec::parse(&p.label()), Ok(p));
        assert_eq!(ParamSpec::parse(""), Ok(ParamSpec::default()));
        assert!(ParamSpec::parse("gamma").is_err());
        assert!(ParamSpec::parse("zeta=1").is_err());

        let mut spec = sample_spec();
        let sweep = &mut spec.sweep_mut("test").sweep;
        sweep.algos = vec![Algo::PowerTcp, Algo::Hpcc];
        sweep.params = vec![
            ParamSpec {
                gamma: Some(0.5),
                ..ParamSpec::default()
            },
            ParamSpec {
                gamma: Some(0.9),
                ..ParamSpec::default()
            },
        ];
        spec.validate().unwrap();
        // 2 algos x 2 params x 2 loads x 2 seeds.
        assert_eq!(spec.num_points(), 16);
        let text = spec.to_toml();
        assert!(
            text.contains("params = [\"gamma=0.5\", \"gamma=0.9\"]"),
            "{text}"
        );
        assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec);
        // Specs without a params axis do not write the key at all.
        assert!(!sample_spec().to_toml().contains("params"));
    }

    #[test]
    fn param_validation_catches_mistakes() {
        let with = |params: Vec<ParamSpec>| {
            let mut spec = sample_spec();
            let sweep = &mut spec.sweep_mut("test").sweep;
            sweep.algos = vec![Algo::PowerTcp];
            sweep.params = params;
            spec
        };
        assert!(with(vec![ParamSpec {
            gamma: Some(0.0),
            ..ParamSpec::default()
        }])
        .validate()
        .unwrap_err()
        .contains("gamma"));
        assert!(with(vec![ParamSpec::default()])
            .validate()
            .unwrap_err()
            .contains("at least one override"));
        // Duplicates collide cache keys and report labels.
        let dup = with(vec![
            ParamSpec {
                gamma: Some(0.5),
                ..ParamSpec::default()
            },
            ParamSpec {
                gamma: Some(0.5),
                ..ParamSpec::default()
            },
        ]);
        assert!(dup.validate().unwrap_err().contains("duplicate"));
        // HOMA has no CC params.
        let mut homa = with(vec![ParamSpec {
            gamma: Some(0.5),
            ..ParamSpec::default()
        }]);
        homa.sweep_mut("test").sweep.algos = vec![Algo::Homa(1)];
        assert!(homa.validate().unwrap_err().contains("HOMA"));
    }

    #[test]
    fn trace_window_round_trips_and_validates() {
        let mut spec = ts_spec(TraceScenario::Fairness {
            flows: 2,
            stagger_ms: 1.0,
            horizon_ms: 5.0,
        });
        spec.timeseries_mut("test").trace.window = 4;
        spec.validate().unwrap();
        let text = spec.to_toml();
        assert!(text.contains("window = 4"), "{text}");
        assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec);
        // The default (1) is not written out.
        let default = ts_spec(TraceScenario::Fairness {
            flows: 2,
            stagger_ms: 1.0,
            horizon_ms: 5.0,
        });
        assert!(!default.to_toml().contains("window"));
        // Window 0 and window > max_samples are rejected.
        spec.timeseries_mut("test").trace.window = 0;
        assert!(spec.validate().unwrap_err().contains("window"));
        spec.timeseries_mut("test").trace.window = 1_000_000;
        assert!(spec.validate().unwrap_err().contains("window"));
    }

    #[test]
    fn sweep_toml_rejects_trace_table_and_vice_versa() {
        let sweep_with_trace = r#"
name = "x"
[topology]
kind = "star"
hosts = 4
[trace]
scenario = "response"
[workload.poisson]
sizes = "websearch"
[sweep]
algos = ["powertcp"]
loads = [0.5]
seeds = [1]
"#;
        assert!(ScenarioSpec::from_toml(sweep_with_trace)
            .unwrap_err()
            .contains("timeseries"));
        let ts_with_workload = r#"
name = "x"
kind = "timeseries"
[trace]
scenario = "response"
[workload.poisson]
sizes = "websearch"
"#;
        assert!(ScenarioSpec::from_toml(ts_with_workload)
            .unwrap_err()
            .contains("remove [workload]"));
    }

    #[test]
    fn from_toml_reports_helpful_errors() {
        assert!(ScenarioSpec::from_toml("name = \"x\"")
            .unwrap_err()
            .contains("topology"));
        let bad_algo = r#"
name = "x"
[topology]
kind = "star"
hosts = 4
[workload.poisson]
sizes = "websearch"
[sweep]
algos = ["bbr"]
loads = [0.5]
seeds = [1]
"#;
        assert!(ScenarioSpec::from_toml(bad_algo)
            .unwrap_err()
            .contains("unknown algorithm"));
        let bad_kind = r#"
name = "x"
[topology]
kind = "torus"
[sweep]
algos = ["powertcp"]
seeds = [1]
"#;
        assert!(ScenarioSpec::from_toml(bad_kind)
            .unwrap_err()
            .contains("topology kind"));
    }
    /// A minimal valid sweep, with `extra` spliced in before `marker`.
    fn star_sweep_with(marker: &str, extra: &str) -> String {
        let base = "name = \"x\"\n[topology]\nkind = \"star\"\nhosts = 6\n\
                    [workload.poisson]\nsizes = \"websearch\"\n\
                    [sweep]\nalgos = [\"powertcp\"]\nloads = [0.5]\nseeds = [1]\n";
        assert!(ScenarioSpec::from_toml(base).is_ok());
        base.replacen(marker, &format!("{extra}\n{marker}"), 1)
    }

    #[test]
    fn keys_the_parent_silently_ignored_are_errors_naming_them() {
        // Each of these parsed at the parent commit and ran a different
        // experiment than the one written down.
        for (marker, extra, named) in [
            ("hosts = 6", "host_gpbs = 100.0", "host_gpbs"),
            ("seeds = [1]", "seed = [2]", "\"seed\""),
            ("[sweep]", "[workload.incst]\nfan_in = 2", "incst"),
            ("hosts = 6", "pairs = 3", "pairs"),
            ("[sweep]", "fixed_bytes = 1000", "fixed_bytes"),
            ("[sweep]", "[workload]\nload = 0.5", "\"load\""),
        ] {
            let err = ScenarioSpec::from_toml(&star_sweep_with(marker, extra))
                .expect_err(&format!("{extra} was accepted"));
            assert!(err.contains(named), "{extra}: {err}");
        }
        // Another trace scenario's key, and a sweep axis on a lineup.
        let fig5 = crate::library::builtin("fig5").unwrap().to_toml();
        for extra in ["fan_in = 4", "weeks = 2"] {
            let text = fig5.replace("flows = 4", &format!("flows = 4\n{extra}"));
            let err = ScenarioSpec::from_toml(&text).expect_err(extra);
            let key = extra.split(' ').next().unwrap();
            assert!(err.contains(key) && err.contains("fairness"), "{err}");
        }
        let with_loads = fig5.replace("[sweep]\n", "[sweep]\nloads = [0.5]\n");
        let err = ScenarioSpec::from_toml(&with_loads).unwrap_err();
        assert!(err.contains("loads"), "{err}");
        // A trace in the format from before traces lost the keys none
        // reads: a seed, a drain, a top-level horizon, a horizon on a
        // trace that runs rotor weeks, fig2's placeholder lineup.
        let text = |name| crate::library::builtin(name).unwrap().to_toml();
        let (fig2, fig4, fig8) = (text("fig2"), text("fig4"), text("fig8"));
        let kind = "kind = \"timeseries\"\n";
        let root_horizon = "kind = \"timeseries\" has no horizon_ms";
        let lineup = "[sweep]\nalgos = [\"powertcp\"]";
        for (spec, marker, extra, named) in [
            (&fig4, "[sweep]\n", "seeds = [42]", "\"seeds\""),
            (&fig4, kind, "drain_ms = 0.0", "drain_ms"),
            (&fig4, kind, "horizon_ms = 5.0", root_horizon),
            (&fig8, "weeks = 2\n", "horizon_ms = 4.0", "horizon_ms"),
            (&fig2, "max_rows = 120\n", lineup, "given its [trace]"),
        ] {
            assert!(spec.contains(marker), "{marker}");
            let edited = spec.replacen(marker, &format!("{marker}{extra}\n"), 1);
            let err = ScenarioSpec::from_toml(&edited).expect_err(&edited);
            assert!(err.contains(named), "{extra}: {err}");
        }
    }

    #[test]
    fn non_finite_numbers_never_reach_the_time_box() {
        // `inf` and `1e999` are both floats to the TOML parser; at the
        // parent they passed `from_toml` and `horizon()` then panicked.
        for bad in ["inf", "1e999", "-inf"] {
            for key in ["horizon_ms", "drain_ms"] {
                let text = star_sweep_with("[topology]", &format!("{key} = {bad}"));
                let err = ScenarioSpec::from_toml(&text).expect_err(bad);
                assert!(err.contains(key), "{err}");
            }
        }
        // The same in code: validate() is the gate.
        let spec = sample_spec().horizon_ms(f64::INFINITY);
        assert!(spec.validate().unwrap_err().contains("horizon_ms"));
        let mut spec = sample_spec();
        spec.sweep_mut("test").sweep.loads = vec![f64::NAN];
        assert!(spec.validate().unwrap_err().contains("loads"));
    }

    /// `weeks` is unbounded above as a key; at the parent 4e9 of them
    /// passed `from_toml` and the engine multiplied them into a wrapped
    /// (debug: panicking) horizon.
    #[test]
    fn a_run_too_long_for_simulator_time_is_refused_naming_weeks() {
        let fig8 = crate::library::builtin("fig8").unwrap().to_toml();
        let weeks = |n: u64| fig8.replace("weeks = 2", &format!("weeks = {n}"));
        let err = ScenarioSpec::from_toml(&weeks(4_000_000_000)).unwrap_err();
        assert!(err.contains("trace.weeks = 4000000000"), "{err}");
        // The longest run that fits is a valid spec, and says how long.
        let week = rdcn::RotorSchedule::paper_defaults().week().as_ps();
        let most = u64::MAX / week;
        assert!(ScenarioSpec::from_toml(&weeks(most)).is_ok());
        assert_eq!(rotor_run_length(most), Ok(Tick::from_ps(week * most)));
        assert!(ScenarioSpec::from_toml(&weeks(most + 1)).is_err());
    }

    #[test]
    fn integers_are_toml_integers() {
        // TOML integers are i64: the largest legal seed round-trips...
        let max = sample_spec().seeds([i64::MAX as u64]);
        max.validate().unwrap();
        assert_eq!(ScenarioSpec::from_toml(&max.to_toml()).unwrap(), max);
        // ...and one more would be written as a negative number that
        // `from_toml` (every `--procs` worker) refuses.
        let over = sample_spec().seeds([1 << 63]);
        let err = over.validate().unwrap_err();
        assert!(err.contains("seeds") && err.contains("2^63"), "{err}");
        let mut huge = sample_spec();
        let incast = &mut huge.sweep_mut("test").workload.incast;
        incast.as_mut().unwrap().request_bytes = u64::MAX;
        assert!(huge.validate().unwrap_err().contains("request_bytes"));
        // A fat-tree too large to count is not an overflow: the flow
        // engine takes it, the packet engine names the key it cannot build.
        let mut vast = sample_spec();
        vast.sweep_mut("test").topology = TopologySpec::FatTree {
            hosts_per_tor: i64::MAX as usize,
            host_gbps: 25.0,
            fabric_gbps: 12.5,
        };
        assert!(vast.validate().unwrap_err().contains("hosts_per_tor"));
        vast.sweep_mut("test").engine = EngineKind::Flow;
        assert_eq!(vast.validate(), Ok(()));
    }

    #[test]
    fn a_repeated_param_key_is_an_error() {
        let err = ParamSpec::parse("gamma=0.5,gamma=0.7").unwrap_err();
        assert!(err.contains("gamma") && err.contains("repeated"), "{err}");
        assert!(ParamSpec::parse("gamma=0.5,n=8").is_ok());
        assert!(ParamSpec::parse("n=5000000000").is_err());
        assert!(ParamSpec::parse("n=1.5").is_err());
    }

    #[test]
    fn constructors_and_the_reader_share_the_table_defaults() {
        let parsed = |text: &str| ScenarioSpec::from_toml(text).unwrap_or_else(|e| panic!("{e}"));
        // [trace]: tick, ring, rows, window, channels.
        let ts = parsed("name = \"t\"\nkind = \"timeseries\"\n[trace]\nscenario = \"response\"\n");
        let mut built = ScenarioSpec::timeseries("t", TraceSpec::new(TraceScenario::Response));
        assert_eq!(ts, built);
        let trace = &built.timeseries_mut("test").trace;
        assert_eq!((trace.tick_us, trace.max_samples), (20.0, 4096));
        assert_eq!((trace.max_rows, trace.window), (120, 1));
        // A trace that stops at a horizon: 4 ms, an incast at 1 ms.
        let mut incast = parsed(
            "name = \"t\"\nkind = \"timeseries\"\n[trace]\nscenario = \"incast\"\n\
             fan_in = 2\nburst_bytes = 9\n[sweep]\nalgos = [\"powertcp\"]\n",
        );
        let scenario = &incast.timeseries_mut("test").trace.scenario;
        let TraceScenario::Incast {
            at_ms, horizon_ms, ..
        } = *scenario
        else {
            unreachable!("an incast trace")
        };
        assert_eq!((at_ms, horizon_ms), (1.0, 4.0));
        // A given scenario goes in untouched by its own keys' defaults.
        let incast = TraceScenario::Incast {
            fan_in: 3,
            burst_bytes: 9,
            at_ms: 0.25,
            horizon_ms: 5.0,
        };
        assert_eq!(TraceSpec::new(incast.clone()).scenario, incast);
        let laws = AnalyticScenario::Laws { tolerance: 0.5 };
        assert_eq!(AnalyticSpec::new(laws.clone()).scenario, laws);
        // Sweeps: 4 ms + 6 ms.
        let sweep = parsed(&star_sweep_with("[sweep]", ""));
        let sweep = sweep.sweep_body("test");
        assert_eq!((sweep.horizon_ms, sweep.drain_ms), (4.0, 6.0));
        let built = ScenarioSpec::new("x", sweep.topology);
        let built = built.sweep_body("test");
        assert_eq!((built.horizon_ms, built.drain_ms), (4.0, 6.0));
        // Analytic scenarios are their `[analytic]` table and nothing else.
        let an = ScenarioSpec::new_analytic("a", AnalyticSpec::new(laws.clone()));
        assert_eq!(an.kind, ScenarioKind::Analytic(AnalyticSpec::new(laws)));
    }
}
