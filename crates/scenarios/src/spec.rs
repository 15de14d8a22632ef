//! Declarative experiment specifications.
//!
//! A [`ScenarioSpec`] fully describes one experiment family: a topology
//! (fat-tree / star / dumbbell), a workload (Poisson background traffic,
//! an incast overlay, or both), a time horizon, and the sweep axes
//! (algorithm grid × load grid × seed grid). Specs are plain data: they
//! can be built in code (builder methods), loaded from TOML (`xp run
//! spec.toml`), or taken from the built-in library
//! ([`crate::library`]), and the cross-product of their sweep axes is
//! executed by [`crate::sweep::run_sweep`].

use crate::algo::Algo;
use crate::toml::{self, Value};
use fluid_model::{FluidParams, Law};
use powertcp_core::{Bandwidth, Tick};
use std::collections::BTreeMap;

/// The network under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TopologySpec {
    /// The paper's oversubscribed fat-tree (§4.1). Oversubscription is
    /// set by `hosts_per_tor × host_gbps` versus the ToR uplink capacity
    /// (`aggs_per_pod × fabric_gbps`, 2 uplinks by default).
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
    /// The host NIC bandwidth.
    pub fn host_bw(&self) -> Bandwidth {
        let g = match self {
            TopologySpec::FatTree { host_gbps, .. } => *host_gbps,
            TopologySpec::Star { host_gbps, .. } => *host_gbps,
            TopologySpec::Dumbbell { host_gbps, .. } => *host_gbps,
        };
        gbps(g)
    }

    /// Total host count.
    pub fn num_hosts(&self) -> usize {
        match self {
            TopologySpec::FatTree { .. } => {
                // pods × tors_per_pod × hosts_per_tor with the default
                // 4-pod, 2-ToR layout of `FatTreeConfig::default()`.
                crate::engine::fat_tree_config(self, None).num_hosts()
            }
            TopologySpec::Star { hosts, .. } => *hosts,
            TopologySpec::Dumbbell { pairs, .. } => pairs * 2,
        }
    }

    /// Number of distinct "racks" the workload generators see (fat-tree:
    /// ToRs; star: one per host, since there is no rack sharing; dumbbell:
    /// the two sides).
    pub fn num_racks(&self) -> usize {
        match self {
            TopologySpec::FatTree { hosts_per_tor, .. } => self.num_hosts() / hosts_per_tor.max(&1),
            TopologySpec::Star { hosts, .. } => *hosts,
            TopologySpec::Dumbbell { .. } => 2,
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

/// What a scenario produces when run.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioKind {
    /// The default: an FCT sweep over (algorithm × params × load × seed),
    /// reduced to slowdown/buffer statistics ([`crate::sweep::run_sweep`]).
    Sweep,
    /// Time-series traces: one instrumented run per algorithm (or lineup
    /// entry), producing sampled channels — queue depth, throughput,
    /// per-flow cwnd, PowerTCP Γ — instead of FCT statistics
    /// ([`crate::sweep::run_trace`]).
    Timeseries(TraceSpec),
    /// Fluid-model experiments: no simulation at all — phase portraits,
    /// parameter ablations, and theorem checks over `fluid-model`, one
    /// deterministic computation per grid entry
    /// ([`crate::analytic_engine`]).
    Analytic(AnalyticSpec),
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

/// The traced experiments: the paper's temporal figures as declarative
/// data. Each defines its own fixture (the star / rotor topology is
/// derived, not configured — see [`TraceScenario::implied_topology`]).
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
    },
    /// Figure 5: `flows` long flows joining one shared bottleneck at
    /// `stagger_ms` intervals — fairness and convergence.
    Fairness {
        /// Number of staggered senders.
        flows: usize,
        /// Join interval, milliseconds.
        stagger_ms: f64,
    },
    /// Figure 8: the reconfigurable-DCN case study — rack-pair throughput
    /// and VOQ occupancy over the rotor schedule.
    Rdcn {
        /// Rotor weeks to simulate (the run horizon; `horizon_ms` is
        /// ignored for this scenario).
        weeks: u64,
        /// Packet-network (non-circuit) bandwidth in Gbps.
        packet_gbps: f64,
        /// reTCP prebuffering values to trace (µs); each expands to one
        /// lineup entry per `retcp` in the algorithm grid.
        retcp_prebuffer_us: Vec<f64>,
    },
}

impl TraceScenario {
    /// The fixture topology this trace scenario runs on. Timeseries
    /// topologies are derived, not configured: the incast/fairness star is
    /// sized by the scenario itself (the RDCN fixture is built by the
    /// `rdcn` crate and the placeholder topology is unused).
    pub fn implied_topology(&self) -> TopologySpec {
        let hosts = match self {
            TraceScenario::Incast { fan_in, .. } => fan_in + 2,
            TraceScenario::Fairness { flows, .. } => flows + 1,
            TraceScenario::Response | TraceScenario::Rdcn { .. } => 2,
        };
        TopologySpec::Star {
            hosts,
            host_gbps: 25.0,
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
    /// configured flow count).
    pub fn channel_names(&self) -> Vec<String> {
        match self {
            TraceScenario::Response => [
                "voltage-md-vs-rate",
                "current-md-vs-rate",
                "voltage-md-vs-queue",
                "current-md-vs-queue",
            ]
            .map(String::from)
            .to_vec(),
            TraceScenario::Incast { .. } => ["throughput", "queue", "cwnd", "power"]
                .map(String::from)
                .to_vec(),
            TraceScenario::Fairness { flows, .. } => (1..=*flows)
                .flat_map(|i| {
                    [
                        format!("flow-{i}"),
                        format!("cwnd-{i}"),
                        format!("power-{i}"),
                    ]
                })
                .collect(),
            TraceScenario::Rdcn { .. } => ["throughput", "voq", "cwnd", "power"]
                .map(String::from)
                .to_vec(),
        }
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
    /// An analytic spec over the paper's running example (100 Gbps,
    /// 20 µs, γ = 0.9 at 10 updates/RTT, β̂ = BDP/10, η = 1).
    pub fn new(scenario: AnalyticScenario) -> Self {
        AnalyticSpec {
            scenario,
            bandwidth_gbps: 100.0,
            base_rtt_us: 20.0,
            gamma: 0.9,
            updates_per_rtt: 10.0,
            beta_frac: 0.1,
            hpcc_eta: 1.0,
        }
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

impl AnalyticScenario {
    /// Stable TOML identifier.
    pub fn key(&self) -> &'static str {
        match self {
            AnalyticScenario::Phase { .. } => "phase",
            AnalyticScenario::Ablation { .. } => "ablation",
            AnalyticScenario::Laws { .. } => "laws",
        }
    }
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
        let mut parts = Vec::new();
        if let Some(g) = self.gamma {
            parts.push(format!("gamma={g}"));
        }
        if let Some(n) = self.expected_flows {
            parts.push(format!("n={n}"));
        }
        if let Some(e) = self.hpcc_eta {
            parts.push(format!("eta={e}"));
        }
        if let Some(a) = self.dt_alpha {
            parts.push(format!("alpha={a}"));
        }
        parts.join(",")
    }

    /// Parse a [`ParamSpec::label`]-shaped string (`"gamma=0.5,n=32"`).
    pub fn parse(s: &str) -> Result<ParamSpec, String> {
        let mut out = ParamSpec::default();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let Some((k, v)) = part.split_once('=') else {
                return Err(format!("param {part:?} is not a key=value pair"));
            };
            match k.trim() {
                "gamma" => {
                    out.gamma = Some(
                        v.trim()
                            .parse()
                            .map_err(|_| format!("bad gamma value {v:?}"))?,
                    )
                }
                "n" => {
                    out.expected_flows = Some(
                        v.trim()
                            .parse()
                            .map_err(|_| format!("bad flow count {v:?}"))?,
                    )
                }
                "eta" => {
                    out.hpcc_eta = Some(
                        v.trim()
                            .parse()
                            .map_err(|_| format!("bad eta value {v:?}"))?,
                    )
                }
                "alpha" => {
                    out.dt_alpha = Some(
                        v.trim()
                            .parse()
                            .map_err(|_| format!("bad alpha value {v:?}"))?,
                    )
                }
                other => {
                    return Err(format!(
                        "unknown param key {other:?} (expected gamma, n, eta, or alpha)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Validity check used by spec validation.
    fn validate(&self) -> Result<(), String> {
        if let Some(g) = self.gamma {
            if !(g.is_finite() && g > 0.0 && g <= 1.0) {
                return Err(format!("param gamma must be in (0, 1], got {g}"));
            }
        }
        if let Some(n) = self.expected_flows {
            if n == 0 {
                return Err("param n (expected flows) must be >= 1".into());
            }
        }
        if let Some(e) = self.hpcc_eta {
            if !(e.is_finite() && e > 0.0 && e <= 1.0) {
                return Err(format!("param eta must be in (0, 1], got {e}"));
            }
        }
        if let Some(a) = self.dt_alpha {
            if !(a.is_finite() && a > 0.0) {
                return Err(format!("param alpha must be positive, got {a}"));
            }
        }
        Ok(())
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

/// A complete declarative experiment description.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and `xp list`).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Network under test.
    pub topology: TopologySpec,
    /// What the scenario produces: an FCT sweep (default) or time-series
    /// traces.
    pub kind: ScenarioKind,
    /// Offered traffic.
    pub workload: WorkloadSpec,
    /// Workload generation horizon, milliseconds.
    pub horizon_ms: f64,
    /// Extra drain time after the horizon, milliseconds.
    pub drain_ms: f64,
    /// Sweep axes.
    pub sweep: SweepSpec,
    /// Which engine runs the sweep points (sweep kind only).
    pub engine: EngineKind,
    /// Emit per-aggregate buffer-occupancy CDF columns in sweep reports
    /// (packet engine only; a report option, not physics — stripped
    /// from [`Self::cache_fragment`]). Off by default so existing
    /// baselines stay byte-identical.
    pub buffer_cdf: bool,
}

impl ScenarioSpec {
    /// A new spec with an empty workload, a PowerTCP-only algorithm
    /// grid, seed 42, and a 4 ms + 6 ms time box (the `tiny` scale).
    pub fn new(name: impl Into<String>, topology: TopologySpec) -> Self {
        ScenarioSpec {
            name: name.into(),
            description: String::new(),
            topology,
            kind: ScenarioKind::Sweep,
            workload: WorkloadSpec::default(),
            horizon_ms: 4.0,
            drain_ms: 6.0,
            sweep: SweepSpec {
                algos: vec![Algo::PowerTcp],
                params: Vec::new(),
                loads: Vec::new(),
                seeds: vec![42],
            },
            engine: EngineKind::Packet,
            buffer_cdf: false,
        }
    }

    /// A new time-series scenario: the topology is derived from the trace
    /// scenario, the workload is the trace scenario itself, and the
    /// algorithm grid is the lineup. Defaults: PowerTCP only, seed 42,
    /// 4 ms horizon, no drain.
    pub fn timeseries(name: impl Into<String>, trace: TraceSpec) -> Self {
        ScenarioSpec {
            name: name.into(),
            description: String::new(),
            topology: trace.scenario.implied_topology(),
            kind: ScenarioKind::Timeseries(trace),
            workload: WorkloadSpec::default(),
            horizon_ms: 4.0,
            drain_ms: 0.0,
            sweep: SweepSpec {
                algos: vec![Algo::PowerTcp],
                params: Vec::new(),
                loads: Vec::new(),
                seeds: vec![42],
            },
            engine: EngineKind::Packet,
            buffer_cdf: false,
        }
    }

    /// A new analytic scenario: no topology (a fixed placeholder star, as
    /// for the analytic `response` trace), no workload, no sweep axes —
    /// the `[analytic]` table fully describes the experiment.
    pub fn new_analytic(name: impl Into<String>, analytic: AnalyticSpec) -> Self {
        ScenarioSpec {
            name: name.into(),
            description: String::new(),
            topology: Self::analytic_topology(),
            kind: ScenarioKind::Analytic(analytic),
            workload: WorkloadSpec::default(),
            horizon_ms: 4.0,
            drain_ms: 0.0,
            sweep: Self::analytic_sweep(),
            engine: EngineKind::Packet,
            buffer_cdf: false,
        }
    }

    /// The placeholder topology of analytic scenarios (never built).
    pub(crate) fn analytic_topology() -> TopologySpec {
        TopologySpec::Star {
            hosts: 2,
            host_gbps: 25.0,
        }
    }

    /// The placeholder sweep of analytic scenarios (the grid lives in
    /// `[analytic]`; validation requires exactly this).
    pub(crate) fn analytic_sweep() -> SweepSpec {
        SweepSpec {
            algos: vec![Algo::PowerTcp],
            params: Vec::new(),
            loads: Vec::new(),
            seeds: vec![42],
        }
    }

    /// The trace spec of a timeseries scenario (`None` otherwise).
    pub fn trace(&self) -> Option<&TraceSpec> {
        match &self.kind {
            ScenarioKind::Timeseries(t) => Some(t),
            _ => None,
        }
    }

    /// The analytic spec of an analytic scenario (`None` otherwise).
    pub fn analytic(&self) -> Option<&AnalyticSpec> {
        match &self.kind {
            ScenarioKind::Analytic(a) => Some(a),
            _ => None,
        }
    }

    /// Replace the trace scenario of a timeseries spec, re-deriving the
    /// fixture topology (which validation requires to stay consistent).
    /// Panics on a sweep spec.
    pub fn trace_scenario(mut self, scenario: TraceScenario) -> Self {
        let ScenarioKind::Timeseries(trace) = &mut self.kind else {
            panic!("trace_scenario on a sweep spec");
        };
        trace.scenario = scenario;
        self.topology = trace.scenario.implied_topology();
        self
    }

    /// Set the description.
    pub fn describe(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    /// Add Poisson background traffic with the given size distribution.
    pub fn poisson(mut self, sizes: SizeSpec) -> Self {
        self.workload.poisson = Some(PoissonSpec { sizes });
        self
    }

    /// Add an incast overlay.
    pub fn incast(mut self, incast: IncastSpec) -> Self {
        self.workload.incast = Some(incast);
        self
    }

    /// Set the generation horizon (ms).
    pub fn horizon_ms(mut self, ms: f64) -> Self {
        self.horizon_ms = ms;
        self
    }

    /// Set the post-horizon drain time (ms).
    pub fn drain_ms(mut self, ms: f64) -> Self {
        self.drain_ms = ms;
        self
    }

    /// Set the algorithm grid.
    pub fn algos(mut self, algos: impl IntoIterator<Item = Algo>) -> Self {
        self.sweep.algos = algos.into_iter().collect();
        self
    }

    /// Set the load grid.
    pub fn loads(mut self, loads: impl IntoIterator<Item = f64>) -> Self {
        self.sweep.loads = loads.into_iter().collect();
        self
    }

    /// Set the seed grid.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.sweep.seeds = seeds.into_iter().collect();
        self
    }

    /// Set the algorithm-parameter grid (the ablation axis).
    pub fn params(mut self, params: impl IntoIterator<Item = ParamSpec>) -> Self {
        self.sweep.params = params.into_iter().collect();
        self
    }

    /// Select the engine that runs the sweep points.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Toggle per-aggregate buffer-occupancy CDF columns in the report
    /// (packet-engine sweeps only).
    pub fn buffer_cdf(mut self, on: bool) -> Self {
        self.buffer_cdf = on;
        self
    }

    /// Restrict a timeseries spec to recording only the named channels
    /// (validated against [`TraceScenario::channel_names`]). Panics on a
    /// sweep spec.
    pub fn channels(mut self, channels: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let ScenarioKind::Timeseries(trace) = &mut self.kind else {
            panic!("channels on a sweep spec");
        };
        trace.channels = channels.into_iter().map(Into::into).collect();
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
        let mut stripped = self.clone();
        stripped.name = String::new();
        stripped.description = String::new();
        // buffer_cdf only changes how the report renders already-cached
        // outcomes, never the outcomes themselves. (`engine` stays: it
        // selects the physics.)
        stripped.buffer_cdf = false;
        stripped.sweep = SweepSpec {
            algos: Vec::new(),
            params: Vec::new(),
            loads: Vec::new(),
            seeds: Vec::new(),
        };
        // Ablation grids are sweep *axes*, not per-point physics: each
        // entry's computation is fully determined by the shared fluid
        // parameters plus its own swept value, which is already the
        // entry label in the cache key. Stripping them here means
        // extending a grid by one value recomputes one point, not the
        // whole grid. (Phase grids stay: every per-law entry integrates
        // the full w×q grid, so the grid IS that entry's physics.)
        if let ScenarioKind::Analytic(a) = &mut stripped.kind {
            if let AnalyticScenario::Ablation {
                gammas,
                beta_fracs,
                etas,
            } = &mut a.scenario
            {
                gammas.clear();
                beta_fracs.clear();
                etas.clear();
            }
        }
        stripped.to_toml()
    }

    /// The generation horizon as simulator time.
    pub fn horizon(&self) -> Tick {
        Tick::from_secs_f64(self.horizon_ms / 1e3)
    }

    /// The drain window as simulator time.
    pub fn drain(&self) -> Tick {
        Tick::from_secs_f64(self.drain_ms / 1e3)
    }

    /// The effective load grid: `[0.0]` when there is no Poisson traffic
    /// (incast-only scenarios have no load axis).
    pub fn effective_loads(&self) -> Vec<f64> {
        if self.workload.poisson.is_some() {
            self.sweep.loads.clone()
        } else {
            vec![0.0]
        }
    }

    /// The effective algorithm-parameter grid: the single default entry
    /// when no `params` axis is configured.
    pub fn effective_params(&self) -> Vec<ParamSpec> {
        if self.sweep.params.is_empty() {
            vec![ParamSpec::default()]
        } else {
            self.sweep.params.clone()
        }
    }

    /// Check internal consistency; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario needs a name".into());
        }
        if self.horizon_ms <= 0.0 {
            return Err(format!(
                "horizon_ms must be positive, got {}",
                self.horizon_ms
            ));
        }
        if self.drain_ms < 0.0 {
            return Err(format!("drain_ms must be >= 0, got {}", self.drain_ms));
        }
        if self.engine == EngineKind::Flow && !matches!(self.kind, ScenarioKind::Sweep) {
            return Err(
                "engine = \"flow\" only applies to sweep scenarios: timeseries traces \
                 depend on per-packet INT probes and analytic scenarios never simulate"
                    .into(),
            );
        }
        if self.buffer_cdf && !matches!(self.kind, ScenarioKind::Sweep) {
            return Err("buffer_cdf is a sweep-report option; remove it".into());
        }
        match &self.kind {
            ScenarioKind::Timeseries(trace) => return self.validate_timeseries(trace),
            ScenarioKind::Analytic(analytic) => return self.validate_analytic(analytic),
            ScenarioKind::Sweep => {}
        }
        if self.engine == EngineKind::Flow && self.buffer_cdf {
            return Err(
                "buffer_cdf requires the packet engine: the flow engine models no \
                 switch buffers to sample (use engine = \"packet\")"
                    .into(),
            );
        }
        match self.topology {
            TopologySpec::FatTree {
                hosts_per_tor,
                host_gbps,
                fabric_gbps,
            } => {
                if hosts_per_tor == 0 {
                    return Err("fat-tree needs hosts_per_tor >= 1".into());
                }
                if host_gbps <= 0.0 || fabric_gbps <= 0.0 {
                    return Err("fat-tree bandwidths must be positive".into());
                }
            }
            TopologySpec::Star { hosts, host_gbps } => {
                if hosts < 2 {
                    return Err("star needs at least 2 hosts".into());
                }
                if host_gbps <= 0.0 {
                    return Err("star host_gbps must be positive".into());
                }
            }
            TopologySpec::Dumbbell {
                pairs,
                host_gbps,
                bottleneck_gbps,
            } => {
                if pairs == 0 {
                    return Err("dumbbell needs pairs >= 1".into());
                }
                if host_gbps <= 0.0 || bottleneck_gbps <= 0.0 {
                    return Err("dumbbell bandwidths must be positive".into());
                }
            }
        }
        if self.workload.poisson.is_none() && self.workload.incast.is_none() {
            return Err("workload needs poisson traffic, an incast overlay, or both".into());
        }
        if let Some(PoissonSpec {
            sizes: SizeSpec::Fixed(b),
        }) = self.workload.poisson
        {
            if b == 0 {
                return Err("fixed flow size must be >= 1 byte".into());
            }
        }
        if self.workload.poisson.is_some() {
            if self.sweep.loads.is_empty() {
                return Err("poisson workload needs a non-empty load grid".into());
            }
            for &l in &self.sweep.loads {
                if !(0.0..1.5).contains(&l) || l <= 0.0 {
                    return Err(format!("implausible load {l} (expected 0 < load < 1.5)"));
                }
            }
        }
        if let Some(ic) = self.workload.incast {
            if ic.rate_per_sec <= 0.0 {
                return Err("incast rate_per_sec must be positive".into());
            }
            if ic.request_bytes == 0 {
                return Err("incast request_bytes must be >= 1".into());
            }
            if ic.fan_in == 0 {
                return Err("incast fan_in must be >= 1".into());
            }
            let max = self.topology.max_fan_in();
            if ic.fan_in > max {
                return Err(format!(
                    "incast fan_in {} exceeds what the topology supports ({max})",
                    ic.fan_in
                ));
            }
        }
        if self.sweep.algos.is_empty() {
            return Err("sweep needs at least one algorithm".into());
        }
        if self.sweep.seeds.is_empty() {
            return Err("sweep needs at least one seed".into());
        }
        self.validate_params()?;
        Ok(())
    }

    /// Shared validation of the algorithm-parameter axis.
    fn validate_params(&self) -> Result<(), String> {
        if self.sweep.params.is_empty() {
            return Ok(());
        }
        // CC-law overrides (γ, N, η) only exist on the windowed
        // transport; switch-level overrides (DT α) apply to any lineup —
        // and matter most under lossy HOMA, where DT actually drops
        // (PFC-lossless fabrics bypass the per-port threshold).
        let tunes_cc = self
            .sweep
            .params
            .iter()
            .any(|p| p.gamma.is_some() || p.expected_flows.is_some() || p.hpcc_eta.is_some());
        if tunes_cc && self.sweep.algos.iter().any(|a| a.is_homa()) {
            return Err(
                "the gamma/n/eta params tune windowed-transport CC laws; HOMA takes \
                 only switch-level params (alpha)"
                    .into(),
            );
        }
        let mut seen: Vec<String> = Vec::new();
        for p in &self.sweep.params {
            p.validate()?;
            if p.is_default() {
                return Err(
                    "params entries must set at least one override (drop the entry \
                     for the default configuration)"
                        .into(),
                );
            }
            let label = p.label();
            if seen.contains(&label) {
                return Err(format!("duplicate params entry {label:?}"));
            }
            seen.push(label);
        }
        Ok(())
    }

    /// Timeseries-kind validation: the probe config, the trace scenario's
    /// own parameters, and the constraints the trace engine relies on
    /// (derived topology, no FCT workload, no load axis, one seed).
    fn validate_timeseries(&self, trace: &TraceSpec) -> Result<(), String> {
        if self.workload != WorkloadSpec::default() {
            return Err("timeseries scenarios define traffic via [trace], not [workload]".into());
        }
        if !self.sweep.loads.is_empty() {
            return Err("timeseries scenarios have no load axis".into());
        }
        if !self.sweep.params.is_empty() {
            return Err("timeseries scenarios have no params axis".into());
        }
        if self.sweep.algos.is_empty() {
            return Err("timeseries lineup needs at least one algorithm".into());
        }
        if self.sweep.seeds.len() != 1 {
            return Err("timeseries scenarios take exactly one seed".into());
        }
        if self.topology != trace.scenario.implied_topology() {
            return Err(
                "timeseries topology is derived from the trace scenario; do not set it".into(),
            );
        }
        if !(trace.tick_us > 0.0 && trace.tick_us.is_finite()) {
            return Err(format!(
                "trace tick_us must be positive, got {}",
                trace.tick_us
            ));
        }
        if trace.max_samples < 16 {
            return Err("trace max_samples must be >= 16".into());
        }
        if trace.max_rows < 2 {
            return Err("trace max_rows must be >= 2".into());
        }
        if trace.window == 0 {
            return Err("trace window must be >= 1 (1 = no windowing)".into());
        }
        if trace.window > trace.max_samples {
            return Err(format!(
                "trace window {} exceeds max_samples {} (every export would \
                 collapse to one row)",
                trace.window, trace.max_samples
            ));
        }
        let known = trace.scenario.channel_names();
        for ch in &trace.channels {
            if !known.contains(ch) {
                return Err(format!(
                    "unknown trace channel {ch:?} for the {} scenario (known: {})",
                    trace.scenario.key(),
                    known.join(", ")
                ));
            }
        }
        match &trace.scenario {
            TraceScenario::Response => {
                if self.sweep.algos.len() != 1 {
                    return Err("the response trace is analytic (no algorithm runs); \
                         its lineup must be a single placeholder algorithm"
                        .into());
                }
            }
            TraceScenario::Incast {
                fan_in,
                burst_bytes,
                at_ms,
            } => {
                if *fan_in == 0 {
                    return Err("incast trace needs fan_in >= 1".into());
                }
                if *burst_bytes == 0 {
                    return Err("incast trace needs burst_bytes >= 1".into());
                }
                if !(0.0..self.horizon_ms).contains(at_ms) {
                    return Err(format!(
                        "incast at_ms {} must lie within [0, horizon_ms {})",
                        at_ms, self.horizon_ms
                    ));
                }
            }
            TraceScenario::Fairness { flows, stagger_ms } => {
                if *flows < 2 {
                    return Err("fairness trace needs flows >= 2".into());
                }
                if !(stagger_ms.is_finite() && *stagger_ms > 0.0) {
                    return Err("fairness stagger_ms must be positive".into());
                }
                if (*flows as f64 - 1.0) * stagger_ms >= self.horizon_ms {
                    return Err("fairness: last flow would join after the horizon".into());
                }
            }
            TraceScenario::Rdcn {
                weeks,
                packet_gbps,
                retcp_prebuffer_us,
            } => {
                if *weeks == 0 {
                    return Err("rdcn trace needs weeks >= 1".into());
                }
                if !(packet_gbps.is_finite() && *packet_gbps > 0.0) {
                    return Err("rdcn packet_gbps must be positive".into());
                }
                if retcp_prebuffer_us
                    .iter()
                    .any(|p| !p.is_finite() || *p < 0.0)
                {
                    return Err("rdcn retcp_prebuffer_us entries must be >= 0".into());
                }
                if self.sweep.algos.contains(&Algo::ReTcp) && retcp_prebuffer_us.is_empty() {
                    return Err("rdcn lineup includes retcp but retcp_prebuffer_us is empty".into());
                }
                if self.sweep.algos.iter().any(|a| a.is_homa()) {
                    return Err(
                        "the rdcn trace runs the windowed transport; HOMA is unsupported".into(),
                    );
                }
            }
        }
        Ok(())
    }

    /// Analytic-kind validation: the fluid parameters, the grids of the
    /// analytic scenario, and the placeholder constraints (no topology,
    /// workload, or sweep axes of its own).
    fn validate_analytic(&self, analytic: &AnalyticSpec) -> Result<(), String> {
        if self.workload != WorkloadSpec::default() {
            return Err("analytic scenarios have no workload; remove [workload]".into());
        }
        if self.topology != Self::analytic_topology() {
            return Err("analytic scenarios have no topology; do not set it".into());
        }
        if self.sweep != Self::analytic_sweep() {
            return Err(
                "analytic scenarios have no sweep axes (the grid lives in [analytic]); \
                 remove [sweep]"
                    .into(),
            );
        }
        let finite_pos = |name: &str, v: f64| -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("analytic {name} must be positive, got {v}"))
            }
        };
        finite_pos("bandwidth_gbps", analytic.bandwidth_gbps)?;
        finite_pos("base_rtt_us", analytic.base_rtt_us)?;
        finite_pos("updates_per_rtt", analytic.updates_per_rtt)?;
        finite_pos("beta_frac", analytic.beta_frac)?;
        let unit_gain = |name: &str, v: f64| -> Result<(), String> {
            if v.is_finite() && v > 0.0 && v <= 1.0 {
                Ok(())
            } else {
                Err(format!("analytic {name} must be in (0, 1], got {v}"))
            }
        };
        unit_gain("gamma", analytic.gamma)?;
        unit_gain("hpcc_eta", analytic.hpcc_eta)?;
        let grid_axis = |name: &str, xs: &[f64], allow_zero: bool| -> Result<(), String> {
            for &x in xs {
                if !(x.is_finite() && (x > 0.0 || (allow_zero && x == 0.0))) {
                    return Err(format!(
                        "analytic {name} entries must be finite and {}, got {x}",
                        if allow_zero { ">= 0" } else { "> 0" }
                    ));
                }
            }
            let mut labels: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
            labels.sort();
            labels.dedup();
            if labels.len() != xs.len() {
                return Err(format!("analytic {name} entries must be distinct"));
            }
            Ok(())
        };
        match &analytic.scenario {
            AnalyticScenario::Phase {
                laws,
                w_over_bdp,
                q_over_bdp,
            } => {
                if laws.is_empty() {
                    return Err("analytic phase needs at least one law".into());
                }
                let mut keys: Vec<&str> = laws.iter().map(|l| l.key()).collect();
                keys.sort();
                keys.dedup();
                if keys.len() != laws.len() {
                    return Err("analytic phase laws must be distinct".into());
                }
                if w_over_bdp.is_empty() || q_over_bdp.is_empty() {
                    return Err("analytic phase needs non-empty w_over_bdp and q_over_bdp".into());
                }
                grid_axis("w_over_bdp", w_over_bdp, false)?;
                grid_axis("q_over_bdp", q_over_bdp, true)?;
            }
            AnalyticScenario::Ablation {
                gammas,
                beta_fracs,
                etas,
            } => {
                if gammas.is_empty() && beta_fracs.is_empty() && etas.is_empty() {
                    return Err(
                        "analytic ablation needs at least one of gammas, beta_fracs, or etas"
                            .into(),
                    );
                }
                grid_axis("gammas", gammas, false)?;
                grid_axis("beta_fracs", beta_fracs, false)?;
                grid_axis("etas", etas, false)?;
                for &g in gammas {
                    unit_gain("gammas entry", g)?;
                }
                for &e in etas {
                    unit_gain("etas entry", e)?;
                }
            }
            AnalyticScenario::Laws { tolerance } => {
                finite_pos("tolerance", *tolerance)?;
            }
        }
        Ok(())
    }

    /// Total number of sweep points (algos × params × loads × seeds) for
    /// sweeps, or lineup entries for timeseries/analytic scenarios.
    pub fn num_points(&self) -> usize {
        match &self.kind {
            // Single source of truth for the lineup expansion: the count
            // is the length of the engine's actual entry list.
            ScenarioKind::Timeseries(_) => crate::trace_engine::trace_entries(self).len(),
            ScenarioKind::Analytic(_) => crate::analytic_engine::analytic_entries(self).len(),
            ScenarioKind::Sweep => {
                self.sweep.algos.len()
                    * self.effective_params().len()
                    * self.effective_loads().len()
                    * self.sweep.seeds.len()
            }
        }
    }

    // ---- TOML ----

    /// Render as TOML (the exact format [`ScenarioSpec::from_toml`]
    /// reads back; `parse(to_toml(s)) == s`).
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let kv = |out: &mut String, k: &str, v: Value| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&toml::write_value(&v));
            out.push('\n');
        };
        kv(&mut out, "name", Value::Str(self.name.clone()));
        kv(
            &mut out,
            "description",
            Value::Str(self.description.clone()),
        );
        if let ScenarioKind::Analytic(analytic) = &self.kind {
            kv(&mut out, "kind", Value::Str("analytic".into()));

            out.push_str("\n[analytic]\n");
            kv(
                &mut out,
                "scenario",
                Value::Str(analytic.scenario.key().into()),
            );
            kv(
                &mut out,
                "bandwidth_gbps",
                Value::Float(analytic.bandwidth_gbps),
            );
            kv(&mut out, "base_rtt_us", Value::Float(analytic.base_rtt_us));
            kv(&mut out, "gamma", Value::Float(analytic.gamma));
            kv(
                &mut out,
                "updates_per_rtt",
                Value::Float(analytic.updates_per_rtt),
            );
            kv(&mut out, "beta_frac", Value::Float(analytic.beta_frac));
            kv(&mut out, "hpcc_eta", Value::Float(analytic.hpcc_eta));
            let farr = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
            match &analytic.scenario {
                AnalyticScenario::Phase {
                    laws,
                    w_over_bdp,
                    q_over_bdp,
                } => {
                    kv(
                        &mut out,
                        "laws",
                        Value::Array(laws.iter().map(|l| Value::Str(l.key().into())).collect()),
                    );
                    kv(&mut out, "w_over_bdp", farr(w_over_bdp));
                    kv(&mut out, "q_over_bdp", farr(q_over_bdp));
                }
                AnalyticScenario::Ablation {
                    gammas,
                    beta_fracs,
                    etas,
                } => {
                    kv(&mut out, "gammas", farr(gammas));
                    kv(&mut out, "beta_fracs", farr(beta_fracs));
                    kv(&mut out, "etas", farr(etas));
                }
                AnalyticScenario::Laws { tolerance } => {
                    kv(&mut out, "tolerance", Value::Float(*tolerance));
                }
            }
            return out;
        }
        if let ScenarioKind::Timeseries(trace) = &self.kind {
            kv(&mut out, "kind", Value::Str("timeseries".into()));
            kv(&mut out, "horizon_ms", Value::Float(self.horizon_ms));
            kv(&mut out, "drain_ms", Value::Float(self.drain_ms));

            out.push_str("\n[trace]\n");
            kv(
                &mut out,
                "scenario",
                Value::Str(trace.scenario.key().into()),
            );
            kv(&mut out, "tick_us", Value::Float(trace.tick_us));
            kv(
                &mut out,
                "max_samples",
                Value::Int(trace.max_samples as i64),
            );
            kv(&mut out, "max_rows", Value::Int(trace.max_rows as i64));
            if trace.window != 1 {
                kv(&mut out, "window", Value::Int(trace.window as i64));
            }
            if !trace.channels.is_empty() {
                kv(
                    &mut out,
                    "channels",
                    Value::Array(
                        trace
                            .channels
                            .iter()
                            .map(|c| Value::Str(c.clone()))
                            .collect(),
                    ),
                );
            }
            match &trace.scenario {
                TraceScenario::Response => {}
                TraceScenario::Incast {
                    fan_in,
                    burst_bytes,
                    at_ms,
                } => {
                    kv(&mut out, "fan_in", Value::Int(*fan_in as i64));
                    kv(&mut out, "burst_bytes", Value::Int(*burst_bytes as i64));
                    kv(&mut out, "at_ms", Value::Float(*at_ms));
                }
                TraceScenario::Fairness { flows, stagger_ms } => {
                    kv(&mut out, "flows", Value::Int(*flows as i64));
                    kv(&mut out, "stagger_ms", Value::Float(*stagger_ms));
                }
                TraceScenario::Rdcn {
                    weeks,
                    packet_gbps,
                    retcp_prebuffer_us,
                } => {
                    kv(&mut out, "weeks", Value::Int(*weeks as i64));
                    kv(&mut out, "packet_gbps", Value::Float(*packet_gbps));
                    kv(
                        &mut out,
                        "retcp_prebuffer_us",
                        Value::Array(
                            retcp_prebuffer_us
                                .iter()
                                .map(|&p| Value::Float(p))
                                .collect(),
                        ),
                    );
                }
            }

            out.push_str("\n[sweep]\n");
            kv(
                &mut out,
                "algos",
                Value::Array(
                    self.sweep
                        .algos
                        .iter()
                        .map(|a| Value::Str(a.key()))
                        .collect(),
                ),
            );
            kv(
                &mut out,
                "seeds",
                Value::Array(
                    self.sweep
                        .seeds
                        .iter()
                        .map(|&s| Value::Int(s as i64))
                        .collect(),
                ),
            );
            return out;
        }
        // Defaults are omitted (engine = "packet", buffer_cdf = false) so
        // every pre-flow-engine spec renders — and cache-keys — exactly
        // as before.
        if self.engine != EngineKind::Packet {
            kv(&mut out, "engine", Value::Str(self.engine.key().into()));
        }
        if self.buffer_cdf {
            kv(&mut out, "buffer_cdf", Value::Bool(true));
        }
        kv(&mut out, "horizon_ms", Value::Float(self.horizon_ms));
        kv(&mut out, "drain_ms", Value::Float(self.drain_ms));

        out.push_str("\n[topology]\n");
        match self.topology {
            TopologySpec::FatTree {
                hosts_per_tor,
                host_gbps,
                fabric_gbps,
            } => {
                kv(&mut out, "kind", Value::Str("fat-tree".into()));
                kv(&mut out, "hosts_per_tor", Value::Int(hosts_per_tor as i64));
                kv(&mut out, "host_gbps", Value::Float(host_gbps));
                kv(&mut out, "fabric_gbps", Value::Float(fabric_gbps));
            }
            TopologySpec::Star { hosts, host_gbps } => {
                kv(&mut out, "kind", Value::Str("star".into()));
                kv(&mut out, "hosts", Value::Int(hosts as i64));
                kv(&mut out, "host_gbps", Value::Float(host_gbps));
            }
            TopologySpec::Dumbbell {
                pairs,
                host_gbps,
                bottleneck_gbps,
            } => {
                kv(&mut out, "kind", Value::Str("dumbbell".into()));
                kv(&mut out, "pairs", Value::Int(pairs as i64));
                kv(&mut out, "host_gbps", Value::Float(host_gbps));
                kv(&mut out, "bottleneck_gbps", Value::Float(bottleneck_gbps));
            }
        }

        if let Some(p) = self.workload.poisson {
            out.push_str("\n[workload.poisson]\n");
            match p.sizes {
                SizeSpec::Websearch => kv(&mut out, "sizes", Value::Str("websearch".into())),
                SizeSpec::WebsearchHadoop => {
                    kv(&mut out, "sizes", Value::Str("websearch-hadoop".into()))
                }
                SizeSpec::Fixed(b) => {
                    kv(&mut out, "sizes", Value::Str("fixed".into()));
                    kv(&mut out, "fixed_bytes", Value::Int(b as i64));
                }
            }
        }
        if let Some(ic) = self.workload.incast {
            out.push_str("\n[workload.incast]\n");
            kv(&mut out, "rate_per_sec", Value::Float(ic.rate_per_sec));
            kv(
                &mut out,
                "request_bytes",
                Value::Int(ic.request_bytes as i64),
            );
            kv(&mut out, "fan_in", Value::Int(ic.fan_in as i64));
            kv(&mut out, "periodic", Value::Bool(ic.periodic));
        }

        out.push_str("\n[sweep]\n");
        kv(
            &mut out,
            "algos",
            Value::Array(
                self.sweep
                    .algos
                    .iter()
                    .map(|a| Value::Str(a.key()))
                    .collect(),
            ),
        );
        if !self.sweep.params.is_empty() {
            kv(
                &mut out,
                "params",
                Value::Array(
                    self.sweep
                        .params
                        .iter()
                        .map(|p| Value::Str(p.label()))
                        .collect(),
                ),
            );
        }
        kv(
            &mut out,
            "loads",
            Value::Array(self.sweep.loads.iter().map(|&l| Value::Float(l)).collect()),
        );
        kv(
            &mut out,
            "seeds",
            Value::Array(
                self.sweep
                    .seeds
                    .iter()
                    .map(|&s| Value::Int(s as i64))
                    .collect(),
            ),
        );
        out
    }

    /// Parse a spec from TOML source. The result is validated.
    pub fn from_toml(src: &str) -> Result<Self, String> {
        let root = toml::parse(src).map_err(|e| e.to_string())?;
        let spec = Self::from_table(&root)?;
        spec.validate()?;
        Ok(spec)
    }

    fn from_table(root: &BTreeMap<String, Value>) -> Result<Self, String> {
        for key in root.keys() {
            if !matches!(
                key.as_str(),
                "name"
                    | "description"
                    | "kind"
                    | "engine"
                    | "buffer_cdf"
                    | "horizon_ms"
                    | "drain_ms"
                    | "topology"
                    | "workload"
                    | "trace"
                    | "analytic"
                    | "sweep"
            ) {
                return Err(format!("unknown top-level key {key:?}"));
            }
        }
        let name = get_str(root, "name")?;
        let description = match root.get("description") {
            Some(v) => v
                .as_str()
                .ok_or("description must be a string")?
                .to_string(),
            None => String::new(),
        };
        let kind = match root.get("kind") {
            Some(v) => v.as_str().ok_or("kind must be a string")?.to_string(),
            None => "sweep".to_string(),
        };
        match kind.as_str() {
            "sweep" => {}
            "timeseries" => return Self::timeseries_from_table(root, name, description),
            "analytic" => return Self::analytic_from_table(root, name, description),
            other => {
                return Err(format!(
                    "unknown scenario kind {other:?} (expected sweep, timeseries, or analytic)"
                ))
            }
        }
        if root.contains_key("trace") {
            return Err("[trace] is only valid with kind = \"timeseries\"".into());
        }
        if root.contains_key("analytic") {
            return Err("[analytic] is only valid with kind = \"analytic\"".into());
        }
        let engine = match root.get("engine") {
            Some(v) => EngineKind::parse(v.as_str().ok_or("engine must be a string")?)?,
            None => EngineKind::Packet,
        };
        let buffer_cdf = match root.get("buffer_cdf") {
            Some(v) => v.as_bool().ok_or("buffer_cdf must be a boolean")?,
            None => false,
        };
        let horizon_ms = get_f64_or(root, "horizon_ms", 4.0)?;
        let drain_ms = get_f64_or(root, "drain_ms", 6.0)?;

        let topo_t = get_table(root, "topology")?;
        let kind = get_str(topo_t, "kind")?;
        let topology = match kind.as_str() {
            "fat-tree" => TopologySpec::FatTree {
                hosts_per_tor: get_usize(topo_t, "hosts_per_tor")?,
                host_gbps: get_f64_or(topo_t, "host_gbps", 25.0)?,
                fabric_gbps: get_f64(topo_t, "fabric_gbps")?,
            },
            "star" => TopologySpec::Star {
                hosts: get_usize(topo_t, "hosts")?,
                host_gbps: get_f64_or(topo_t, "host_gbps", 25.0)?,
            },
            "dumbbell" => TopologySpec::Dumbbell {
                pairs: get_usize(topo_t, "pairs")?,
                host_gbps: get_f64_or(topo_t, "host_gbps", 25.0)?,
                bottleneck_gbps: get_f64(topo_t, "bottleneck_gbps")?,
            },
            other => {
                return Err(format!(
                    "unknown topology kind {other:?} (expected fat-tree, star, or dumbbell)"
                ))
            }
        };

        let mut workload = WorkloadSpec::default();
        if let Some(wl) = root.get("workload") {
            let wl = wl.as_table().ok_or("workload must be a table")?;
            if let Some(p) = wl.get("poisson") {
                let p = p.as_table().ok_or("workload.poisson must be a table")?;
                let sizes = match get_str(p, "sizes")?.as_str() {
                    "websearch" => SizeSpec::Websearch,
                    "websearch-hadoop" => SizeSpec::WebsearchHadoop,
                    "fixed" => SizeSpec::Fixed(get_u64(p, "fixed_bytes")?),
                    other => {
                        return Err(format!(
                            "unknown size distribution {other:?} (expected websearch, \
                             websearch-hadoop, or fixed)"
                        ))
                    }
                };
                workload.poisson = Some(PoissonSpec { sizes });
            }
            if let Some(ic) = wl.get("incast") {
                let ic = ic.as_table().ok_or("workload.incast must be a table")?;
                workload.incast = Some(IncastSpec {
                    rate_per_sec: get_f64(ic, "rate_per_sec")?,
                    request_bytes: get_u64(ic, "request_bytes")?,
                    fan_in: get_usize(ic, "fan_in")?,
                    periodic: match ic.get("periodic") {
                        Some(v) => v.as_bool().ok_or("periodic must be a boolean")?,
                        None => false,
                    },
                });
            }
        }

        let sweep_t = get_table(root, "sweep")?;
        let algos = get_array(sweep_t, "algos")?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| "sweep.algos entries must be strings".to_string())
                    .and_then(Algo::parse)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let params = parse_params(sweep_t)?;
        let loads = match sweep_t.get("loads") {
            Some(v) => v
                .as_array()
                .ok_or("sweep.loads must be an array")?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or("sweep.loads entries must be numbers".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let seeds = get_array(sweep_t, "seeds")?
            .iter()
            .map(|v| {
                v.as_i64()
                    .filter(|&s| s >= 0)
                    .map(|s| s as u64)
                    .ok_or_else(|| "sweep.seeds entries must be non-negative integers".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(ScenarioSpec {
            name,
            description,
            topology,
            kind: ScenarioKind::Sweep,
            workload,
            horizon_ms,
            drain_ms,
            sweep: SweepSpec {
                algos,
                params,
                loads,
                seeds,
            },
            engine,
            buffer_cdf,
        })
    }

    /// The `kind = "analytic"` parse path: an `[analytic]` table instead
    /// of topology/workload/trace/sweep (all placeholders).
    fn analytic_from_table(
        root: &BTreeMap<String, Value>,
        name: String,
        description: String,
    ) -> Result<ScenarioSpec, String> {
        for (key, msg) in [
            (
                "topology",
                "analytic scenarios have no topology; remove [topology]",
            ),
            (
                "workload",
                "analytic scenarios have no workload; remove [workload]",
            ),
            ("trace", "analytic scenarios have no [trace]; remove it"),
            (
                "sweep",
                "analytic scenarios have no sweep axes (the grid lives in [analytic]); \
                 remove [sweep]",
            ),
            (
                "horizon_ms",
                "analytic scenarios have no horizon_ms; remove it",
            ),
            ("drain_ms", "analytic scenarios have no drain_ms; remove it"),
            (
                "engine",
                "engine is a sweep setting; analytic scenarios never simulate — remove it",
            ),
            (
                "buffer_cdf",
                "buffer_cdf is a sweep-report option; remove it",
            ),
        ] {
            if root.contains_key(key) {
                return Err(msg.into());
            }
        }
        let t = get_table(root, "analytic")?;
        // Key validation is sub-kind aware: a grid key of the *wrong*
        // sub-kind (e.g. `gammas` on a phase scenario) would otherwise
        // be silently ignored and run a different experiment than
        // configured.
        let sub_kind = get_str(t, "scenario")?;
        let shared = [
            "scenario",
            "bandwidth_gbps",
            "base_rtt_us",
            "gamma",
            "updates_per_rtt",
            "beta_frac",
            "hpcc_eta",
        ];
        let specific: &[&str] = match sub_kind.as_str() {
            "phase" => &["laws", "w_over_bdp", "q_over_bdp"],
            "ablation" => &["gammas", "beta_fracs", "etas"],
            "laws" => &["tolerance"],
            // The unknown-scenario error below names the options.
            _ => &[],
        };
        for key in t.keys() {
            if !shared.contains(&key.as_str()) && !specific.contains(&key.as_str()) {
                return Err(format!(
                    "unknown [analytic] key {key:?} for the {sub_kind:?} scenario \
                     (expected: {})",
                    specific.join(", ")
                ));
            }
        }
        let f64s = |key: &str| -> Result<Vec<f64>, String> {
            match t.get(key) {
                Some(v) => v
                    .as_array()
                    .ok_or(format!("{key} must be an array"))?
                    .iter()
                    .map(|v| v.as_f64().ok_or(format!("{key} entries must be numbers")))
                    .collect(),
                None => Ok(Vec::new()),
            }
        };
        let scenario = match get_str(t, "scenario")?.as_str() {
            "phase" => AnalyticScenario::Phase {
                laws: match t.get("laws") {
                    Some(v) => v
                        .as_array()
                        .ok_or("laws must be an array")?
                        .iter()
                        .map(|v| {
                            v.as_str()
                                .ok_or_else(|| "laws entries must be strings".to_string())
                                .and_then(Law::parse)
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    None => vec![Law::QueueLength, Law::RttGradient, Law::Power],
                },
                w_over_bdp: match t.get("w_over_bdp") {
                    Some(_) => f64s("w_over_bdp")?,
                    None => fluid_model::DEFAULT_W_FRACS.to_vec(),
                },
                q_over_bdp: match t.get("q_over_bdp") {
                    Some(_) => f64s("q_over_bdp")?,
                    None => fluid_model::DEFAULT_Q_FRACS.to_vec(),
                },
            },
            "ablation" => AnalyticScenario::Ablation {
                gammas: f64s("gammas")?,
                beta_fracs: f64s("beta_fracs")?,
                etas: f64s("etas")?,
            },
            "laws" => AnalyticScenario::Laws {
                tolerance: get_f64_or(t, "tolerance", 0.05)?,
            },
            other => {
                return Err(format!(
                    "unknown analytic scenario {other:?} (expected phase, ablation, or laws)"
                ))
            }
        };
        let defaults = AnalyticSpec::new(scenario);
        let analytic = AnalyticSpec {
            bandwidth_gbps: get_f64_or(t, "bandwidth_gbps", defaults.bandwidth_gbps)?,
            base_rtt_us: get_f64_or(t, "base_rtt_us", defaults.base_rtt_us)?,
            gamma: get_f64_or(t, "gamma", defaults.gamma)?,
            updates_per_rtt: get_f64_or(t, "updates_per_rtt", defaults.updates_per_rtt)?,
            beta_frac: get_f64_or(t, "beta_frac", defaults.beta_frac)?,
            hpcc_eta: get_f64_or(t, "hpcc_eta", defaults.hpcc_eta)?,
            scenario: defaults.scenario,
        };
        let mut spec = ScenarioSpec::new_analytic(name, analytic);
        spec.description = description;
        Ok(spec)
    }

    /// The `kind = "timeseries"` parse path: a `[trace]` table instead of
    /// `[topology]`/`[workload]` (the fixture is derived from the trace
    /// scenario), and a `[sweep]` carrying only the lineup and seed.
    fn timeseries_from_table(
        root: &BTreeMap<String, Value>,
        name: String,
        description: String,
    ) -> Result<ScenarioSpec, String> {
        if root.contains_key("topology") {
            return Err("timeseries scenarios derive their topology; remove [topology]".into());
        }
        if root.contains_key("workload") {
            return Err(
                "timeseries scenarios define traffic via [trace]; remove [workload]".into(),
            );
        }
        if root.contains_key("engine") {
            return Err(
                "engine is a sweep setting; timeseries traces depend on per-packet INT \
                 probes the flow engine cannot produce — remove it"
                    .into(),
            );
        }
        if root.contains_key("buffer_cdf") {
            return Err("buffer_cdf is a sweep-report option; remove it".into());
        }
        let horizon_ms = get_f64_or(root, "horizon_ms", 4.0)?;
        let drain_ms = get_f64_or(root, "drain_ms", 0.0)?;

        let trace_t = get_table(root, "trace")?;
        for key in trace_t.keys() {
            if !matches!(
                key.as_str(),
                "scenario"
                    | "tick_us"
                    | "max_samples"
                    | "max_rows"
                    | "window"
                    | "channels"
                    | "fan_in"
                    | "burst_bytes"
                    | "at_ms"
                    | "flows"
                    | "stagger_ms"
                    | "weeks"
                    | "packet_gbps"
                    | "retcp_prebuffer_us"
            ) {
                return Err(format!("unknown [trace] key {key:?}"));
            }
        }
        let scenario = match get_str(trace_t, "scenario")?.as_str() {
            "response" => TraceScenario::Response,
            "incast" => TraceScenario::Incast {
                fan_in: get_usize(trace_t, "fan_in")?,
                burst_bytes: get_u64(trace_t, "burst_bytes")?,
                at_ms: get_f64_or(trace_t, "at_ms", 1.0)?,
            },
            "fairness" => TraceScenario::Fairness {
                flows: get_usize(trace_t, "flows")?,
                stagger_ms: get_f64_or(trace_t, "stagger_ms", 1.0)?,
            },
            "rdcn" => TraceScenario::Rdcn {
                weeks: get_u64(trace_t, "weeks")?,
                packet_gbps: get_f64_or(trace_t, "packet_gbps", 25.0)?,
                retcp_prebuffer_us: match trace_t.get("retcp_prebuffer_us") {
                    Some(v) => v
                        .as_array()
                        .ok_or("retcp_prebuffer_us must be an array")?
                        .iter()
                        .map(|v| {
                            v.as_f64()
                                .ok_or("retcp_prebuffer_us entries must be numbers".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    None => Vec::new(),
                },
            },
            other => {
                return Err(format!(
                    "unknown trace scenario {other:?} (expected response, incast, \
                     fairness, or rdcn)"
                ))
            }
        };
        let trace = TraceSpec {
            scenario,
            tick_us: get_f64_or(trace_t, "tick_us", 20.0)?,
            max_samples: match trace_t.get("max_samples") {
                Some(_) => get_usize(trace_t, "max_samples")?,
                None => 4096,
            },
            max_rows: match trace_t.get("max_rows") {
                Some(_) => get_usize(trace_t, "max_rows")?,
                None => 120,
            },
            window: match trace_t.get("window") {
                Some(_) => get_usize(trace_t, "window")?,
                None => 1,
            },
            channels: match trace_t.get("channels") {
                Some(v) => v
                    .as_array()
                    .ok_or("trace channels must be an array")?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or("trace channels entries must be strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                None => Vec::new(),
            },
        };

        let sweep_t = get_table(root, "sweep")?;
        if sweep_t.contains_key("loads") {
            return Err("timeseries scenarios have no load axis; remove sweep.loads".into());
        }
        if sweep_t.contains_key("params") {
            return Err("timeseries scenarios have no params axis; remove sweep.params".into());
        }
        let algos = get_array(sweep_t, "algos")?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| "sweep.algos entries must be strings".to_string())
                    .and_then(Algo::parse)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let seeds = get_array(sweep_t, "seeds")?
            .iter()
            .map(|v| {
                v.as_i64()
                    .filter(|&s| s >= 0)
                    .map(|s| s as u64)
                    .ok_or_else(|| "sweep.seeds entries must be non-negative integers".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(ScenarioSpec {
            name,
            description,
            topology: trace.scenario.implied_topology(),
            kind: ScenarioKind::Timeseries(trace),
            workload: WorkloadSpec::default(),
            horizon_ms,
            drain_ms,
            sweep: SweepSpec {
                algos,
                params: Vec::new(),
                loads: Vec::new(),
                seeds,
            },
            engine: EngineKind::Packet,
            buffer_cdf: false,
        })
    }
}

/// Parse the optional `params` array of a `[sweep]` table.
fn parse_params(sweep_t: &BTreeMap<String, Value>) -> Result<Vec<ParamSpec>, String> {
    match sweep_t.get("params") {
        Some(v) => v
            .as_array()
            .ok_or("sweep.params must be an array")?
            .iter()
            .map(|v| {
                v.as_str()
                    .ok_or_else(|| {
                        "sweep.params entries must be strings like \"gamma=0.5\"".to_string()
                    })
                    .and_then(ParamSpec::parse)
            })
            .collect(),
        None => Ok(Vec::new()),
    }
}

fn get_table<'a>(
    t: &'a BTreeMap<String, Value>,
    key: &str,
) -> Result<&'a BTreeMap<String, Value>, String> {
    t.get(key)
        .ok_or_else(|| format!("missing [{key}] section"))?
        .as_table()
        .ok_or_else(|| format!("{key} must be a table"))
}

fn get_str(t: &BTreeMap<String, Value>, key: &str) -> Result<String, String> {
    t.get(key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key} must be a string"))
}

fn get_f64(t: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
    t.get(key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_f64()
        .ok_or_else(|| format!("{key} must be a number"))
}

fn get_f64_or(t: &BTreeMap<String, Value>, key: &str, default: f64) -> Result<f64, String> {
    match t.get(key) {
        Some(v) => v.as_f64().ok_or_else(|| format!("{key} must be a number")),
        None => Ok(default),
    }
}

fn get_u64(t: &BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    t.get(key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_i64()
        .filter(|&v| v >= 0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("{key} must be a non-negative integer"))
}

fn get_usize(t: &BTreeMap<String, Value>, key: &str) -> Result<usize, String> {
    get_u64(t, key).map(|v| v as usize)
}

fn get_array<'a>(t: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a [Value], String> {
    t.get(key)
        .ok_or_else(|| format!("missing key {key:?}"))?
        .as_array()
        .ok_or_else(|| format!("{key} must be an array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            "sample",
            TopologySpec::FatTree {
                hosts_per_tor: 2,
                host_gbps: 25.0,
                fabric_gbps: 12.5,
            },
        )
        .describe("a sample scenario")
        .poisson(SizeSpec::Websearch)
        .incast(IncastSpec {
            rate_per_sec: 1000.0,
            request_bytes: 200_000,
            fan_in: 4,
            periodic: false,
        })
        .algos([Algo::PowerTcp, Algo::Hpcc, Algo::Homa(2)])
        .loads([0.2, 0.6])
        .seeds([7, 11])
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
            let spec = ScenarioSpec::new("t", topo)
                .poisson(SizeSpec::Fixed(50_000))
                .loads([0.5])
                .seeds([1]);
            assert_eq!(ScenarioSpec::from_toml(&spec.to_toml()).unwrap(), spec);
        }
    }

    #[test]
    fn validation_catches_mistakes() {
        let ok = sample_spec();
        assert!(ok.validate().is_ok());

        let mut s = sample_spec();
        s.sweep.loads = vec![2.0];
        assert!(s.validate().unwrap_err().contains("implausible load"));

        let mut s = sample_spec();
        s.workload = WorkloadSpec::default();
        assert!(s.validate().is_err());

        let mut s = sample_spec();
        s.workload.incast.as_mut().unwrap().fan_in = 1000;
        assert!(s.validate().unwrap_err().contains("fan_in"));

        let mut s = sample_spec();
        s.sweep.seeds.clear();
        assert!(s.validate().is_err());

        let s = ScenarioSpec::new(
            "s",
            TopologySpec::Star {
                hosts: 1,
                host_gbps: 25.0,
            },
        )
        .poisson(SizeSpec::Websearch)
        .loads([0.5]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn incast_only_scenarios_have_one_pseudo_load() {
        let spec = ScenarioSpec::new(
            "i",
            TopologySpec::Star {
                hosts: 6,
                host_gbps: 25.0,
            },
        )
        .incast(IncastSpec {
            rate_per_sec: 2000.0,
            request_bytes: 500_000,
            fan_in: 4,
            periodic: true,
        })
        .algos([Algo::Homa(1), Algo::Homa(2)])
        .seeds([1, 2, 3]);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.effective_loads(), vec![0.0]);
        assert_eq!(spec.num_points(), 6); // 2 algos x 1 pseudo-load x 3 seeds
    }

    fn ts_spec(scenario: TraceScenario) -> ScenarioSpec {
        ScenarioSpec::timeseries(
            "ts",
            TraceSpec {
                scenario,
                tick_us: 20.0,
                max_samples: 1024,
                max_rows: 50,
                window: 1,
                channels: Vec::new(),
            },
        )
        .describe("a timeseries scenario")
        .algos([Algo::PowerTcp, Algo::Hpcc])
        .horizon_ms(5.0)
    }

    #[test]
    fn timeseries_round_trips_all_scenarios() {
        for scenario in [
            TraceScenario::Response,
            TraceScenario::Incast {
                fan_in: 10,
                burst_bytes: 150_000,
                at_ms: 1.0,
            },
            TraceScenario::Fairness {
                flows: 4,
                stagger_ms: 1.0,
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
                spec = spec.algos([Algo::PowerTcp]);
            }
            spec.validate().unwrap_or_else(|e| panic!("{e}"));
            let text = spec.to_toml();
            assert!(text.contains("kind = \"timeseries\""), "{text}");
            assert!(!text.contains("[topology]"), "derived, not written");
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
        });
        assert!(s.validate().unwrap_err().contains("at_ms"));

        // Load axis is meaningless for traces.
        let mut s = ts_spec(TraceScenario::Response);
        s.sweep.loads = vec![0.5];
        assert!(s.validate().unwrap_err().contains("load"));

        // Exactly one seed.
        let s = ts_spec(TraceScenario::Response).seeds([1, 2]);
        assert!(s.validate().unwrap_err().contains("seed"));

        // The analytic response scenario takes no algorithm lineup.
        let s = ts_spec(TraceScenario::Response).seeds([1]);
        assert!(s.validate().unwrap_err().contains("analytic"));

        // HOMA cannot run the RDCN trace.
        let s = ts_spec(TraceScenario::Rdcn {
            weeks: 1,
            packet_gbps: 25.0,
            retcp_prebuffer_us: vec![],
        })
        .algos([Algo::Homa(1)]);
        assert!(s.validate().unwrap_err().contains("HOMA"));

        // Hand-set topology contradicting the derivation.
        let mut s = ts_spec(TraceScenario::Fairness {
            flows: 4,
            stagger_ms: 1.0,
        });
        s.topology = TopologySpec::Star {
            hosts: 99,
            host_gbps: 25.0,
        };
        assert!(s.validate().unwrap_err().contains("derived"));
    }

    #[test]
    fn trace_channel_filter_round_trips_and_validates() {
        let spec = ts_spec(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 1000,
            at_ms: 1.0,
        })
        .channels(["queue", "cwnd"]);
        spec.validate().unwrap();
        let text = spec.to_toml();
        assert!(text.contains("channels = [\"queue\", \"cwnd\"]"), "{text}");
        assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec);

        // An empty filter (record everything) is the default and is not
        // written out.
        let all = ts_spec(TraceScenario::Response).algos([Algo::PowerTcp]);
        assert!(!all.to_toml().contains("channels"));

        // Unknown names are a validation error naming the vocabulary.
        let bad = ts_spec(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 1000,
            at_ms: 1.0,
        })
        .channels(["voq"]);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("unknown trace channel"), "{err}");
        assert!(err.contains("throughput, queue, cwnd, power"), "{err}");

        // Fairness names are per-flow, so validity depends on the flow
        // count.
        let fair = ts_spec(TraceScenario::Fairness {
            flows: 2,
            stagger_ms: 1.0,
        });
        assert!(fair.clone().channels(["flow-2"]).validate().is_ok());
        assert!(fair.channels(["flow-3"]).validate().is_err());
    }

    #[test]
    fn cache_fragment_tracks_physics_not_identity() {
        let a = sample_spec();
        let mut renamed = a.clone().describe("other words");
        renamed.name = "renamed".into();
        renamed.sweep.seeds = vec![1, 2, 3];
        assert_eq!(a.cache_fragment(), renamed.cache_fragment());
        let hotter = a.clone().horizon_ms(a.horizon_ms * 2.0);
        assert_ne!(a.cache_fragment(), hotter.cache_fragment());
        let other_workload = a.clone().poisson(SizeSpec::Fixed(10));
        assert_ne!(a.cache_fragment(), other_workload.cache_fragment());
        // Trace config (including the channel filter) is physics for
        // timeseries specs: it changes the recorded output.
        let t = ts_spec(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 1000,
            at_ms: 1.0,
        });
        let filtered = t.clone().channels(["queue"]);
        assert_ne!(t.cache_fragment(), filtered.cache_fragment());
    }

    #[test]
    fn timeseries_entry_counts_expand_retcp_prebuffers() {
        let s = ts_spec(TraceScenario::Rdcn {
            weeks: 2,
            packet_gbps: 25.0,
            retcp_prebuffer_us: vec![600.0, 1800.0],
        })
        .algos([Algo::PowerTcp, Algo::ReTcp, Algo::Hpcc]);
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
            let spec = ScenarioSpec::new_analytic("an", AnalyticSpec::new(scenario))
                .describe("an analytic scenario");
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

        // Sweep axes are placeholders; touching them is an error.
        let s = base().seeds([7]);
        assert!(s.validate().unwrap_err().contains("sweep"));

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

        let spec = sample_spec().algos([Algo::PowerTcp, Algo::Hpcc]).params([
            ParamSpec {
                gamma: Some(0.5),
                ..ParamSpec::default()
            },
            ParamSpec {
                gamma: Some(0.9),
                ..ParamSpec::default()
            },
        ]);
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
        let with = |p: ParamSpec| sample_spec().algos([Algo::PowerTcp]).params([p]);
        assert!(with(ParamSpec {
            gamma: Some(0.0),
            ..ParamSpec::default()
        })
        .validate()
        .unwrap_err()
        .contains("gamma"));
        assert!(with(ParamSpec::default())
            .validate()
            .unwrap_err()
            .contains("at least one override"));
        // Duplicates collide cache keys and report labels.
        let dup = sample_spec().algos([Algo::PowerTcp]).params([
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
        let homa = sample_spec().algos([Algo::Homa(1)]).params([ParamSpec {
            gamma: Some(0.5),
            ..ParamSpec::default()
        }]);
        assert!(homa.validate().unwrap_err().contains("HOMA"));
    }

    #[test]
    fn trace_window_round_trips_and_validates() {
        let mut spec = ts_spec(TraceScenario::Fairness {
            flows: 2,
            stagger_ms: 1.0,
        });
        let ScenarioKind::Timeseries(t) = &mut spec.kind else {
            unreachable!()
        };
        t.window = 4;
        spec.validate().unwrap();
        let text = spec.to_toml();
        assert!(text.contains("window = 4"), "{text}");
        assert_eq!(ScenarioSpec::from_toml(&text).unwrap(), spec);
        // The default (1) is not written out.
        let default = ts_spec(TraceScenario::Fairness {
            flows: 2,
            stagger_ms: 1.0,
        });
        assert!(!default.to_toml().contains("window"));
        // Window 0 and window > max_samples are rejected.
        let ScenarioKind::Timeseries(t) = &mut spec.kind else {
            unreachable!()
        };
        t.window = 0;
        assert!(spec.validate().unwrap_err().contains("window"));
        let ScenarioKind::Timeseries(t) = &mut spec.kind else {
            unreachable!()
        };
        t.window = 1_000_000;
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
[sweep]
algos = ["powertcp"]
seeds = [1]
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
}
