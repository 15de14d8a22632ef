//! The experiment engine: build a topology, offer a workload, run one
//! deterministic simulation, reduce to FCT slowdowns and buffer
//! occupancy.
//!
//! The same workload generators and the same reduction run against every
//! [`TopologySpec`] — a fat-tree, a star, or a dumbbell — so a scenario
//! spec can swap fabrics without touching experiment code. One call to
//! [`run_point`] is one sweep point: it owns its `Simulator` and is a
//! pure function of `(spec, algo, load, seed)` — the property the
//! parallel sweep executor ([`crate::sweep`]) relies on.

use crate::algo::Algo;
use crate::spec::{
    gbps, EngineKind, ParamSpec, PoissonSpec, ScenarioSpec, SizeSpec, SweepBody, TopologySpec,
    WorkloadSpec,
};
use crate::sweep::SweepPoint;
use dcn_sim::{
    buffer_tracer, build_dumbbell, build_fat_tree, build_star, series, star_base_rtt, star_host_id,
    topology::HOST_DELAY, DumbbellConfig, Endpoint, FatTreeConfig, Network, NodeId, Simulator,
};
use dcn_stats::slowdown;
use dcn_transport::{FlowSpec, MetricsHub, SharedMetrics, TransportConfig};
use dcn_workloads::{incast_flows, poisson_flows, Hosts, IncastConfig, PoissonConfig, SizeCdf};
use powertcp_core::{Bandwidth, Tick};

/// Raw outcome of one sweep point (one simulation). Each flow's slowdown
/// is kept once, unsummarized and uncut, so seeds can be merged before
/// percentiles are taken; the report ([`crate::report`]) takes the
/// Figure 6 size buckets and the Figure 7 size classes from `flows`.
#[derive(Clone, Debug, PartialEq)]
pub struct PointOutcome {
    /// Algorithm that ran.
    pub algo: Algo,
    /// Algorithm-parameter overrides that were applied (default when the
    /// spec has no params axis).
    pub param: ParamSpec,
    /// Swept load (0 for incast-only workloads).
    pub load: f64,
    /// Workload seed.
    pub seed: u64,
    /// Every offered flow's `(size in bytes, slowdown)`, in the order the
    /// engine accounted them; an unfinished flow's slowdown is censored
    /// at the run end.
    pub flows: Vec<(u64, f64)>,
    /// Edge-switch shared-buffer occupancy samples (bytes).
    pub buffer: Vec<f64>,
    /// Flows completed before the run ended.
    pub completed: usize,
    /// Flows offered.
    pub offered: usize,
    /// Packet drops across all switches.
    pub drops: u64,
}

/// Everything the workload generators need to know about a topology
/// before it is built: the (deterministic) host node-id plan, rack
/// layout, base RTT, and the capacity that `load` is a fraction of.
/// Shared with the flow engine ([`crate::flow_engine`]), which consumes
/// the same plan without ever building the packet fabric.
pub(crate) struct Plan {
    pub(crate) map: HostRange,
    pub(crate) base_rtt: Tick,
    pub(crate) host_bw: Bandwidth,
    pub(crate) capacity: Bandwidth,
}

/// The `FatTreeConfig` a fat-tree topology spec denotes, on `algo`'s
/// switches.
pub(crate) fn fat_tree_config(topo: &TopologySpec, algo: Algo) -> FatTreeConfig {
    let TopologySpec::FatTree {
        hosts_per_tor,
        host_gbps,
        fabric_gbps,
    } = *topo
    else {
        panic!("fat_tree_config on a non-fat-tree topology");
    };
    let host_bw = gbps(host_gbps);
    FatTreeConfig {
        hosts_per_tor,
        host_bw,
        fabric_bw: gbps(fabric_gbps),
        switch: algo.switch_config(host_bw),
    }
}

/// Propagation delay of a star's host links, in both engines (sweep
/// points here, the `timeseries` fixtures of [`crate::trace_engine`]):
/// the fat-tree's and the dumbbell's host delay, so every fixture's edge
/// is the same 1 µs.
pub(crate) const EDGE_HOST_DELAY: Tick = HOST_DELAY;

/// The `DumbbellConfig` a dumbbell topology spec denotes, on `algo`'s
/// switches.
fn dumbbell_config(topo: &TopologySpec, algo: Algo) -> DumbbellConfig {
    let TopologySpec::Dumbbell {
        pairs,
        host_gbps,
        bottleneck_gbps,
    } = *topo
    else {
        panic!("dumbbell_config on a non-dumbbell topology");
    };
    let host_bw = gbps(host_gbps);
    DumbbellConfig {
        pairs,
        host_bw,
        bottleneck_bw: gbps(bottleneck_gbps),
        switch: algo.switch_config(host_bw),
    }
}

/// Where a topology's hosts sit: every builder numbers its hosts
/// consecutively from `first`, rack by rack, `per_rack` to a rack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HostRange {
    pub(crate) first: NodeId,
    pub(crate) count: usize,
    pub(crate) per_rack: usize,
}

impl HostRange {
    /// The host index of node `node`.
    ///
    /// # Panics
    /// If `node` is not one of the planned hosts.
    pub(crate) fn index_of(&self, node: NodeId) -> usize {
        (node.0.checked_sub(self.first.0))
            .map(|i| i as usize)
            .filter(|&i| i < self.count)
            .expect("flow endpoint is a planned host")
    }
}

impl Hosts for HostRange {
    fn count(&self) -> usize {
        self.count
    }
    fn host(&self, i: usize) -> NodeId {
        assert!(i < self.count, "host {i} of {}", self.count);
        NodeId(self.first.0 + i as u32)
    }
    fn rack(&self, i: usize) -> usize {
        i / self.per_rack
    }
    fn racks(&self) -> usize {
        self.count.div_ceil(self.per_rack)
    }
}

pub(crate) fn plan(topo: &TopologySpec, algo: Algo) -> Plan {
    match *topo {
        TopologySpec::FatTree { hosts_per_tor, .. } => {
            let cfg = fat_tree_config(topo, algo);
            Plan {
                map: HostRange {
                    first: cfg.host_node_id(0),
                    count: cfg.num_hosts(),
                    per_rack: hosts_per_tor,
                },
                base_rtt: cfg.max_base_rtt(),
                host_bw: cfg.host_bw,
                capacity: cfg.uplink_capacity(),
            }
        }
        TopologySpec::Star { hosts, host_gbps } => {
            let host_bw = gbps(host_gbps);
            // Every host is its own "rack" (a star has no rack sharing),
            // so inter-rack-only Poisson means src != dst and incast
            // responders are simply other hosts.
            Plan {
                map: HostRange {
                    first: star_host_id(0),
                    count: hosts,
                    per_rack: 1,
                },
                base_rtt: star_base_rtt(host_bw, EDGE_HOST_DELAY),
                host_bw,
                // Load denominator: half the aggregate NIC capacity, so
                // `load` approximates per-NIC utilization (each flow
                // consumes a source NIC and a destination NIC).
                capacity: Bandwidth::from_bps(host_bw.bps() * hosts as u64 / 2),
            }
        }
        TopologySpec::Dumbbell { pairs, .. } => {
            let cfg = dumbbell_config(topo, algo);
            // Senders are rack 0, receivers rack 1.
            Plan {
                map: HostRange {
                    first: cfg.host_node_id(0),
                    count: 2 * pairs,
                    per_rack: pairs,
                },
                base_rtt: cfg.base_rtt(),
                host_bw: cfg.host_bw,
                // `load` is bottleneck utilization.
                capacity: cfg.bottleneck_bw,
            }
        }
    }
}

/// Run one sweep point of a scenario spec at the algorithms' default
/// parameters. Deterministic: identical arguments replay bit-for-bit, on
/// any thread.
pub fn run_point(spec: &ScenarioSpec, algo: Algo, load: f64, seed: u64) -> PointOutcome {
    run_sweep_point_observed(
        spec,
        &SweepPoint {
            index: 0,
            algo,
            param: ParamSpec::default(),
            load,
            seed,
        },
    )
    .0
}

/// Run one expanded sweep point, including its algorithm-parameter
/// overrides, and return the outcome with the engine's run counters (a
/// read-only snapshot taken after the run).
///
/// This is where the sweep's `engine` dispatches: everything above this
/// call — the thread executor, the result cache, the worker protocol,
/// the bench harness — is engine-agnostic. Panics if `spec` is no sweep.
pub fn run_sweep_point_observed(
    spec: &ScenarioSpec,
    point: &SweepPoint,
) -> (PointOutcome, dcn_sim::SimStats) {
    let sweep = spec.sweep_body("run_sweep_point_observed");
    match sweep.engine {
        EngineKind::Flow => crate::flow_engine::run_flow_point_observed(sweep, point),
        EngineKind::Packet => run_packet_point(sweep, point),
    }
}

/// The FCT reduction both sweep engines share: every offered flow's size
/// and slowdown go into `flows` of the point's outcome. Flows still
/// unfinished at the end of the run are *censored* at the run end rather
/// than dropped — excluding them would silently reward protocols that
/// stall flows (survivorship bias).
pub(crate) struct FctReduction {
    base_rtt: Tick,
    host_bw: Bandwidth,
    run_end: Tick,
    /// The outcome so far: the count of completed flows. Each engine
    /// stores the `flows` samples (and the packet engine its buffer
    /// samples and drops).
    pub(crate) outcome: PointOutcome,
}

impl FctReduction {
    pub(crate) fn new(point: &SweepPoint, plan: &Plan, run_end: Tick, offered: usize) -> Self {
        FctReduction {
            base_rtt: plan.base_rtt,
            host_bw: plan.host_bw,
            run_end,
            outcome: PointOutcome {
                algo: point.algo,
                param: point.param,
                load: point.load,
                seed: point.seed,
                flows: Vec::new(),
                buffer: Vec::new(),
                completed: 0,
                offered,
                drops: 0,
            },
        }
    }

    /// The RTT in `flow`'s ideal FCT, for both sweep engines: `τ` for
    /// every flow, whatever its own path (ROADMAP item 3(a)).
    pub(crate) fn ideal_rtt(&self, _flow: &FlowSpec) -> Tick {
        self.base_rtt
    }

    /// Account one flow and return its `(size, slowdown)` sample; `fct`
    /// is `None` when it did not finish. The caller stores the samples in
    /// `outcome.flows`, in flow order, so each engine can build them in
    /// whichever allocation it already holds.
    pub(crate) fn sample(&mut self, flow: &FlowSpec, fct: Option<Tick>) -> (u64, f64) {
        let fct = match fct {
            Some(f) => {
                self.outcome.completed += 1;
                f
            }
            None => self.run_end.saturating_sub(flow.start),
        };
        let size = flow.size_bytes;
        let sd = slowdown(fct, size, self.ideal_rtt(flow), self.host_bw);
        (size, sd)
    }
}

/// Generate the flows a `(workload, load, seed)` combination offers over
/// a planned topology. Shared between the packet and flow engines: both
/// see the *same* flow population by construction (same generators, same
/// seed derivation, same dumbbell re-orientation), so cross-engine FCT
/// comparisons are apples to apples.
pub(crate) fn offered_flows(
    topo: &TopologySpec,
    workload: &WorkloadSpec,
    plan: &Plan,
    horizon: Tick,
    load: f64,
    seed: u64,
) -> Vec<FlowSpec> {
    let mut flows: Vec<FlowSpec> = Vec::new();
    if let Some(PoissonSpec { sizes }) = workload.poisson {
        let sizes = match sizes {
            SizeSpec::Websearch => SizeCdf::websearch(),
            SizeSpec::WebsearchHadoop => SizeCdf::websearch_hadoop(),
            SizeSpec::Fixed(bytes) => SizeCdf::fixed(bytes),
        };
        flows = poisson_flows(
            &PoissonConfig {
                load,
                fabric_uplink_capacity: plan.capacity,
                sizes,
                horizon,
                inter_rack_only: true,
                seed,
                first_flow_id: 1,
            },
            &plan.map,
        );
        if let TopologySpec::Dumbbell { pairs, .. } = *topo {
            // Orient all background traffic left -> right (mirroring each
            // endpoint to its same-index counterpart on the other side),
            // so `load` loads the instrumented bottleneck direction.
            for f in &mut flows {
                let src_idx = plan.map.index_of(f.src);
                let dst_idx = plan.map.index_of(f.dst);
                if src_idx >= pairs {
                    f.src = plan.map.host(src_idx - pairs);
                    f.dst = plan.map.host(dst_idx + pairs);
                }
            }
        }
    }
    if let Some(ic) = workload.incast {
        let first = flows.iter().map(|f| f.id.0).max().unwrap_or(0) + 1;
        flows.extend(incast_flows(
            &IncastConfig {
                request_rate_per_sec: ic.rate_per_sec,
                request_size_bytes: ic.request_bytes,
                fan_in: ic.fan_in,
                horizon,
                seed: seed ^ 0x1234_5678,
                first_flow_id: first,
                periodic: ic.periodic,
            },
            &plan.map,
        ));
    }
    flows
}

/// The packet engine behind [`run_sweep_point_observed`].
fn run_packet_point(sweep: &SweepBody, point: &SweepPoint) -> (PointOutcome, dcn_sim::SimStats) {
    let topo = &sweep.topology;
    let plan = plan(topo, point.algo);
    // Flow specs reference the planned host node ids.
    let flows = offered_flows(
        topo,
        &sweep.workload,
        &plan,
        sweep.horizon(),
        point.load,
        point.seed,
    );
    run_packet_flows(sweep, point, &plan, flows)
}

/// Simulate `flows` on the sweep's fabric under `point`'s algorithm and
/// reduce them to the point's outcome.
fn run_packet_flows(
    sweep: &SweepBody,
    point: &SweepPoint,
    plan: &Plan,
    flows: Vec<FlowSpec>,
) -> (PointOutcome, dcn_sim::SimStats) {
    let topo = &sweep.topology;
    let run_end = sweep.run_end();
    let SweepPoint { algo, param, .. } = *point;
    let base_rtt = plan.base_rtt;
    let host_bw = plan.host_bw;
    let offered = flows.len();

    // ---- Group flows by source host index.
    let mut per_host: Vec<Vec<FlowSpec>> = vec![Vec::new(); plan.map.count];
    for f in &flows {
        per_host[plan.map.index_of(f.src)].push(*f);
    }

    // ---- Endpoints.
    let metrics: SharedMetrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt,
        rto: base_rtt * 10,
        nack_guard: base_rtt,
        // N in the paper's β = HostBw·τ/N. A larger N keeps the aggregate
        // additive increase (and hence PowerTCP's equilibrium queue β̂)
        // small under heavy flow multiplexing, matching the paper's
        // near-zero buffer occupancy.
        expected_flows: 64,
        mtu: 1000,
    };
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        algo.endpoint(tcfg, param, host_bw, &m2, &per_host[idx])
    };

    // ---- Build the fabric. `traced` switches get buffer-occupancy
    // sampling (the edge switches whose shared buffer the paper reports);
    // `all_switches` are polled for drops.
    let (net, traced, all_switches): (Network, Vec<NodeId>, Vec<NodeId>) = match *topo {
        TopologySpec::FatTree { .. } => {
            let ft = build_fat_tree(fat_tree_config(topo, algo), &mut mk);
            let all: Vec<NodeId> = ft
                .tors
                .iter()
                .chain(ft.aggs.iter())
                .chain(ft.cores.iter())
                .copied()
                .collect();
            (ft.net, ft.tors, all)
        }
        TopologySpec::Star { hosts, .. } => {
            let star = build_star(
                hosts,
                host_bw,
                EDGE_HOST_DELAY,
                algo.switch_config(host_bw),
                &mut mk,
            );
            (star.net, vec![star.switch], vec![star.switch])
        }
        TopologySpec::Dumbbell { .. } => {
            let db = build_dumbbell(dumbbell_config(topo, algo), &mut mk);
            (db.net, vec![db.left, db.right], vec![db.left, db.right])
        }
    };

    // ---- Run, sampling buffer occupancy on the traced switches.
    let mut sim = Simulator::new(net);
    let buf_series = series();
    for &sw in &traced {
        sim.add_tracer(
            Tick::from_micros(100),
            buffer_tracer(sw, buf_series.clone()),
        );
    }
    sim.run_until(run_end);
    debug_assert_eq!(sim.audit(), Ok(()), "conservation audit");

    // ---- Reduce.
    let mut fcts = FctReduction::new(point, plan, run_end, offered);
    let mut flows = Vec::with_capacity(offered);
    for rec in metrics.borrow().records() {
        flows.push(fcts.sample(&rec.spec, rec.fct()));
    }
    let mut outcome = fcts.outcome;
    outcome.flows = flows;
    outcome.buffer = buf_series.borrow().iter().map(|&(_, v)| v).collect();
    outcome.drops = all_switches
        .iter()
        .map(|&s| sim.net.switch(s).total_drops())
        .sum();
    (outcome, sim.stats())
}

/// Experiment scale: a fat-tree topology and time-horizon preset. The
/// shapes of the paper's figures survive scaling down; absolute tail
/// credibility is reported alongside (see
/// [`dcn_stats::Summary::credible_tail_pct`]).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Hosts per ToR (paper: 32).
    pub hosts_per_tor: usize,
    /// Fabric (switch-to-switch) bandwidth; scaled with hosts_per_tor to
    /// preserve the paper's 4:1 oversubscription.
    pub fabric_bw: Bandwidth,
    /// Workload generation horizon.
    pub horizon: Tick,
    /// Extra drain time after the horizon before measuring.
    pub drain: Tick,
}

impl Scale {
    /// The paper's full scale (256 hosts, 100 G fabric).
    pub fn paper() -> Self {
        Scale {
            hosts_per_tor: 32,
            fabric_bw: Bandwidth::gbps(100),
            horizon: Tick::from_millis(100),
            drain: Tick::from_millis(30),
        }
    }

    /// This scale as a declarative topology.
    pub fn topology(&self) -> TopologySpec {
        TopologySpec::FatTree {
            hosts_per_tor: self.hosts_per_tor,
            host_gbps: 25.0,
            fabric_gbps: self.fabric_bw.bps() as f64 / 1e9,
        }
    }

    /// The websearch sweep spec at this scale (fat-tree, horizon, drain):
    /// the paper's Figure 6/7 setup, ready for [`run_point`] or further
    /// builder calls.
    pub fn spec(&self, name: &str) -> ScenarioSpec {
        ScenarioSpec::new(name, self.topology())
            .poisson(SizeSpec::Websearch)
            .horizon_ms(self.horizon.as_millis_f64())
            .drain_ms(self.drain.as_millis_f64())
    }

    /// The fat-tree configuration for this scale under `algo`.
    pub fn fat_tree_config(&self, algo: Algo) -> FatTreeConfig {
        fat_tree_config(&self.topology(), algo)
    }

    /// Aggregate ToR-uplink capacity (the paper's load denominator):
    /// [`FatTreeConfig::uplink_capacity`].
    pub fn fabric_uplink_capacity(&self, cfg: &FatTreeConfig) -> Bandwidth {
        cfg.uplink_capacity()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::IncastSpec;
    use dcn_workloads::HostMap;

    /// The builtin `fig6-small`: websearch on the tiny fat-tree (16
    /// hosts, 2:1 oversubscribed), 4 ms + 6 ms.
    fn fig6_small() -> ScenarioSpec {
        crate::library::builtin("fig6-small").expect("a builtin")
    }

    /// The host tables `plan` laid out before hosts became a
    /// [`HostRange`], kept as the oracle for the arithmetic.
    pub(crate) fn laid_host_map(topo: &TopologySpec) -> HostMap {
        match *topo {
            TopologySpec::FatTree { hosts_per_tor, .. } => {
                let cfg = fat_tree_config(topo, Algo::PowerTcp);
                HostMap {
                    hosts: (0..cfg.num_hosts()).map(|i| cfg.host_node_id(i)).collect(),
                    rack_of: (0..cfg.num_hosts()).map(|i| i / hosts_per_tor).collect(),
                }
            }
            TopologySpec::Star { hosts, .. } => HostMap {
                hosts: (0..hosts).map(star_host_id).collect(),
                rack_of: (0..hosts).collect(),
            },
            TopologySpec::Dumbbell { pairs, .. } => {
                let cfg = dumbbell_config(topo, Algo::PowerTcp);
                HostMap {
                    hosts: (0..2 * pairs).map(|i| cfg.host_node_id(i)).collect(),
                    rack_of: (0..2 * pairs).map(|i| i / pairs).collect(),
                }
            }
        }
    }

    /// Every sweep builtin's topology, each once, and a dumbbell (no
    /// builtin sweeps one).
    #[test]
    fn host_ranges_agree_with_the_laid_host_maps() {
        let mut topos = vec![TopologySpec::Dumbbell {
            pairs: 4,
            host_gbps: 25.0,
            bottleneck_gbps: 10.0,
        }];
        for spec in crate::library::builtin_specs() {
            if let crate::spec::ScenarioKind::Sweep(body) = &spec.kind {
                if !topos.contains(&body.topology) {
                    topos.push(body.topology);
                }
            }
        }
        for kind in ["FatTree", "Star"] {
            let named = topos.iter().any(|t| format!("{t:?}").starts_with(kind));
            assert!(named, "no builtin sweeps a {kind}");
        }
        for topo in &topos {
            let (range, map) = (plan(topo, Algo::PowerTcp).map, laid_host_map(topo));
            assert_eq!(range.count(), map.count(), "{topo:?}");
            for i in 0..map.count() {
                assert_eq!(range.host(i), map.hosts[i], "{topo:?} host {i}");
                assert_eq!(range.rack(i), map.rack_of[i], "{topo:?} host {i}");
            }
            let max = map.rack_of.iter().max().expect("a planned host");
            assert_eq!(range.racks(), max + 1, "{topo:?}");
            let last = map.count() - 1;
            assert_eq!(range.index_of(map.hosts[0]), 0, "{topo:?}");
            assert_eq!(range.index_of(map.hosts[last]), last, "{topo:?}");
            for outside in [map.hosts[0].0 - 1, map.hosts[last].0 + 1] {
                let miss = std::panic::catch_unwind(|| range.index_of(NodeId(outside)));
                let payload = miss.expect_err("a node outside the hosts is refused");
                let msg = (payload.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| payload.downcast_ref::<&str>().copied());
                assert_eq!(
                    msg,
                    Some("flow endpoint is a planned host"),
                    "{topo:?} node {outside}"
                );
            }
        }
    }

    /// ROADMAP 3(b): one flow between the first and the last host of
    /// the tiny fat-tree (pods 0 and 3), alone on the fabric, under every
    /// law of the registry. Each slowdown is at most `1 + ε`, ε measured
    /// per law and size and rounded up at the third decimal. The ideal
    /// FCT runs at the 25G host rate while the fabric runs at 12.5G, so
    /// a 10 MB flow reads ≈ 2 under every law and a 100 KB flow ≈ 1.69;
    /// DCQCN's 10 MB flow (3.16) and reTCP's 100 KB flow (3.02) read
    /// more.
    #[test]
    fn a_lone_flow_finishes_near_its_ideal_under_every_law() {
        /// Per law, 1 + ε at 1 KB, 100 KB and 10 MB.
        const BOUNDS: [(&str, [f64; 3]); 7] = [
            ("powertcp", [1.074, 1.689, 2.002]),
            ("theta-powertcp", [1.074, 1.689, 2.071]),
            ("hpcc", [1.074, 1.689, 2.102]),
            ("dcqcn", [1.074, 1.689, 3.159]),
            ("timely", [1.074, 1.689, 1.996]),
            ("homa:1", [1.074, 1.688, 1.996]),
            ("retcp", [1.074, 3.021, 2.016]),
        ];
        let mut spec = fig6_small().horizon_ms(0.001).drain_ms(20.0);
        spec.sweep_mut("test").workload = WorkloadSpec::default();
        let sweep = spec.sweep_body("test");
        let keys: Vec<String> = Algo::all().into_iter().map(Algo::key).collect();
        assert_eq!(
            keys,
            BOUNDS.map(|(key, _)| key),
            "one row per registered law"
        );
        for (algo, (_, bounds)) in Algo::all().into_iter().zip(BOUNDS) {
            let plan = plan(&sweep.topology, algo);
            for (size_bytes, bound) in [1_000, 100_000, 10_000_000].into_iter().zip(bounds) {
                let flow = FlowSpec {
                    id: dcn_sim::FlowId(1),
                    src: plan.map.host(0),
                    dst: plan.map.host(plan.map.count - 1),
                    size_bytes,
                    start: Tick::from_micros(10),
                };
                let point = SweepPoint {
                    index: 0,
                    algo,
                    param: ParamSpec::default(),
                    load: 0.0,
                    seed: 1,
                };
                let (out, _) = run_packet_flows(sweep, &point, &plan, vec![flow]);
                let what = format!("{} {size_bytes} B", algo.key());
                assert_eq!(out.completed, 1, "{what}");
                let slowdown = out.flows[0].1;
                assert!(slowdown <= bound, "{what}: slowdown {slowdown} > {bound}");
            }
        }
    }

    #[test]
    fn tiny_experiment_completes_for_powertcp() {
        let r = run_point(&fig6_small(), Algo::PowerTcp, 0.4, 7);
        assert!(r.offered > 10, "offered {}", r.offered);
        assert!(
            r.completed as f64 >= 0.9 * r.offered as f64,
            "completed {}/{}",
            r.completed,
            r.offered
        );
        assert!(r.flows.iter().any(|&(size, _)| size < 10_000));
        assert!(!r.buffer.is_empty());
        assert_eq!(r.flows.len(), r.offered);
    }

    /// A flow that finishes in exactly its ideal FCT — the first-byte
    /// term the flow engine adds, `ideal_rtt / 2`, plus its bytes at the
    /// host rate — reads slowdown 1.0 through `push`, and a picosecond
    /// later reads more: the flow engine's term and the reduction's
    /// ideal FCT are one quantity on every topology kind.
    #[test]
    fn a_lone_flow_at_its_ideal_fct_reads_slowdown_one() {
        let topologies = [
            TopologySpec::FatTree {
                hosts_per_tor: 2,
                host_gbps: 25.0,
                fabric_gbps: 12.5,
            },
            TopologySpec::Star {
                hosts: 4,
                host_gbps: 25.0,
            },
            TopologySpec::Dumbbell {
                pairs: 2,
                host_gbps: 25.0,
                bottleneck_gbps: 10.0,
            },
        ];
        let point = SweepPoint {
            index: 0,
            algo: Algo::PowerTcp,
            param: ParamSpec::default(),
            load: 0.0,
            seed: 1,
        };
        for topo in &topologies {
            let plan = plan(topo, Algo::PowerTcp);
            let hosts = plan.map;
            for size_bytes in [1, 1_000, 123_457, 10_000_000] {
                let flow = FlowSpec {
                    id: dcn_sim::FlowId(1),
                    src: hosts.host(0),
                    dst: hosts.host(hosts.count - 1),
                    size_bytes,
                    start: Tick::from_micros(3),
                };
                let mut fcts = FctReduction::new(&point, &plan, Tick::from_millis(100), 2);
                let ideal = fcts.ideal_rtt(&flow) / 2 + plan.host_bw.tx_time(size_bytes);
                let read = [
                    fcts.sample(&flow, Some(ideal)),
                    fcts.sample(&flow, Some(ideal + Tick::from_ps(1))),
                ];
                assert_eq!(read[0], (size_bytes, 1.0), "{topo:?}");
                assert!(read[1].1 > 1.0, "{topo:?}: {}", read[1].1);
            }
        }
    }

    #[test]
    fn tiny_experiment_completes_for_homa() {
        let r = run_point(&fig6_small(), Algo::Homa(1), 0.3, 9);
        assert!(
            r.completed as f64 >= 0.8 * r.offered as f64,
            "completed {}/{}",
            r.completed,
            r.offered
        );
    }

    #[test]
    fn incast_overlay_adds_flows() {
        let plain = fig6_small();
        let mut overlaid = plain.clone();
        overlaid.sweep_mut("test").workload.incast = Some(IncastSpec {
            rate_per_sec: 1000.0,
            request_bytes: 200_000,
            fan_in: 4,
            periodic: false,
        });
        let with = run_point(&overlaid, Algo::PowerTcp, 0.3, 11);
        let without = run_point(&plain, Algo::PowerTcp, 0.3, 11);
        assert!(with.offered > without.offered);
    }

    fn star_incast_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            "star-incast",
            TopologySpec::Star {
                hosts: 8,
                host_gbps: 25.0,
            },
        )
        .horizon_ms(2.0)
        .drain_ms(4.0);
        spec.sweep_mut("test").workload.incast = Some(IncastSpec {
            rate_per_sec: 2_000.0,
            request_bytes: 400_000,
            fan_in: 4,
            periodic: true,
        });
        spec
    }

    #[test]
    fn star_incast_point_completes() {
        let spec = star_incast_spec();
        let out = run_point(&spec, Algo::PowerTcp, 0.0, 3);
        assert!(out.offered > 0);
        assert!(
            out.completed as f64 >= 0.9 * out.offered as f64,
            "completed {}/{}",
            out.completed,
            out.offered
        );
        assert!(!out.buffer.is_empty());
    }

    #[test]
    fn dumbbell_poisson_point_completes_and_is_oriented() {
        let spec = ScenarioSpec::new(
            "db",
            TopologySpec::Dumbbell {
                pairs: 4,
                host_gbps: 25.0,
                bottleneck_gbps: 25.0,
            },
        )
        .poisson(SizeSpec::Fixed(40_000))
        .horizon_ms(2.0)
        .drain_ms(4.0);
        let out = run_point(&spec, Algo::PowerTcp, 0.5, 5);
        assert!(out.offered > 5, "offered {}", out.offered);
        assert!(
            out.completed as f64 >= 0.9 * out.offered as f64,
            "completed {}/{}",
            out.completed,
            out.offered
        );
    }

    #[test]
    fn points_replay_bit_for_bit() {
        let spec = star_incast_spec();
        let a = run_point(&spec, Algo::Hpcc, 0.0, 17);
        let b = run_point(&spec, Algo::Hpcc, 0.0, 17);
        assert_eq!(a, b);
    }

    #[test]
    fn homa_runs_on_star() {
        let spec = star_incast_spec();
        let out = run_point(&spec, Algo::Homa(2), 0.0, 1);
        assert!(out.completed > 0);
    }

    #[test]
    fn param_overrides_change_the_dynamics() {
        use crate::spec::ParamSpec;
        let spec = star_incast_spec();
        let point = |param: ParamSpec| SweepPoint {
            index: 0,
            algo: Algo::PowerTcp,
            param,
            load: 0.0,
            seed: 3,
        };
        let run = |p: &SweepPoint| run_sweep_point_observed(&spec, p).0;
        let base = run(&point(ParamSpec::default()));
        // γ changes the control law's reaction.
        let slow = run(&point(ParamSpec { gamma: Some(0.2) }));
        assert_ne!(base.flows, slow.flows, "gamma override must change FCTs");
        // And defaults reproduce the unparameterized path bit-for-bit.
        let plain = run_point(&spec, Algo::PowerTcp, 0.0, 3);
        assert_eq!(base, plain);
    }
}
