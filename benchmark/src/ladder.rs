//! The packet engine's ablation ladder (ROADMAP item 1a): the same
//! traffic — workload 1's topology and byte matrix at a fixed seed, over
//! a shorter horizon — run with one more layer per rung, so rung-to-rung
//! differences in ns/event are per-layer costs with no timer inside the
//! engine.
//!
//! | rung          | adds                                                     |
//! |---------------|----------------------------------------------------------|
//! | r1_fabric     | event core + links + switches (PFC), open-loop senders   |
//! | r2_transport  | `TransportHost` + `MetricsHub`, constant-window CC       |
//! | r3_int        | INT stamping at every hop, echoed on ACKs (CC ignores it)|
//! | r4_powertcp   | PowerTCP's control law reading the INT stack             |
//! | r5_tracers    | buffer tracers on every ToR: the product's own point     |
//!
//! Rungs run different dynamics (a constant window never backs off), so
//! their event counts differ; ns/event is the comparable figure. r5 is
//! assembled exactly as `dcn_scenarios::engine` assembles a sweep point,
//! and its event count is reported beside the product's for the same
//! input.

use crate::{host, Metric};
use dcn_scenarios::{Algo, ParamSpec, Scale, ScenarioSpec, SweepPoint};
use dcn_sim::{
    buffer_tracer, build_fat_tree, series, Endpoint, EndpointCtx, FatTreeConfig, NodeId, Packet,
    Simulator,
};
use dcn_transport::{FlowSpec, MetricsHub, TransportConfig, TransportHost};
use dcn_workloads::{poisson_flows, HostMap, PoissonConfig, SizeCdf};
use powertcp_core::{
    rate_from_cwnd, AckInfo, Bandwidth, CcContext, CongestionControl, LossKind, Tick,
};

/// The ladder's input is fixed: it measures the code, not the seed.
const SEED: u64 = 42;
const LOAD: f64 = 0.6;
const HORIZON_US: u64 = 500;
const DRAIN_US: u64 = 1_000;
/// Timed runs per rung; the fastest counts.
const REPS: usize = 3;

pub const RUNGS: [&str; 5] = [
    "r1_fabric",
    "r2_transport",
    "r3_int",
    "r4_powertcp",
    "r5_tracers",
];

/// The fat-tree of workload 1 under PowerTCP's switch requirements.
fn fabric(int_enabled: bool) -> FatTreeConfig {
    let mut cfg = Scale::paper().fat_tree_config(Algo::PowerTcp);
    cfg.switch.int_enabled = int_enabled;
    cfg
}

/// Workload 1's flows at the ladder seed, generated the way
/// `dcn_scenarios::engine` generates them (same generator, same load
/// denominator, same host numbering).
pub fn flows(cfg: &FatTreeConfig, seed: u64, horizon: Tick) -> Vec<FlowSpec> {
    let map = HostMap {
        hosts: (0..cfg.num_hosts()).map(|i| cfg.host_node_id(i)).collect(),
        rack_of: (0..cfg.num_hosts())
            .map(|i| i / cfg.hosts_per_tor)
            .collect(),
    };
    poisson_flows(
        &PoissonConfig {
            load: LOAD,
            fabric_uplink_capacity: Scale::paper().fabric_uplink_capacity(cfg),
            sizes: SizeCdf::websearch(),
            horizon,
            inter_rack_only: true,
            seed,
            first_flow_id: 1,
        },
        &map,
    )
}

/// r1's endpoint: puts each flow's packets on the NIC at the flow's start
/// and never listens — no windows, no ACKs, no retransmission.
struct Blaster {
    flows: Vec<FlowSpec>,
}

impl Endpoint for Blaster {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        for (i, f) in self.flows.iter().enumerate() {
            ctx.set_timer(f.start, i as u64);
        }
    }
    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        ctx.recycle(pkt);
    }
    fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
        let f = self.flows[key as usize];
        let n = f.packet_count(1000);
        for i in 0..n {
            ctx.send(Packet::data(
                f.id,
                f.src,
                f.dst,
                i * 1000,
                1000,
                i + 1 == n,
                ctx.now,
            ));
        }
    }
}

/// r2/r3's control law: one bandwidth-delay product, forever.
struct FixedWindow {
    cwnd: f64,
    rate: Bandwidth,
}

impl FixedWindow {
    fn new(ctx: CcContext) -> Self {
        let cwnd = ctx.host_bdp_bytes();
        FixedWindow {
            cwnd,
            rate: rate_from_cwnd(cwnd, ctx.base_rtt, ctx.host_bw),
        }
    }
}

impl CongestionControl for FixedWindow {
    fn on_ack(&mut self, _ack: &AckInfo<'_>) {}
    fn on_loss(&mut self, _now: Tick, _kind: LossKind) {}
    fn cwnd(&self) -> f64 {
        self.cwnd
    }
    fn pacing_rate(&self) -> Bandwidth {
        self.rate
    }
    fn name(&self) -> &'static str {
        "fixed-window"
    }
}

/// Build and run one rung; returns (events dispatched, wall seconds).
fn run_rung(rung: usize, offered: &[FlowSpec]) -> (u64, f64) {
    let t0 = host::now();
    let cfg = fabric(rung >= 2);
    let mut per_host: Vec<Vec<FlowSpec>> = vec![Vec::new(); cfg.num_hosts()];
    for f in offered {
        // Host node ids are dense from the first host's.
        per_host[(f.src.0 - cfg.host_node_id(0).0) as usize].push(*f);
    }
    let tcfg = TransportConfig {
        base_rtt: cfg.max_base_rtt(),
        rto: cfg.max_base_rtt() * 10,
        nack_guard: cfg.max_base_rtt(),
        expected_flows: 64,
        mtu: 1000,
    };
    let metrics = MetricsHub::new_shared();
    let mut mk = |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        if rung == 0 {
            return Box::new(Blaster {
                flows: per_host[idx].clone(),
            });
        }
        let make_cc: dcn_transport::CcFactory = if rung >= 3 {
            Algo::PowerTcp.cc_factory(tcfg)
        } else {
            Box::new(move |_flow, nic_bw| -> Box<dyn CongestionControl> {
                Box::new(FixedWindow::new(tcfg.cc_context(nic_bw)))
            })
        };
        let mut h = TransportHost::new(tcfg, metrics.clone(), make_cc);
        for f in &per_host[idx] {
            h.add_flow(*f);
        }
        Box::new(h)
    };
    let ft = build_fat_tree(cfg, &mut mk);
    let tors = ft.tors.clone();
    let mut sim = Simulator::new(ft.net);
    if rung >= 4 {
        let samples = series();
        for sw in tors {
            sim.add_tracer(Tick::from_micros(100), buffer_tracer(sw, samples.clone()));
        }
    }
    sim.run_until(Tick::from_micros(HORIZON_US + DRAIN_US));
    (sim.stats().events_processed, host::since(t0))
}

/// The product's own run of the ladder's input: (flows offered, events
/// dispatched).
fn product_point() -> (usize, u64) {
    let spec = ScenarioSpec::new("ladder-product", Scale::paper().topology())
        .poisson(dcn_scenarios::SizeSpec::Websearch)
        .horizon_ms(HORIZON_US as f64 / 1e3)
        .drain_ms(DRAIN_US as f64 / 1e3);
    let point = SweepPoint {
        index: 0,
        algo: Algo::PowerTcp,
        param: ParamSpec::default(),
        load: LOAD,
        seed: SEED,
    };
    let (outcome, stats) = dcn_scenarios::run_sweep_point_observed(&spec, &point);
    (outcome.offered, stats.events_processed)
}

/// Run every rung; per rung ns/event, events and wall ms of the fastest
/// run, plus the product's event count for the same input beside r5's.
pub fn run() -> Vec<Metric> {
    let offered = flows(&fabric(true), SEED, Tick::from_micros(HORIZON_US));
    let mut out = Vec::new();
    for (rung, name) in RUNGS.iter().enumerate() {
        let runs: Vec<(u64, f64)> = (0..REPS).map(|_| run_rung(rung, &offered)).collect();
        let events = runs[0].0;
        let wall_s = runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        out.extend([
            Metric::new(
                &format!("ladder.{name}.ns_per_event"),
                "ns",
                wall_s * 1e9 / events.max(1) as f64,
            ),
            Metric::new(&format!("ladder.{name}.events"), "count", events as f64),
            Metric::new(&format!("ladder.{name}.wall_ms"), "ms", wall_s * 1e3),
        ]);
    }
    out.push(Metric::new(
        "ladder.product.events",
        "count",
        product_point().1 as f64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_are_a_function_of_the_seed() {
        let cfg = fabric(true);
        let h = Tick::from_micros(100);
        assert_eq!(flows(&cfg, 1, h), flows(&cfg, 1, h));
        assert_ne!(flows(&cfg, 1, h), flows(&cfg, 2, h));
    }

    #[test]
    fn top_rung_is_the_product_path() {
        let offered = flows(&fabric(true), SEED, Tick::from_micros(HORIZON_US));
        let (product_offered, product_events) = product_point();
        assert_eq!(product_offered, offered.len(), "same flow population");
        assert_eq!(run_rung(4, &offered).0, product_events);
    }
}
