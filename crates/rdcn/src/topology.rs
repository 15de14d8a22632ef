//! The RDCN topology of §5: 25 VOQ ToRs × 10 servers, one optical circuit
//! switch (100 G, rotor schedule), and a separate packet-switched network
//! (25 G) — "our setup is in line with prior work [reTCP]".
//!
//! A spec turns the schedule, the servers per ToR, the packet-network rate
//! (Figure 8b sweeps it) and reTCP's prebuffering window. The rest of §5's
//! fabric is fixed here:
//!
//! * host links run at 25 G ([`HOST_BW`]), the circuit at 100 G
//!   ([`CIRCUIT_BW`]);
//! * propagation is 2 µs on a host link ([`HOST_DELAY`]) and 3 µs from a
//!   ToR to either the packet switch ([`PACKET_DELAY`]) or the circuit
//!   switch ([`CIRCUIT_DELAY`]);
//! * the packet switch is a default [`SwitchConfig`].

use crate::circuit::CircuitSwitch;
use crate::schedule::RotorSchedule;
use crate::signal::CircuitAwareHost;
use crate::voq_tor::{LatencySink, VoqGauge, VoqTor, VoqTorConfig};
use dcn_sim::{
    AppFactory, Endpoint, FlowId, Network, NetworkBuilder, NodeId, PortId, SwitchConfig,
};
use dcn_transport::{CcFactory, FlowSpec, SharedMetrics, TransportConfig, TransportHost};
use powertcp_core::{Bandwidth, Tick};
use std::cell::RefCell;
use std::rc::Rc;

/// Host link bandwidth (§5: 25 G).
pub const HOST_BW: Bandwidth = Bandwidth::gbps(25);
/// Circuit bandwidth (§5: 100 G).
pub const CIRCUIT_BW: Bandwidth = Bandwidth::gbps(100);
/// Host link propagation delay.
pub const HOST_DELAY: Tick = Tick::from_micros(2);
/// ToR ↔ packet switch propagation delay.
pub const PACKET_DELAY: Tick = Tick::from_micros(3);
/// ToR ↔ circuit switch propagation delay.
pub const CIRCUIT_DELAY: Tick = Tick::from_micros(3);

/// RDCN topology parameters (paper §5 defaults); the fixed links are the
/// module's constants.
#[derive(Clone)]
pub struct RdcnConfig {
    /// Rotor schedule (ToR count lives here).
    pub schedule: RotorSchedule,
    /// Servers per ToR (paper: 10).
    pub hosts_per_tor: usize,
    /// ToR ↔ packet-switch bandwidth (paper: 25 G; Figure 8b sweeps it).
    pub packet_bw: Bandwidth,
    /// reTCP prebuffering window (0 for PowerTCP/HPCC runs).
    pub prebuffer: Tick,
}

impl Default for RdcnConfig {
    fn default() -> Self {
        RdcnConfig {
            schedule: RotorSchedule::paper_defaults(),
            hosts_per_tor: 10,
            packet_bw: Bandwidth::gbps(25),
            prebuffer: Tick::ZERO,
        }
    }
}

impl RdcnConfig {
    /// A small instance for tests: 4 ToRs × 2 hosts.
    pub fn small() -> Self {
        RdcnConfig {
            schedule: RotorSchedule {
                n_tors: 4,
                day: Tick::from_micros(225),
                night: Tick::from_micros(20),
            },
            hosts_per_tor: 2,
            ..Default::default()
        }
    }

    /// Node-id plan: the packet switch is node 0, the circuit switch node
    /// 1, then each rack's ToR followed by its hosts.
    fn tor_node_id(&self, rack: usize) -> NodeId {
        assert!(rack < self.schedule.n_tors);
        NodeId((2 + rack * (1 + self.hosts_per_tor)) as u32)
    }

    /// The node id the host in `slot` of `rack` will receive when the
    /// topology is built — lets endpoints address each other before the
    /// network exists; a test pins this against the built topology.
    pub fn host_node_id(&self, rack: usize, slot: usize) -> NodeId {
        assert!(slot < self.hosts_per_tor);
        NodeId(self.tor_node_id(rack).0 + 1 + slot as u32)
    }

    /// The paper's quoted maximum base RTT for this topology (24 µs);
    /// used to configure τ in the CC algorithms.
    pub fn base_rtt(&self) -> Tick {
        Tick::from_micros(24)
    }
}

/// A built RDCN.
pub struct Rdcn {
    /// The network.
    pub net: Network,
    /// Hosts in rack-major order (`hosts[r * hosts_per_tor + j]`).
    pub hosts: Vec<NodeId>,
    /// VOQ ToR node ids.
    pub tors: Vec<NodeId>,
    /// The optical circuit switch node.
    pub circuit_switch: NodeId,
    /// The packet switch node.
    pub packet_switch: NodeId,
    /// Per-ToR VOQ occupancy gauges.
    pub voq_gauges: Vec<VoqGauge>,
    /// Per-ToR VOQ latency sinks.
    pub latency_sinks: Vec<LatencySink>,
    /// The configuration.
    pub cfg: RdcnConfig,
}

impl Rdcn {
    /// The rack of host index `i`.
    pub fn rack_of(&self, host_index: usize) -> usize {
        host_index / self.cfg.hosts_per_tor
    }
}

/// Build the RDCN; `apps` is called with (host NodeId, host index).
pub fn build_rdcn(cfg: RdcnConfig, apps: &mut AppFactory<'_>) -> Rdcn {
    let n_tors = cfg.schedule.n_tors;
    let h = cfg.hosts_per_tor;
    assert!(n_tors >= 2 && h >= 1);

    let total_nodes = 2 + n_tors * (1 + h);
    let mut rack_of_node = vec![u16::MAX; total_nodes];
    let mut local_port_of = vec![u16::MAX; total_nodes];
    for r in 0..n_tors {
        for j in 0..h {
            rack_of_node[cfg.host_node_id(r, j).index()] = r as u16;
            local_port_of[cfg.host_node_id(r, j).index()] = j as u16;
        }
    }

    let mut voq_gauges = Vec::new();
    let mut latency_sinks = Vec::new();

    let mut b = NetworkBuilder::new();
    let packet_switch = b.add_switch(SwitchConfig::default());
    let circuit_switch = b.add_custom(Box::new(CircuitSwitch::new(cfg.schedule)));
    let mut tors = Vec::new();
    let mut hosts = Vec::new();
    for r in 0..n_tors {
        let gauge: VoqGauge = Rc::new(RefCell::new(Vec::new()));
        let sink: LatencySink = Rc::new(RefCell::new(Vec::new()));
        voq_gauges.push(gauge.clone());
        latency_sinks.push(sink.clone());
        let tor = b.add_custom(Box::new(VoqTor::new(VoqTorConfig {
            tor_index: r,
            n_hosts: h,
            schedule: cfg.schedule,
            prebuffer: cfg.prebuffer,
            rack_of_node: rack_of_node.clone(),
            local_port_of: local_port_of.clone(),
            voq_gauge: gauge,
            latency_sink: sink,
        })));
        assert_eq!(tor, cfg.tor_node_id(r), "rdcn node-id plan");
        tors.push(tor);
        for j in 0..h {
            let idx = r * h + j;
            let host = b.add_host(apps(b.next_node_id(), idx));
            assert_eq!(host, cfg.host_node_id(r, j), "rdcn node-id plan");
            b.connect(tor, host, HOST_BW, HOST_DELAY);
            hosts.push(host);
        }
    }

    // Uplinks and circuit links (after each rack's host ports, in rack
    // order so circuit-switch port r faces ToR r).
    let mut uplink_switch_ports = Vec::new();
    for (r, &tor) in tors.iter().enumerate() {
        let (_pt, ps) = b.connect(tor, packet_switch, cfg.packet_bw, PACKET_DELAY);
        uplink_switch_ports.push(ps);
        let (pt, pc) = b.connect(tor, circuit_switch, CIRCUIT_BW, CIRCUIT_DELAY);
        assert_eq!(pt, PortId((h + 1) as u16), "ToR circuit port layout");
        assert_eq!(pc, PortId(r as u16), "circuit switch port r faces ToR r");
    }

    let mut net = b.build();
    // Packet-switch routes: every host via its rack's uplink port.
    for (r, &uplink) in uplink_switch_ports.iter().enumerate() {
        for j in 0..h {
            net.switch_mut(packet_switch)
                .set_route(cfg.host_node_id(r, j), vec![uplink]);
        }
    }

    Rdcn {
        net,
        hosts,
        tors,
        circuit_switch,
        packet_switch,
        voq_gauges,
        latency_sinks,
        cfg,
    }
}

/// The Figure 8 fixture: every host of rack 0 sends one `flow_bytes` flow
/// (id = host index + 1, from t = 0) to its same-slot peer in rack 1 from
/// behind a [`CircuitAwareHost`] watching the `0 → 1` circuit; every
/// other host is a plain [`TransportHost`]. `make_cc` is called once per
/// host, in host order.
pub fn build_rack_pair(
    cfg: RdcnConfig,
    metrics: &SharedMetrics,
    tcfg: TransportConfig,
    flow_bytes: u64,
    make_cc: &mut dyn FnMut() -> CcFactory,
) -> Rdcn {
    let mut mk = |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut host = TransportHost::new(tcfg, metrics.clone(), make_cc());
        let (rack, slot) = (idx / cfg.hosts_per_tor, idx % cfg.hosts_per_tor);
        if rack != 0 {
            return Box::new(host);
        }
        host.add_flow(FlowSpec {
            id: FlowId(idx as u64 + 1),
            src: id,
            dst: cfg.host_node_id(1, slot),
            size_bytes: flow_bytes,
            start: Tick::ZERO,
        });
        Box::new(CircuitAwareHost::new(host, cfg.schedule, 0, 1))
    };
    build_rdcn(cfg.clone(), &mut mk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_sim::NullEndpoint;

    #[test]
    fn shapes_and_id_plan() {
        let mut mk =
            |_id: NodeId, _idx: usize| -> Box<dyn dcn_sim::Endpoint> { Box::new(NullEndpoint) };
        let r = build_rdcn(RdcnConfig::small(), &mut mk);
        assert_eq!(r.tors.len(), 4);
        assert_eq!(r.hosts.len(), 8);
        assert_eq!(r.packet_switch, NodeId(0));
        assert_eq!(r.circuit_switch, NodeId(1));
        assert_eq!(r.rack_of(0), 0);
        assert_eq!(r.rack_of(7), 3);
        // Packet switch has one port per ToR.
        assert_eq!(r.net.switch(r.packet_switch).num_ports(), 4);
        // The plan endpoints address each other by is what was built.
        for (i, &host) in r.hosts.iter().enumerate() {
            assert_eq!(r.cfg.host_node_id(i / 2, i % 2), host, "host {i}");
        }
    }

    #[test]
    fn paper_scale_builds() {
        let mut mk =
            |_id: NodeId, _idx: usize| -> Box<dyn dcn_sim::Endpoint> { Box::new(NullEndpoint) };
        let r = build_rdcn(RdcnConfig::default(), &mut mk);
        assert_eq!(r.tors.len(), 25);
        assert_eq!(r.hosts.len(), 250);
        assert_eq!(r.voq_gauges.len(), 25);
    }
}
