//! Topology builders: the paper's fat-tree (§4.1), plus dumbbell and
//! single-switch stars for controlled experiments.
//!
//! A spec turns only the host count and the link rates. Everything else
//! about a fabric is fixed here:
//!
//! * the fat-tree's shape, §4.1: [`PODS`] pods of [`TORS_PER_POD`] ToRs
//!   and [`AGGS_PER_POD`] aggregation switches, [`CORES`] core switches;
//! * its delays, §4.1: 1 µs on host links ([`HOST_DELAY`]) and ToR–agg
//!   links ([`FABRIC_DELAY`]), 5 µs on agg–core links ([`CORE_DELAY`]);
//! * the dumbbell's links: [`HOST_DELAY`] on host links and 2 µs on the
//!   bottleneck ([`BOTTLENECK_DELAY`]).
//!
//! The star's host delay stays an argument of [`build_star`].

use crate::engine::{Network, NetworkBuilder};
use crate::ids::{NodeId, PortId};
use crate::node::Endpoint;
use crate::packet::{CTRL_PKT_BYTES, DEFAULT_MTU};
use crate::switch::SwitchConfig;
use powertcp_core::{Bandwidth, Tick};

/// Factory for per-host endpoint logic: called with (host id, host index).
pub type AppFactory<'a> = dyn FnMut(NodeId, usize) -> Box<dyn Endpoint> + 'a;

/// Pods in the fat-tree (§4.1).
pub const PODS: usize = 4;
/// ToR switches per pod (§4.1).
pub const TORS_PER_POD: usize = 2;
/// Aggregation switches per pod (§4.1): each ToR has this many uplinks.
pub const AGGS_PER_POD: usize = 2;
/// Core switches (§4.1): each agg has this many uplinks.
pub const CORES: usize = 2;
/// ToR switches in the fat-tree: one rack each.
pub const TORS: usize = PODS * TORS_PER_POD;
/// Propagation delay of a host link, in the fat-tree (§4.1) and the
/// dumbbell.
pub const HOST_DELAY: Tick = Tick::from_micros(1);
/// Propagation delay of a ToR–agg link (§4.1).
pub const FABRIC_DELAY: Tick = Tick::from_micros(1);
/// Propagation delay of an agg–core link (§4.1).
pub const CORE_DELAY: Tick = Tick::from_micros(5);
/// Propagation delay of the dumbbell's bottleneck link.
pub const BOTTLENECK_DELAY: Tick = Tick::from_micros(2);

/// Configuration of the paper's fat-tree (§4.1 defaults).
///
/// 256 servers in 4 pods; each pod has 2 ToRs and 2 aggregation switches;
/// 2 core switches; 25 Gbps host links, 100 Gbps fabric links, 4:1
/// oversubscription at the ToR; 1 µs edge/fabric propagation, 5 µs on core
/// links; shared-buffer switches with Dynamic Thresholds. The shape and
/// the delays are the module's constants.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeConfig {
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Host NIC bandwidth.
    pub host_bw: Bandwidth,
    /// Switch-to-switch bandwidth.
    pub fabric_bw: Bandwidth,
    /// Switch template (buffers are scaled per tier by the builder).
    pub switch: SwitchConfig,
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig {
            hosts_per_tor: 32,
            host_bw: Bandwidth::gbps(25),
            fabric_bw: Bandwidth::gbps(100),
            switch: SwitchConfig::default(),
        }
    }
}

impl FatTreeConfig {
    /// A scaled-down variant for fast tests/benches: same shape, fewer
    /// hosts.
    pub fn small() -> Self {
        FatTreeConfig {
            hosts_per_tor: 4,
            ..Default::default()
        }
    }

    /// Total number of hosts.
    pub fn num_hosts(&self) -> usize {
        TORS * self.hosts_per_tor
    }

    /// Number of switch nodes the builder creates before any host (ToRs +
    /// aggs + cores); node ids are assigned in that order.
    pub fn num_switches(&self) -> usize {
        TORS + PODS * AGGS_PER_POD + CORES
    }

    /// Aggregate ToR-uplink capacity: every ToR's [`AGGS_PER_POD`]
    /// uplinks at `fabric_bw`. The paper's load denominator; the flow
    /// engine gives each rack an equal share of it.
    pub fn uplink_capacity(&self) -> Bandwidth {
        Bandwidth::from_bps(self.fabric_bw.bps() * (TORS * AGGS_PER_POD) as u64)
    }

    /// The node id host index `idx` will receive when the topology is
    /// built — switches are created first, hosts after, in index order.
    /// Lets workload generators produce `FlowSpec`s before construction;
    /// a test pins this against the built topology.
    pub fn host_node_id(&self, idx: usize) -> NodeId {
        assert!(idx < self.num_hosts());
        NodeId((self.num_switches() + idx) as u32)
    }

    /// Base RTT between host indices `a` and `b`: a same-ToR pair turns
    /// at the ToR, a same-pod pair at an aggregation switch, any other
    /// pair at a core switch.
    pub fn pair_rtt(&self, a: usize, b: usize) -> Tick {
        let (rack_a, rack_b) = (a / self.hosts_per_tor, b / self.hosts_per_tor);
        let host = (self.host_bw, HOST_DELAY);
        let agg = (self.fabric_bw, FABRIC_DELAY);
        let core = (self.fabric_bw, CORE_DELAY);
        if rack_a == rack_b {
            path_rtt(&[host, host])
        } else if rack_a / TORS_PER_POD == rack_b / TORS_PER_POD {
            path_rtt(&[host, agg, agg, host])
        } else {
            path_rtt(&[host, agg, core, core, agg, host])
        }
    }

    /// Worst-case base RTT across the topology: the `pair_rtt` of the
    /// first and last host, a cross-pod pair whenever there are two pods
    /// or more. This is the value the paper configures as `τ` ("base-RTT
    /// set to the maximum RTT in our topology").
    pub fn max_base_rtt(&self) -> Tick {
        self.pair_rtt(0, self.num_hosts() - 1)
    }
}

/// Base RTT of a path of `(bandwidth, propagation delay)` hops: each
/// hop's delay both ways, an MTU data packet's serialization on every hop
/// out and a control packet's on every hop back. Every base RTT here is
/// this sum.
fn path_rtt(hops: &[(Bandwidth, Tick)]) -> Tick {
    let (mtu, ctl) = (DEFAULT_MTU as u64, CTRL_PKT_BYTES as u64);
    hops.iter()
        .map(|&(bw, d)| d * 2 + bw.tx_time(mtu) + bw.tx_time(ctl))
        .sum()
}

/// A built fat-tree.
pub struct FatTree {
    /// The network, ready for [`crate::engine::Simulator::new`].
    pub net: Network,
    /// Host node ids, grouped implicitly: host `i` sits under ToR
    /// `i / hosts_per_tor`.
    pub hosts: Vec<NodeId>,
    /// ToR switch ids in pod-major order.
    pub tors: Vec<NodeId>,
    /// Aggregation switch ids in pod-major order.
    pub aggs: Vec<NodeId>,
    /// Core switch ids.
    pub cores: Vec<NodeId>,
    /// The configuration used.
    pub cfg: FatTreeConfig,
}

/// Build the fat-tree, instantiating one endpoint per host via `apps`.
pub fn build_fat_tree(cfg: FatTreeConfig, apps: &mut AppFactory<'_>) -> FatTree {
    assert!(cfg.hosts_per_tor > 0);
    let mut b = NetworkBuilder::new();

    // Buffer sizing per the paper: proportional to switch capacity using
    // the Tofino bandwidth-buffer ratio (~6.9 KB per Gbps of capacity).
    const BYTES_PER_GBPS: f64 = 6_875.0;
    let tor_capacity_gbps = cfg.hosts_per_tor as f64 * cfg.host_bw.as_gbps_f64()
        + AGGS_PER_POD as f64 * cfg.fabric_bw.as_gbps_f64();
    let agg_capacity_gbps = (TORS_PER_POD + CORES) as f64 * cfg.fabric_bw.as_gbps_f64();
    let core_capacity_gbps = (PODS * AGGS_PER_POD) as f64 * cfg.fabric_bw.as_gbps_f64();
    let scaled = |gbps: f64| SwitchConfig {
        buffer_bytes: (gbps * BYTES_PER_GBPS) as u64,
        ..cfg.switch
    };

    // Create switches first (ids dense and predictable), then hosts.
    let mut tors = Vec::new();
    let mut aggs = Vec::new();
    for _ in 0..PODS {
        for _ in 0..TORS_PER_POD {
            tors.push(b.add_switch(scaled(tor_capacity_gbps)));
        }
        for _ in 0..AGGS_PER_POD {
            aggs.push(b.add_switch(scaled(agg_capacity_gbps)));
        }
    }
    let cores: Vec<NodeId> = (0..CORES)
        .map(|_| b.add_switch(scaled(core_capacity_gbps)))
        .collect();

    // Hosts: attached in ToR order so `hosts[i]` sits under
    // `tors[i / hosts_per_tor]`. Ports 0..hosts_per_tor-1 on each ToR are
    // host downlinks (uplinks come after).
    let mut hosts = Vec::with_capacity(cfg.num_hosts());
    let mut downlinks = Vec::with_capacity(cfg.num_hosts());
    for (t, &tor) in tors.iter().enumerate() {
        for h in 0..cfg.hosts_per_tor {
            let idx = t * cfg.hosts_per_tor + h;
            let host = b.add_host(apps(b.next_node_id(), idx));
            assert_eq!(host, cfg.host_node_id(idx), "fat-tree node-id plan");
            downlinks.push(b.connect(tor, host, cfg.host_bw, HOST_DELAY).0);
            hosts.push(host);
        }
    }

    // ToR uplinks to every agg in the pod.
    // tor_uplinks[t][a] = port on tors[t] toward aggs[pod*AGGS_PER_POD+a].
    let mut tor_uplinks = vec![Vec::new(); tors.len()];
    let mut agg_downlinks = vec![Vec::new(); aggs.len()];
    for pod in 0..PODS {
        for t in 0..TORS_PER_POD {
            let ti = pod * TORS_PER_POD + t;
            for a in 0..AGGS_PER_POD {
                let ai = pod * AGGS_PER_POD + a;
                let (pt, pa) = b.connect(tors[ti], aggs[ai], cfg.fabric_bw, FABRIC_DELAY);
                tor_uplinks[ti].push(pt);
                agg_downlinks[ai].push((ti, pa));
            }
        }
    }

    // Agg uplinks to every core.
    let mut agg_uplinks = vec![Vec::new(); aggs.len()];
    let mut core_downlinks = vec![Vec::new(); cores.len()];
    for (ai, &agg) in aggs.iter().enumerate() {
        for (ci, &core) in cores.iter().enumerate() {
            let (pa, pc) = b.connect(agg, core, cfg.fabric_bw, CORE_DELAY);
            agg_uplinks[ai].push(pa);
            core_downlinks[ci].push((ai, pc));
        }
    }

    let mut net = b.build();

    // Routing tables.
    let rack_of = |host_index: usize| host_index / cfg.hosts_per_tor;
    let pod_of_rack = |rack: usize| rack / TORS_PER_POD;
    for (hi, &host) in hosts.iter().enumerate() {
        let rack = rack_of(hi);
        let pod = pod_of_rack(rack);
        // ToRs.
        for (ti, &tor) in tors.iter().enumerate() {
            let ports = if ti == rack {
                vec![downlinks[hi]]
            } else {
                tor_uplinks[ti].clone()
            };
            net.switch_mut(tor).set_route(host, ports);
        }
        // Aggs.
        for (ai, _) in aggs.iter().enumerate() {
            let my_pod = ai / AGGS_PER_POD;
            let ports = if my_pod == pod {
                // Downlink to the dst ToR.
                agg_downlinks[ai]
                    .iter()
                    .filter(|(ti, _)| *ti == rack)
                    .map(|(_, p)| *p)
                    .collect()
            } else {
                agg_uplinks[ai].clone()
            };
            net.switch_mut(aggs[ai]).set_route(host, ports);
        }
        // Cores: ECMP over the dst pod's aggs.
        for (ci, _) in cores.iter().enumerate() {
            let ports: Vec<PortId> = core_downlinks[ci]
                .iter()
                .filter(|(ai, _)| ai / AGGS_PER_POD == pod)
                .map(|(_, p)| *p)
                .collect();
            net.switch_mut(cores[ci]).set_route(host, ports);
        }
    }

    FatTree {
        net,
        hosts,
        tors,
        aggs,
        cores,
        cfg,
    }
}

/// A built dumbbell: `n` sender hosts on switch A, `n` receiver hosts on
/// switch B, one bottleneck link A→B.
pub struct Dumbbell {
    /// The network.
    pub net: Network,
    /// Sender hosts (attached to switch A).
    pub senders: Vec<NodeId>,
    /// Receiver hosts (attached to switch B).
    pub receivers: Vec<NodeId>,
    /// Switch A (senders side).
    pub left: NodeId,
    /// Switch B (receivers side).
    pub right: NodeId,
    /// Egress port on A toward B — the bottleneck queue to observe.
    pub bottleneck_port: PortId,
}

/// Dumbbell parameters.
#[derive(Clone, Copy, Debug)]
pub struct DumbbellConfig {
    /// Hosts per side.
    pub pairs: usize,
    /// Host NIC bandwidth.
    pub host_bw: Bandwidth,
    /// Bottleneck bandwidth.
    pub bottleneck_bw: Bandwidth,
    /// Switch template.
    pub switch: SwitchConfig,
}

impl DumbbellConfig {
    /// The node id host index `i` will receive when the dumbbell is
    /// built: the two switches come first, then the senders (`i <
    /// pairs`, left side), then the receivers.
    pub fn host_node_id(&self, i: usize) -> NodeId {
        assert!(i < 2 * self.pairs);
        NodeId((2 + i) as u32)
    }

    /// Base RTT through the bottleneck for MTU data + control ACK,
    /// computable before the network (and its endpoints) exist.
    pub fn base_rtt(&self) -> Tick {
        let host = (self.host_bw, HOST_DELAY);
        path_rtt(&[host, (self.bottleneck_bw, BOTTLENECK_DELAY), host])
    }
}

impl Default for DumbbellConfig {
    fn default() -> Self {
        DumbbellConfig {
            pairs: 2,
            host_bw: Bandwidth::gbps(25),
            bottleneck_bw: Bandwidth::gbps(25),
            switch: SwitchConfig::default(),
        }
    }
}

/// Build a dumbbell.
pub fn build_dumbbell(cfg: DumbbellConfig, apps: &mut AppFactory<'_>) -> Dumbbell {
    assert!(cfg.pairs > 0);
    let mut b = NetworkBuilder::new();
    let left = b.add_switch(cfg.switch);
    let right = b.add_switch(cfg.switch);
    // Hosts in index order — senders on the left switch, then receivers
    // on the right; `down[i]` is the switch port facing host `i`.
    let mut hosts = Vec::new();
    let mut down = Vec::new();
    for i in 0..2 * cfg.pairs {
        let sw = if i < cfg.pairs { left } else { right };
        let h = b.add_host(apps(b.next_node_id(), i));
        assert_eq!(h, cfg.host_node_id(i), "dumbbell node-id plan");
        down.push(b.connect(sw, h, cfg.host_bw, HOST_DELAY).0);
        hosts.push(h);
    }
    let (trunk_left, trunk_right) = b.connect(left, right, cfg.bottleneck_bw, BOTTLENECK_DELAY);
    let mut net = b.build();

    // A host's own switch reaches it directly, the other one over the
    // bottleneck.
    for (i, &h) in hosts.iter().enumerate() {
        let (near, far, far_trunk) = if i < cfg.pairs {
            (left, right, trunk_right)
        } else {
            (right, left, trunk_left)
        };
        net.switch_mut(near).set_route(h, vec![down[i]]);
        net.switch_mut(far).set_route(h, vec![far_trunk]);
    }

    let receivers = hosts.split_off(cfg.pairs);
    Dumbbell {
        net,
        senders: hosts,
        receivers,
        left,
        right,
        bottleneck_port: trunk_left,
    }
}

/// A built star: one switch, `n` hosts — the canonical incast fixture
/// (every sender shares the receiver's downlink).
pub struct Star {
    /// The network.
    pub net: Network,
    /// All hosts.
    pub hosts: Vec<NodeId>,
    /// The switch.
    pub switch: NodeId,
}

/// Base RTT host-to-host on a star (MTU data out, control ACK back),
/// computable before the network (and its endpoints) exist.
pub fn star_base_rtt(host_bw: Bandwidth, host_delay: Tick) -> Tick {
    path_rtt(&[(host_bw, host_delay); 2])
}

/// The node id host index `i` receives when a star is built: the switch
/// is node 0, the hosts follow.
pub fn star_host_id(i: usize) -> NodeId {
    NodeId((1 + i) as u32)
}

/// Build a star of `n` hosts on one switch.
pub fn build_star(
    n: usize,
    host_bw: Bandwidth,
    host_delay: Tick,
    switch_cfg: SwitchConfig,
    apps: &mut AppFactory<'_>,
) -> Star {
    assert!(n >= 2);
    let mut b = NetworkBuilder::new();
    let sw = b.add_switch(switch_cfg);
    let mut hosts = Vec::new();
    let mut downlinks = Vec::new();
    for i in 0..n {
        let h = b.add_host(apps(b.next_node_id(), i));
        assert_eq!(h, star_host_id(i), "star node-id plan");
        downlinks.push(b.connect(sw, h, host_bw, host_delay).0);
        hosts.push(h);
    }
    let mut net = b.build();
    for (&h, &down) in hosts.iter().zip(&downlinks) {
        net.switch_mut(sw).set_route(h, vec![down]);
    }
    Star {
        net,
        hosts,
        switch: sw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NullEndpoint;

    fn null_apps() -> impl FnMut(NodeId, usize) -> Box<dyn Endpoint> {
        |_, _| Box::new(NullEndpoint)
    }

    #[test]
    fn fat_tree_shape_matches_paper() {
        let cfg = FatTreeConfig::default();
        let mut mk = null_apps();
        let ft = build_fat_tree(cfg, &mut mk);
        assert_eq!(ft.hosts.len(), 256);
        assert_eq!(ft.tors.len(), 8);
        assert_eq!(ft.aggs.len(), 8);
        assert_eq!(ft.cores.len(), 2);
        // ToR port count: 32 hosts + 2 uplinks.
        let tor = ft.net.switch(ft.tors[0]);
        assert_eq!(tor.num_ports(), 34);
        // Agg: 2 ToR downlinks + 2 core uplinks.
        assert_eq!(ft.net.switch(ft.aggs[0]).num_ports(), 4);
        // Core: one link per agg.
        assert_eq!(ft.net.switch(ft.cores[0]).num_ports(), 8);
    }

    #[test]
    fn host_node_id_plan_matches_build() {
        for cfg in [FatTreeConfig::default(), FatTreeConfig::small()] {
            let mut mk = null_apps();
            let ft = build_fat_tree(cfg, &mut mk);
            for (idx, &h) in ft.hosts.iter().enumerate() {
                assert_eq!(cfg.host_node_id(idx), h, "idx {idx}");
            }
        }
    }

    #[test]
    fn fat_tree_max_rtt_is_about_29_us() {
        let cfg = FatTreeConfig::default();
        let rtt = cfg.max_base_rtt();
        assert!(
            rtt > Tick::from_micros(28) && rtt < Tick::from_micros(31),
            "rtt = {rtt}"
        );
        // Exact picoseconds, as the hand-written hop formula gave them
        // before the hop sum replaced it: the default (paper) fat-tree,
        // the builtins' tiny one (2 hosts per ToR, 12.5G fabric) and the
        // 100k-host one (12,500 per ToR, 100G fabric).
        assert_eq!(rtt.as_ps(), 29_021_440);
        let tiny = FatTreeConfig {
            hosts_per_tor: 2,
            fabric_bw: Bandwidth::from_bps(12_500_000_000),
            ..cfg
        };
        assert_eq!(tiny.max_base_rtt().as_ps(), 31_404_800);
        let wide = FatTreeConfig {
            hosts_per_tor: 12_500,
            ..cfg
        };
        assert_eq!(wide.max_base_rtt().as_ps(), 29_021_440);
        // A pair's RTT grows with the tier it turns at, and the maximum
        // is the cross-pod pair's.
        for c in [cfg, tiny, wide] {
            let (tor, pod) = (c.hosts_per_tor, c.hosts_per_tor * TORS_PER_POD);
            let same_tor = c.pair_rtt(0, tor - 1);
            let same_pod = c.pair_rtt(0, tor);
            let cross_pod = c.pair_rtt(0, pod);
            assert!(same_tor < same_pod && same_pod < cross_pod, "{c:?}");
            assert_eq!(cross_pod, c.max_base_rtt());
        }
    }

    #[test]
    fn fat_tree_routes_exist_for_all_host_pairs() {
        let mut mk = null_apps();
        let ft = build_fat_tree(FatTreeConfig::small(), &mut mk);
        for &tor in &ft.tors {
            let sw = ft.net.switch(tor);
            for &h in &ft.hosts {
                assert!(
                    sw.route_for(&crate::packet::Packet::data(
                        crate::ids::FlowId(1),
                        ft.hosts[0],
                        h,
                        0,
                        100,
                        false,
                        Tick::ZERO,
                    ))
                    .is_some(),
                    "tor {tor} lacks route to {h}"
                );
            }
        }
    }

    #[test]
    fn tor_buffer_scaled_to_capacity() {
        let mut mk = null_apps();
        let ft = build_fat_tree(FatTreeConfig::default(), &mut mk);
        // ToR capacity = 32*25 + 2*100 = 1000 G -> ~6.9 MB.
        let buf = ft.net.switch(ft.tors[0]).config().buffer_bytes;
        assert!(buf > 6_000_000 && buf < 8_000_000, "buf={buf}");
        // Core capacity = 8*100 = 800 G -> ~5.5 MB.
        let buf = ft.net.switch(ft.cores[0]).config().buffer_bytes;
        assert!(buf > 5_000_000 && buf < 6_000_000, "buf={buf}");
    }

    #[test]
    fn dumbbell_routes_and_rtt() {
        let mut mk = null_apps();
        let d = build_dumbbell(DumbbellConfig::default(), &mut mk);
        assert_eq!(d.senders.len(), 2);
        assert_eq!(d.receivers.len(), 2);
        let plan = DumbbellConfig::default();
        for (i, &h) in d.senders.iter().chain(&d.receivers).enumerate() {
            assert_eq!(plan.host_node_id(i), h, "host {i}");
        }
        // base RTT: 4*1us + 2*2us = 8us prop + serialization.
        let rtt = plan.base_rtt();
        assert!(rtt > Tick::from_micros(8));
        assert!(rtt < Tick::from_micros(10));
        assert_eq!(rtt.as_ps(), 9_021_440);
    }

    #[test]
    fn star_shape() {
        let mut mk = null_apps();
        let s = build_star(
            4,
            Bandwidth::gbps(25),
            Tick::from_micros(1),
            SwitchConfig::default(),
            &mut mk,
        );
        assert_eq!(s.hosts.len(), 4);
        assert_eq!(s.net.switch(s.switch).num_ports(), 4);
        for (i, &h) in s.hosts.iter().enumerate() {
            assert_eq!(star_host_id(i), h, "host {i}");
        }
        // 4 µs of propagation plus two hops of MTU and control
        // serialization at 25G.
        let rtt = star_base_rtt(Bandwidth::gbps(25), Tick::from_micros(1));
        assert_eq!(rtt.as_ps(), 4_680_960);
    }
}
