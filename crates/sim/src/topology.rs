//! Topology builders: the paper's fat-tree (§4.1), plus dumbbell and
//! single-switch stars for controlled experiments.

use crate::engine::{Network, NetworkBuilder};
use crate::ids::{NodeId, PortId};
use crate::node::Endpoint;
use crate::packet::{CTRL_PKT_BYTES, DEFAULT_MTU};
use crate::switch::SwitchConfig;
use powertcp_core::{Bandwidth, Tick};

/// Factory for per-host endpoint logic: called with (host id, host index).
pub type AppFactory<'a> = dyn FnMut(NodeId, usize) -> Box<dyn Endpoint> + 'a;

/// Configuration of the paper's fat-tree (§4.1 defaults).
///
/// 256 servers in 4 pods; each pod has 2 ToRs and 2 aggregation switches;
/// 2 core switches; 25 Gbps host links, 100 Gbps fabric links, 4:1
/// oversubscription at the ToR; 1 µs edge/fabric propagation, 5 µs on core
/// links; shared-buffer switches with Dynamic Thresholds.
#[derive(Clone, Copy, Debug)]
pub struct FatTreeConfig {
    /// Number of pods.
    pub pods: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// Core switches.
    pub cores: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Host NIC bandwidth.
    pub host_bw: Bandwidth,
    /// Switch-to-switch bandwidth.
    pub fabric_bw: Bandwidth,
    /// Host link propagation delay.
    pub host_delay: Tick,
    /// ToR-Agg propagation delay.
    pub fabric_delay: Tick,
    /// Agg-Core propagation delay.
    pub core_delay: Tick,
    /// Switch template (buffers are scaled per tier by the builder).
    pub switch: SwitchConfig,
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig {
            pods: 4,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            cores: 2,
            hosts_per_tor: 32,
            host_bw: Bandwidth::gbps(25),
            fabric_bw: Bandwidth::gbps(100),
            host_delay: Tick::from_micros(1),
            fabric_delay: Tick::from_micros(1),
            core_delay: Tick::from_micros(5),
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
        self.pods * self.tors_per_pod * self.hosts_per_tor
    }

    /// Number of switch nodes the builder creates before any host (ToRs +
    /// aggs + cores); node ids are assigned in that order.
    pub fn num_switches(&self) -> usize {
        self.pods * (self.tors_per_pod + self.aggs_per_pod) + self.cores
    }

    /// The node id host index `idx` will receive when the topology is
    /// built — switches are created first, hosts after, in index order.
    /// Lets workload generators produce `FlowSpec`s before construction;
    /// a test pins this against the built topology.
    pub fn host_node_id(&self, idx: usize) -> NodeId {
        assert!(idx < self.num_hosts());
        NodeId((self.num_switches() + idx) as u32)
    }

    /// Worst-case base RTT across the topology: round-trip propagation
    /// through the core plus per-hop serialization of an MTU data packet
    /// one way and a control packet back. This is the value the paper
    /// configures as `τ` ("base-RTT set to the maximum RTT in our
    /// topology").
    pub fn max_base_rtt(&self) -> Tick {
        let prop_one_way = self.host_delay
            + self.fabric_delay
            + self.core_delay
            + self.core_delay
            + self.fabric_delay
            + self.host_delay;
        let mtu = DEFAULT_MTU as u64;
        let ctl = CTRL_PKT_BYTES as u64;
        // Data path: host NIC (host_bw) + 4 fabric hops + ToR downlink.
        let data_ser =
            self.host_bw.tx_time(mtu) + self.fabric_bw.tx_time(mtu) * 4 + self.host_bw.tx_time(mtu);
        let ack_ser =
            self.host_bw.tx_time(ctl) + self.fabric_bw.tx_time(ctl) * 4 + self.host_bw.tx_time(ctl);
        prop_one_way * 2 + data_ser + ack_ser
    }
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

impl FatTree {
    /// The rack (ToR index) of a host.
    pub fn rack_of(&self, host_index: usize) -> usize {
        host_index / self.cfg.hosts_per_tor
    }
}

/// Build the fat-tree, instantiating one endpoint per host via `apps`.
pub fn build_fat_tree(cfg: FatTreeConfig, apps: &mut AppFactory<'_>) -> FatTree {
    assert!(cfg.pods > 0 && cfg.tors_per_pod > 0 && cfg.hosts_per_tor > 0);
    assert!(cfg.cores > 0 && cfg.aggs_per_pod > 0);
    let mut b = NetworkBuilder::new();

    // Buffer sizing per the paper: proportional to switch capacity using
    // the Tofino bandwidth-buffer ratio (~6.9 KB per Gbps of capacity).
    const BYTES_PER_GBPS: f64 = 6_875.0;
    let tor_capacity_gbps = cfg.hosts_per_tor as f64 * cfg.host_bw.as_gbps_f64()
        + cfg.aggs_per_pod as f64 * cfg.fabric_bw.as_gbps_f64();
    let agg_capacity_gbps = (cfg.tors_per_pod + cfg.cores) as f64 * cfg.fabric_bw.as_gbps_f64();
    let core_capacity_gbps = (cfg.pods * cfg.aggs_per_pod) as f64 * cfg.fabric_bw.as_gbps_f64();
    let scaled = |gbps: f64| SwitchConfig {
        buffer_bytes: (gbps * BYTES_PER_GBPS) as u64,
        ..cfg.switch
    };

    // Create switches first (ids dense and predictable), then hosts.
    let mut tors = Vec::new();
    let mut aggs = Vec::new();
    for _ in 0..cfg.pods {
        for _ in 0..cfg.tors_per_pod {
            tors.push(b.add_switch(scaled(tor_capacity_gbps)));
        }
        for _ in 0..cfg.aggs_per_pod {
            aggs.push(b.add_switch(scaled(agg_capacity_gbps)));
        }
    }
    let cores: Vec<NodeId> = (0..cfg.cores)
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
            downlinks.push(b.connect(tor, host, cfg.host_bw, cfg.host_delay).0);
            hosts.push(host);
        }
    }

    // ToR uplinks to every agg in the pod.
    // tor_uplinks[t][a] = port on tors[t] toward aggs[pod*aggs_per_pod+a].
    let mut tor_uplinks = vec![Vec::new(); tors.len()];
    let mut agg_downlinks = vec![Vec::new(); aggs.len()];
    for pod in 0..cfg.pods {
        for t in 0..cfg.tors_per_pod {
            let ti = pod * cfg.tors_per_pod + t;
            for a in 0..cfg.aggs_per_pod {
                let ai = pod * cfg.aggs_per_pod + a;
                let (pt, pa) = b.connect(tors[ti], aggs[ai], cfg.fabric_bw, cfg.fabric_delay);
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
            let (pa, pc) = b.connect(agg, core, cfg.fabric_bw, cfg.core_delay);
            agg_uplinks[ai].push(pa);
            core_downlinks[ci].push((ai, pc));
        }
    }

    let mut net = b.build();

    // Routing tables.
    let rack_of = |host_index: usize| host_index / cfg.hosts_per_tor;
    let pod_of_rack = |rack: usize| rack / cfg.tors_per_pod;
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
            let my_pod = ai / cfg.aggs_per_pod;
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
                .filter(|(ai, _)| ai / cfg.aggs_per_pod == pod)
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
    /// Base RTT through the bottleneck for MTU data + control ACK.
    pub base_rtt: Tick,
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
    /// Host link propagation delay.
    pub host_delay: Tick,
    /// Bottleneck propagation delay.
    pub bottleneck_delay: Tick,
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

    /// Base RTT through the bottleneck for MTU data + control ACK — the
    /// value `build_dumbbell` stores in [`Dumbbell::base_rtt`],
    /// computable before the network (and its endpoints) exist.
    pub fn base_rtt(&self) -> Tick {
        self.host_delay * 4
            + self.bottleneck_delay * 2
            + self.host_bw.tx_time(DEFAULT_MTU as u64) * 2
            + self.bottleneck_bw.tx_time(DEFAULT_MTU as u64)
            + self.host_bw.tx_time(CTRL_PKT_BYTES as u64) * 2
            + self.bottleneck_bw.tx_time(CTRL_PKT_BYTES as u64)
    }
}

impl Default for DumbbellConfig {
    fn default() -> Self {
        DumbbellConfig {
            pairs: 2,
            host_bw: Bandwidth::gbps(25),
            bottleneck_bw: Bandwidth::gbps(25),
            host_delay: Tick::from_micros(1),
            bottleneck_delay: Tick::from_micros(2),
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
        down.push(b.connect(sw, h, cfg.host_bw, cfg.host_delay).0);
        hosts.push(h);
    }
    let (trunk_left, trunk_right) = b.connect(left, right, cfg.bottleneck_bw, cfg.bottleneck_delay);
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

    let base_rtt = cfg.base_rtt();
    let receivers = hosts.split_off(cfg.pairs);
    Dumbbell {
        net,
        senders: hosts,
        receivers,
        left,
        right,
        bottleneck_port: trunk_left,
        base_rtt,
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
    /// Base RTT host-to-host.
    pub base_rtt: Tick,
}

/// Base RTT host-to-host on a star (MTU data out, control ACK back) —
/// the value `build_star` stores in [`Star::base_rtt`], computable
/// before the network (and its endpoints) exist.
pub fn star_base_rtt(host_bw: Bandwidth, host_delay: Tick) -> Tick {
    host_delay * 4
        + host_bw.tx_time(DEFAULT_MTU as u64) * 2
        + host_bw.tx_time(CTRL_PKT_BYTES as u64) * 2
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
    let base_rtt = star_base_rtt(host_bw, host_delay);
    Star {
        net,
        hosts,
        switch: sw,
        base_rtt,
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
        assert!(d.base_rtt > Tick::from_micros(8));
        assert!(d.base_rtt < Tick::from_micros(10));
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
    }
}
