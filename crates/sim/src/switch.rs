//! The stock switch: output-queued, shared-buffer (Dynamic Thresholds),
//! strict-priority scheduling, RED/ECN marking, INT insertion, optional
//! PFC.
//!
//! This mirrors the paper's evaluation substrate (§4.1): "a shared memory
//! architecture on all the switches … the Dynamic Thresholds algorithm for
//! buffer management across all the ports", Tofino-proportioned buffers,
//! and HPCC-style INT where every egress appends `(qlen, ts, txBytes, b)`
//! at the moment a packet is scheduled for transmission.

use crate::buffer::SharedBuffer;
use crate::ecn::{EcnConfig, MarkRng};
use crate::ids::{mix64, NodeId, PortId};
use crate::link::{Egress, Link};
use crate::packet::{Packet, PacketKind, NUM_PRIORITIES};
use powertcp_core::Tick;
use std::collections::VecDeque;

/// PFC (priority flow control) thresholds, in bytes of per-ingress-port
/// buffered data. Disabled unless configured on the switch.
#[derive(Clone, Copy, Debug)]
pub struct PfcConfig {
    /// Send XOFF upstream when an ingress port's buffered bytes exceed
    /// this.
    pub xoff_bytes: u64,
    /// Send XON when they fall back below this (must be < `xoff_bytes`).
    pub xon_bytes: u64,
}

impl PfcConfig {
    /// Validate threshold ordering.
    pub fn validate(&self) -> Result<(), String> {
        if self.xon_bytes >= self.xoff_bytes {
            return Err(format!(
                "PFC xon ({}) must be below xoff ({})",
                self.xon_bytes, self.xoff_bytes
            ));
        }
        Ok(())
    }
}

/// A queued packet remembers its ingress port for PFC accounting.
#[derive(Debug)]
pub(crate) struct QueuedPacket {
    pub pkt: Box<Packet>,
    pub ingress: PortId,
}

// One bit per class in `SwitchPort::occupied`.
const _: () = assert!(NUM_PRIORITIES <= u8::BITS as usize);

/// One egress port: eight strict-priority FIFO queues in front of its
/// transmit half.
pub struct SwitchPort {
    /// The wire and its serialization state.
    pub(crate) tx: Egress,
    pub(crate) queues: [VecDeque<QueuedPacket>; NUM_PRIORITIES],
    /// Bit `i` set ⇔ `queues[i]` is non-empty. Data rides class 7, so
    /// without it every dequeue — and every `TxDone` on an idle port —
    /// walks eight queue headers to find that out.
    occupied: u8,
    /// Total bytes across all priority queues of this port.
    pub(crate) queued_bytes: u64,
    /// Paused by a peer's PFC XOFF.
    pub(crate) paused: bool,
    /// Packets dropped at this port by buffer admission.
    pub(crate) drops: u64,
}

impl SwitchPort {
    fn new(wire: Link) -> Self {
        SwitchPort {
            tx: Egress::new(wire),
            queues: Default::default(),
            occupied: 0,
            queued_bytes: 0,
            paused: false,
            drops: 0,
        }
    }

    /// Bytes queued at this port (all priorities).
    #[inline]
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// The transmit half: the wire, whether a packet is being serialized,
    /// and the cumulative bytes transmitted.
    #[inline]
    pub fn tx(&self) -> &Egress {
        &self.tx
    }

    /// Packets dropped at admission to this port.
    #[inline]
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// True while paused by PFC.
    #[inline]
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    fn push(&mut self, class: usize, qp: QueuedPacket) {
        self.queued_bytes += qp.pkt.size as u64;
        self.queues[class].push_back(qp);
        self.occupied |= 1 << class;
    }

    fn pop_highest(&mut self) -> Option<QueuedPacket> {
        if self.occupied == 0 {
            return None;
        }
        let class = self.occupied.trailing_zeros() as usize;
        let q = &mut self.queues[class];
        let qp = q.pop_front().expect("occupied bit set on an empty class");
        if q.is_empty() {
            self.occupied &= !(1 << class);
        }
        self.queued_bytes -= qp.pkt.size as u64;
        Some(qp)
    }
}

/// Dynamic Thresholds α of every switch's shared buffer: a queue may
/// hold up to the free pool (the common default; Broadcom's DT exposes
/// powers of two around 1).
const DT_ALPHA: f64 = 1.0;

/// Per-switch configuration.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Shared buffer pool size in bytes.
    pub buffer_bytes: u64,
    /// Append INT metadata on dequeue of data packets.
    pub int_enabled: bool,
    /// RED/ECN marking, if any.
    pub ecn: Option<EcnConfig>,
    /// PFC thresholds, if lossless operation is desired.
    pub pfc: Option<PfcConfig>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            // Tofino-proportioned default for a ~1 Tbps ToR: the paper
            // sizes buffers by the bandwidth-buffer ratio of Tofino
            // (~22 MB per 3.2 Tbps ≈ 6.9 KB per Gbps).
            buffer_bytes: 7_000_000,
            int_enabled: true,
            ecn: None,
            pfc: None,
        }
    }
}

/// Where a switch's decisions go, the moment they are made. The engine's
/// implementor schedules the resulting events at once, and an event's
/// insertion sequence number is assigned when it is scheduled — so the
/// *order* of calls into the sink is simulation behaviour, not style:
///
/// * inside `try_transmit`, the ingress port's PFC re-evaluation comes
///   **before** the transmit;
/// * in `receive`, the final PFC re-evaluation of the ingress port comes
///   **after** any transmit the packet started;
/// * a received PFC frame is recycled **before** the port it resumes
///   transmits.
///
/// `tests/dispatch_golden.rs` pins that order.
pub(crate) trait Sink {
    /// `pkt` starts serializing on `port`: the port is free again after
    /// `ser`, and the packet reaches the far end of `wire` one
    /// propagation delay later.
    fn transmit(&mut self, port: PortId, pkt: Box<Packet>, ser: Tick, wire: &Link);
    /// Send a PFC frame out of `port` (bypasses queues; propagation delay
    /// only — control frames preempt data on real hardware).
    fn pfc(&mut self, port: PortId, wire: &Link, pause: bool);
    /// The switch consumed `pkt`: a PFC frame, an admission or a routing
    /// drop.
    fn recycle(&mut self, pkt: Box<Packet>);
}

/// The stock shared-buffer switch.
pub struct Switch {
    /// Node id.
    pub id: NodeId,
    pub(crate) ports: Vec<SwitchPort>,
    pub(crate) shared: SharedBuffer,
    /// Route table, flat: `route_index[dst_node_raw_id]` is the
    /// `(offset, len)` of that destination's candidate egress ports (its
    /// ECMP set) in `route_ports`. `len == 0` = no route (drop + count).
    route_index: Vec<(u32, u32)>,
    route_ports: Vec<PortId>,
    cfg: SwitchConfig,
    mark_rng: MarkRng,
    /// Per-ingress-port buffered bytes (PFC accounting).
    ingress_bytes: Vec<u64>,
    /// Whether XOFF is currently asserted towards each ingress peer.
    xoff_sent: Vec<bool>,
    /// Packets dropped because no route existed.
    pub(crate) no_route_drops: u64,
    /// Total packets forwarded.
    pub(crate) forwarded: u64,
}

impl Switch {
    /// Create a switch; ports are added with [`Switch::add_port`].
    pub fn new(id: NodeId, cfg: SwitchConfig) -> Self {
        if let Some(p) = &cfg.pfc {
            p.validate().expect("invalid PFC config");
        }
        Switch {
            id,
            ports: Vec::new(),
            shared: SharedBuffer::new(cfg.buffer_bytes, DT_ALPHA),
            route_index: Vec::new(),
            route_ports: Vec::new(),
            cfg,
            mark_rng: MarkRng::new(0xECD0_0000 ^ id.0 as u64),
            ingress_bytes: Vec::new(),
            xoff_sent: Vec::new(),
            no_route_drops: 0,
            forwarded: 0,
        }
    }

    /// Add an egress port onto `wire`; returns the port id. Port indices
    /// pair up across a cable: if A reaches B via A.p3, then B reaches A
    /// via B.p_k and both ends agree (the topology builder maintains
    /// this), which is what lets PFC frames go "back where the traffic
    /// came from" by egressing the ingress port index.
    pub fn add_port(&mut self, wire: Link) -> PortId {
        let id = PortId::next(self.id, self.ports.len());
        self.ports.push(SwitchPort::new(wire));
        self.ingress_bytes.push(0);
        self.xoff_sent.push(false);
        id
    }

    /// Arena-build the route table for a network of `num_nodes` nodes:
    /// every destination starts with an empty ECMP set (= no route).
    /// [`crate::engine::NetworkBuilder::build`] calls this once, when
    /// the final node count is known; after that, `set_route` is a
    /// bounds-checked store and [`Switch::route_for`] a plain index —
    /// no `resize_with` growth anywhere near the forwarding path.
    pub fn init_routes(&mut self, num_nodes: usize) {
        debug_assert!(
            self.route_index.len() <= num_nodes,
            "route table already larger than the network"
        );
        self.route_index.resize(num_nodes, (0, 0));
    }

    /// Set the ECMP port set for a destination node. The destination
    /// must be a node of the built network (see [`Switch::init_routes`])
    /// and every port one this switch has: a mis-built topology fails
    /// here, not on the first packet.
    pub fn set_route(&mut self, dst: NodeId, ports: Vec<PortId>) {
        let idx = dst.index();
        assert!(
            idx < self.route_index.len(),
            "set_route({dst}): destination outside the built network ({} nodes)",
            self.route_index.len()
        );
        for p in &ports {
            assert!(
                p.index() < self.ports.len(),
                "set_route({dst}) on switch {}: no port {p} ({} ports)",
                self.id,
                self.ports.len()
            );
        }
        // A set that fits the slot it replaces is written over it; a
        // larger one goes to the end of the table.
        let (offset, len) = &mut self.route_index[idx];
        if ports.len() > *len as usize {
            *offset = self.route_ports.len() as u32;
            self.route_ports.extend_from_slice(&ports);
        } else {
            let at = *offset as usize;
            self.route_ports[at..at + ports.len()].copy_from_slice(&ports);
        }
        *len = ports.len() as u32;
    }

    /// Immutable port access.
    pub fn port(&self, p: PortId) -> &SwitchPort {
        &self.ports[p.index()]
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Shared-buffer occupancy in bytes.
    pub fn buffer_used(&self) -> u64 {
        self.shared.used()
    }

    /// Total drops (admission + routing).
    pub fn total_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum::<u64>() + self.no_route_drops
    }

    /// Packets forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Select the egress port for a packet via ECMP on (flow, dst).
    pub(crate) fn route_for(&self, pkt: &Packet) -> Option<PortId> {
        let &(offset, len) = self.route_index.get(pkt.dst.index())?;
        let pick = match len {
            0 => return None,
            1 => 0,
            n => {
                let h = mix64(pkt.flow.0 ^ (pkt.dst.0 as u64) << 32 ^ (self.id.0 as u64) << 48);
                (h % n as u64) as usize
            }
        };
        Some(self.route_ports[offset as usize + pick])
    }

    /// Handle a packet arriving on `ingress` at `now`; transmissions, PFC
    /// frames and consumed packets (PFC frames, admission and routing
    /// drops) go to `out` as they are decided (see [`Sink`]).
    pub(crate) fn receive(
        &mut self,
        ingress: PortId,
        mut pkt: Box<Packet>,
        now: Tick,
        out: &mut impl Sink,
    ) {
        if let PacketKind::Pfc { pause } = pkt.kind {
            // Pause/resume our egress port facing the sender.
            out.recycle(pkt);
            let port = &mut self.ports[ingress.index()];
            port.paused = pause;
            if !pause && !port.tx.busy {
                self.try_transmit(ingress, now, out);
            }
            return;
        }

        let Some(egress) = self.route_for(&pkt) else {
            self.no_route_drops += 1;
            out.recycle(pkt);
            return;
        };
        let port = &mut self.ports[egress.index()];

        // ECN marking on the instantaneous egress queue at enqueue.
        if pkt.ecn_capable {
            if let Some(ecn) = &self.cfg.ecn {
                let p = ecn.mark_probability(port.queued_bytes);
                if self.mark_rng.chance(p) {
                    pkt.ecn_ce = true;
                }
            }
        }

        // Shared-buffer admission: Dynamic Thresholds for lossy operation;
        // with PFC the ingress pause thresholds bound occupancy and only
        // the hard pool capacity backstops (lossless-pool semantics).
        let size = pkt.size as u64;
        let admitted = if self.cfg.pfc.is_some() {
            self.shared.try_admit_pool_only(size)
        } else {
            self.shared.try_admit(port.queued_bytes, size)
        };
        if !admitted {
            port.drops += 1;
            out.recycle(pkt);
            return;
        }

        // PFC ingress accounting.
        if self.cfg.pfc.is_some() {
            self.ingress_bytes[ingress.index()] += size;
        }

        let class = (pkt.priority as usize).min(NUM_PRIORITIES - 1);
        port.push(class, QueuedPacket { pkt, ingress });
        self.forwarded += 1;

        if !port.tx.busy && !port.paused {
            self.try_transmit(egress, now, out);
        }
        self.update_pfc(ingress, out);
    }

    /// A transmission on `port` completed.
    pub(crate) fn tx_done(&mut self, port: PortId, now: Tick, out: &mut impl Sink) {
        let p = &mut self.ports[port.index()];
        p.tx.busy = false;
        if !p.paused {
            self.try_transmit(port, now, out);
        }
    }

    /// Dequeue the next packet on `port` (if any) and put it on the wire.
    /// The INT record carries the queue length *excluding* the packet now
    /// being serialized.
    fn try_transmit(&mut self, port_id: PortId, now: Tick, out: &mut impl Sink) {
        let port = &mut self.ports[port_id.index()];
        let Some(QueuedPacket { mut pkt, ingress }) = port.pop_highest() else {
            return;
        };
        let size = pkt.size as u64;
        self.shared.release(size);
        let int_qlen = self.cfg.int_enabled.then_some(port.queued_bytes);
        let ser = port.tx.begin(&mut pkt, self.id, port_id, now, int_qlen);
        let wire = *port.tx.wire();
        if self.cfg.pfc.is_some() {
            let level = &mut self.ingress_bytes[ingress.index()];
            let left = level.checked_sub(size);
            debug_assert!(
                left.is_some(),
                "switch {}: ingress {ingress} releases {size} B of {level} held",
                self.id
            );
            *level = left.unwrap_or(0);
            self.update_pfc(ingress, out);
        }
        out.transmit(port_id, pkt, ser, &wire);
    }

    /// Re-evaluate PFC state for one ingress port.
    fn update_pfc(&mut self, ingress: PortId, out: &mut impl Sink) {
        let Some(pfc) = &self.cfg.pfc else { return };
        let i = ingress.index();
        let level = self.ingress_bytes[i];
        let pause = if !self.xoff_sent[i] && level > pfc.xoff_bytes {
            true
        } else if self.xoff_sent[i] && level < pfc.xon_bytes {
            false
        } else {
            return;
        };
        self.xoff_sent[i] = pause;
        out.pfc(ingress, self.ports[i].tx.wire(), pause);
    }

    /// Packets waiting in this switch's queues.
    pub(crate) fn queued_packets(&self) -> usize {
        let queues = self.ports.iter().flat_map(|p| &p.queues);
        queues.map(VecDeque::len).sum()
    }

    /// This switch's share of [`crate::engine::Simulator::audit`]: every
    /// byte counter against the queued packets it summarizes, and — when
    /// the simulation is `idle` — nothing left busy, paused or queued.
    pub(crate) fn audit(&self, idle: bool) -> Result<(), String> {
        let id = self.id;
        let mut from = vec![0u64; self.ports.len()];
        let mut total = 0;
        for (p, port) in self.ports.iter().enumerate() {
            let mut bytes = 0;
            for (class, q) in port.queues.iter().enumerate() {
                if (port.occupied >> class & 1 == 1) == q.is_empty() {
                    return Err(format!(
                        "switch {id} port {p}: class mask {:#010b} but class {class} holds {} packets",
                        port.occupied,
                        q.len()
                    ));
                }
                for qp in q {
                    bytes += qp.pkt.size as u64;
                    from[qp.ingress.index()] += qp.pkt.size as u64;
                }
            }
            port.tx
                .audit(port.paused, port.queued_bytes, bytes, idle)
                .map_err(|e| format!("switch {id} port {p}: {e}"))?;
            total += bytes;
        }
        if total != self.shared.used() {
            return Err(format!(
                "switch {id}: shared buffer holds {} B but {total} B are queued",
                self.shared.used()
            ));
        }
        match &self.cfg.pfc {
            // Ingress accounting exists only under PFC.
            None => from.fill(0),
            Some(pfc) => {
                for (i, &asserted) in self.xoff_sent.iter().enumerate() {
                    let level = self.ingress_bytes[i];
                    if asserted && (idle || level < pfc.xon_bytes) {
                        return Err(format!(
                            "switch {id} ingress {i}: XOFF asserted at {level} B \
                             (xon = {} B, idle = {idle})",
                            pfc.xon_bytes
                        ));
                    }
                    if !asserted && level > pfc.xoff_bytes {
                        return Err(format!(
                            "switch {id} ingress {i}: {level} B held above xoff = {} B, no XOFF sent",
                            pfc.xoff_bytes
                        ));
                    }
                }
            }
        }
        if from != self.ingress_bytes {
            return Err(format!(
                "switch {id}: ingress_bytes {:?} but the queues hold {from:?}",
                self.ingress_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use powertcp_core::Bandwidth;
    use proptest::prelude::*;

    /// What a switch decided, in call order: the unit tests' [`Sink`].
    enum SwitchEmit {
        Transmit { port: PortId, pkt: Box<Packet> },
        Pfc { port: PortId, pause: bool },
    }

    impl Sink for Vec<SwitchEmit> {
        fn transmit(&mut self, port: PortId, pkt: Box<Packet>, _ser: Tick, _wire: &Link) {
            self.push(SwitchEmit::Transmit { port, pkt });
        }
        fn pfc(&mut self, port: PortId, _wire: &Link, pause: bool) {
            self.push(SwitchEmit::Pfc { port, pause });
        }
        fn recycle(&mut self, _pkt: Box<Packet>) {}
    }

    fn mk_switch(ecn: Option<EcnConfig>, pfc: Option<PfcConfig>) -> Switch {
        let cfg = SwitchConfig {
            buffer_bytes: 100_000,
            int_enabled: true,
            ecn,
            pfc,
        };
        let mut sw = Switch::new(NodeId(0), cfg);
        for l in 0..2 {
            let wire = Link {
                bandwidth: Bandwidth::gbps(25),
                delay: Tick::from_micros(1),
                dst: NodeId(10 + l),
                dst_port: PortId(0),
            };
            sw.add_port(wire);
        }
        // Arena-sized as NetworkBuilder::build would for an 11-node
        // network (big enough that NodeId(77) below stays routeless).
        sw.init_routes(11);
        sw.set_route(NodeId(10), vec![PortId(1)]);
        sw
    }

    fn data_to(dst: NodeId, size: u32) -> Box<Packet> {
        let mut p = Packet::data(FlowId(1), NodeId(9), dst, 0, size, false, Tick::ZERO);
        p.size = size;
        Box::new(p)
    }

    #[test]
    fn forwards_to_routed_port() {
        let mut sw = mk_switch(None, None);
        let mut out = Vec::new();
        sw.receive(PortId(0), data_to(NodeId(10), 1000), Tick::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        match &out[0] {
            SwitchEmit::Transmit { port, .. } => assert_eq!(*port, PortId(1)),
            _ => panic!("expected transmit"),
        }
        assert_eq!(sw.forwarded(), 1);
        // The packet is in flight, not queued.
        assert_eq!(sw.port(PortId(1)).queued_bytes(), 0);
        assert!(sw.port(PortId(1)).tx().busy);
    }

    #[test]
    fn unrouted_packet_is_counted_and_dropped() {
        let mut sw = mk_switch(None, None);
        let mut out = Vec::new();
        sw.receive(PortId(0), data_to(NodeId(77), 1000), Tick::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(sw.no_route_drops, 1);
        assert_eq!(sw.total_drops(), 1);
    }

    #[test]
    fn busy_port_queues_then_drains_in_fifo() {
        let mut sw = mk_switch(None, None);
        let mut out = Vec::new();
        for _ in 0..3 {
            sw.receive(PortId(0), data_to(NodeId(10), 1000), Tick::ZERO, &mut out);
        }
        // First packet transmits immediately, two queued.
        assert_eq!(out.len(), 1);
        assert_eq!(sw.port(PortId(1)).queued_bytes(), 2000);
        assert_eq!(sw.buffer_used(), 2000);
        out.clear();
        sw.tx_done(PortId(1), Tick::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(sw.port(PortId(1)).queued_bytes(), 1000);
        assert_eq!(sw.buffer_used(), 1000);
    }

    #[test]
    fn strict_priority_dequeues_high_first() {
        let mut sw = mk_switch(None, None);
        let mut out = Vec::new();
        // Fill the port with a low-priority packet (starts transmitting),
        // then queue low and high; high must come out first on tx_done.
        sw.receive(PortId(0), data_to(NodeId(10), 1000), Tick::ZERO, &mut out);
        let mut low = data_to(NodeId(10), 1000);
        low.priority = 7;
        low.flow = FlowId(100);
        sw.receive(PortId(0), low, Tick::ZERO, &mut out);
        let mut high = data_to(NodeId(10), 1000);
        high.priority = 0;
        high.flow = FlowId(200);
        sw.receive(PortId(0), high, Tick::ZERO, &mut out);
        out.clear();
        sw.tx_done(PortId(1), Tick::ZERO, &mut out);
        match &out[0] {
            SwitchEmit::Transmit { pkt, .. } => assert_eq!(pkt.flow, FlowId(200)),
            _ => panic!(),
        }
    }

    #[test]
    fn buffer_overflow_drops_and_counts() {
        let mut sw = mk_switch(None, None);
        let mut out = Vec::new();
        // Pool = 100 KB; the first packet goes straight to the wire
        // (never admitted to the pool), so 100 queued packets of 1 KB fill
        // the pool fully; #102 must be refused by DT before that.
        let mut drops = 0;
        for _ in 0..130 {
            sw.receive(PortId(0), data_to(NodeId(10), 1000), Tick::ZERO, &mut out);
        }
        drops += sw.port(PortId(1)).drops();
        assert!(drops > 0, "expected DT to refuse some packets");
        assert!(sw.buffer_used() <= 100_000);
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let ecn = EcnConfig {
            kmin_bytes: 5_000,
            kmax_bytes: 5_000,
            pmax: 1.0,
        };
        let mut sw = mk_switch(Some(ecn), None);
        let mut out = Vec::new();
        // 20 packets: first transmits, next 5 fill to threshold unmarked,
        // the rest (queued at >= 5KB occupancy) must be marked.
        for _ in 0..20 {
            sw.receive(PortId(0), data_to(NodeId(10), 1000), Tick::ZERO, &mut out);
        }
        let port = &sw.ports[1];
        let marked: usize = port.queues[7].iter().filter(|q| q.pkt.ecn_ce).count();
        let unmarked: usize = port.queues[7].iter().filter(|q| !q.pkt.ecn_ce).count();
        assert_eq!(unmarked, 5, "packets enqueued below K stay unmarked");
        assert_eq!(marked, 14);
    }

    #[test]
    fn pfc_asserts_xoff_and_xon() {
        let pfc = PfcConfig {
            xoff_bytes: 3_000,
            xon_bytes: 1_500,
        };
        let mut sw = mk_switch(None, Some(pfc));
        let mut out = Vec::new();
        for _ in 0..5 {
            sw.receive(PortId(0), data_to(NodeId(10), 1000), Tick::ZERO, &mut out);
        }
        // 1 in flight + 4 queued = 4000 ingress bytes > xoff.
        let xoffs: Vec<_> = out
            .iter()
            .filter(|e| matches!(e, SwitchEmit::Pfc { pause: true, .. }))
            .collect();
        assert_eq!(xoffs.len(), 1, "exactly one XOFF");
        out.clear();
        // Drain: each tx_done dequeues one packet and decrements ingress
        // accounting; XON must fire when below 1500.
        for _ in 0..4 {
            sw.tx_done(PortId(1), Tick::ZERO, &mut out);
        }
        let xons: Vec<_> = out
            .iter()
            .filter(|e| matches!(e, SwitchEmit::Pfc { pause: false, .. }))
            .collect();
        assert_eq!(xons.len(), 1, "exactly one XON");
        // The third dequeue takes the level to 1000: the XON it triggers
        // goes out before that packet's own transmission (see `Sink`).
        assert_eq!(out.len(), 5);
        assert!(matches!(
            out[2],
            SwitchEmit::Pfc {
                port: PortId(0),
                pause: false
            }
        ));
        assert!(matches!(out[3], SwitchEmit::Transmit { .. }));
    }

    #[test]
    fn pause_frame_pauses_egress() {
        let mut sw = mk_switch(None, None);
        let mut out = Vec::new();
        let pause = Box::new(Packet {
            kind: crate::packet::PacketKind::Pfc { pause: true },
            ..*data_to(NodeId(10), 64)
        });
        // Pause arrives on port 1 (the egress toward NodeId(10)).
        sw.receive(PortId(1), pause, Tick::ZERO, &mut out);
        assert!(sw.port(PortId(1)).is_paused());
        // Data for that port queues but does not transmit.
        sw.receive(PortId(0), data_to(NodeId(10), 1000), Tick::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(sw.port(PortId(1)).queued_bytes(), 1000);
        // Resume: transmission starts.
        let resume = Box::new(Packet {
            kind: crate::packet::PacketKind::Pfc { pause: false },
            ..*data_to(NodeId(10), 64)
        });
        sw.receive(PortId(1), resume, Tick::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert!(!sw.port(PortId(1)).is_paused());
    }

    #[test]
    fn ecmp_spreads_flows_but_keeps_flow_affinity() {
        let mut sw = mk_switch(None, None);
        sw.set_route(NodeId(10), vec![PortId(0), PortId(1)]);
        let mut seen = [0u32; 2];
        for f in 0..200u64 {
            let mut p = data_to(NodeId(10), 1000);
            p.flow = FlowId(f);
            let port = sw.route_for(&p).unwrap();
            seen[port.index()] += 1;
            // Affinity: same flow always hashes to the same port.
            assert_eq!(sw.route_for(&p), Some(port));
        }
        assert!(seen[0] > 50 && seen[1] > 50, "ECMP imbalance: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "set_route(n10) on switch n0: no port p2 (2 ports)")]
    fn set_route_rejects_a_port_the_switch_lacks() {
        let mut sw = mk_switch(None, None);
        sw.set_route(NodeId(10), vec![PortId(1), PortId(2)]);
    }

    /// The dequeue this one replaced: scan the classes, highest first.
    fn first_non_empty(port: &SwitchPort) -> Option<usize> {
        port.queues.iter().position(|q| !q.is_empty())
    }

    /// The route table this one replaced: one `Vec` per destination,
    /// `mix64 % n` over it.
    struct NestedRoutes {
        id: NodeId,
        routes: Vec<Vec<PortId>>,
    }

    impl NestedRoutes {
        fn route_for(&self, pkt: &Packet) -> Option<PortId> {
            let ports = self.routes.get(pkt.dst.index())?;
            match ports.len() {
                0 => None,
                1 => Some(ports[0]),
                n => {
                    let h = mix64(pkt.flow.0 ^ (pkt.dst.0 as u64) << 32 ^ (self.id.0 as u64) << 48);
                    Some(ports[(h % n as u64) as usize])
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `pop_highest` through the class mask dequeues exactly what the
        /// first-non-empty scan would, and the mask marks exactly the
        /// non-empty classes after every step.
        #[test]
        fn pop_highest_matches_the_class_scan(
            ops in prop::collection::vec((0u8..3, 0usize..NUM_PRIORITIES, 1u32..1500), 1..300),
        ) {
            let wire = Link {
                bandwidth: Bandwidth::gbps(25),
                delay: Tick::ZERO,
                dst: NodeId(1),
                dst_port: PortId(0),
            };
            let mut port = SwitchPort::new(wire);
            let mut next_flow = 0;
            for (op, class, size) in ops {
                if op > 0 {
                    let mut pkt = data_to(NodeId(1), size);
                    pkt.flow = FlowId(next_flow);
                    next_flow += 1;
                    port.push(class, QueuedPacket { pkt, ingress: PortId(0) });
                } else {
                    let want = first_non_empty(&port)
                        .map(|c| port.queues[c].front().expect("non-empty").pkt.flow);
                    prop_assert_eq!(port.pop_highest().map(|qp| qp.pkt.flow), want);
                }
                for (c, q) in port.queues.iter().enumerate() {
                    prop_assert_eq!(port.occupied >> c & 1 == 1, !q.is_empty(), "class {}", c);
                }
                let queued: u64 = port.queues.iter().flatten().map(|qp| qp.pkt.size as u64).sum();
                prop_assert_eq!(port.queued_bytes, queued);
            }
            // Drain: the scan and the mask agree down to the last packet.
            while let Some(c) = first_non_empty(&port) {
                let want = port.queues[c].front().expect("non-empty").pkt.flow;
                prop_assert_eq!(port.pop_highest().map(|qp| qp.pkt.flow), Some(want));
            }
            prop_assert!(port.pop_highest().is_none());
            prop_assert_eq!((port.occupied, port.queued_bytes), (0, 0));
        }

        /// `route_for` over the flat table returns exactly what the nested
        /// table returned, after every `set_route` of an arbitrary
        /// sequence: overwrites that shrink, grow and empty a set,
        /// single-port and ECMP sets, destinations first set after the
        /// port array has grown past others' slots.
        #[test]
        fn flat_route_table_matches_the_nested_one(
            (nodes, sets) in (1usize..24).prop_flat_map(|nodes| (
                Just(nodes),
                prop::collection::vec(
                    (0..nodes, prop::collection::vec(0u16..6, 0..7)),
                    1..60,
                ),
            )),
        ) {
            let mut sw = Switch::new(NodeId(3), SwitchConfig::default());
            for l in 0..6 {
                let wire = Link {
                    bandwidth: Bandwidth::gbps(100),
                    delay: Tick::ZERO,
                    dst: NodeId(l),
                    dst_port: PortId(0),
                };
                sw.add_port(wire);
            }
            sw.init_routes(nodes);
            let mut nested = NestedRoutes { id: sw.id, routes: vec![Vec::new(); nodes] };
            for (dst, ports) in sets {
                let ports: Vec<PortId> = ports.into_iter().map(PortId).collect();
                nested.routes[dst] = ports.clone();
                sw.set_route(NodeId(dst as u32), ports);
                // One node past the table too: no route, not a panic.
                for d in 0..=nodes as u32 {
                    for flow in 0..8u64 {
                        let mut p = data_to(NodeId(d), 100);
                        p.flow = FlowId(flow.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                        prop_assert_eq!(sw.route_for(&p), nested.route_for(&p), "dst {}", d);
                    }
                }
            }
        }
    }
}
