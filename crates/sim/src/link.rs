//! Simplex links and the egress ports that own them.
//!
//! Every connection between two nodes is a pair of simplex links (one per
//! direction). A link has a configured bandwidth (serialization) and a
//! propagation delay and records where packets land. It belongs to the
//! [`Egress`] that transmits onto it — a switch port, a host NIC or a
//! custom node's port — and never changes once the network is built, so
//! there is no table of links to look one up in.

use crate::ids::{NodeId, PortId};
use crate::packet::Packet;
use powertcp_core::time::PS_PER_SEC;
use powertcp_core::{Bandwidth, IntHop, Tick, MAX_INT_HOPS};
use std::num::NonZeroU64;

/// One direction of a cable.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Serialization bandwidth.
    pub bandwidth: Bandwidth,
    /// Propagation delay.
    pub delay: Tick,
    /// Node at the far end.
    pub dst: NodeId,
    /// Ingress port at the far end.
    pub dst_port: PortId,
}

/// The transmit half of every port in the network: the wire it drives
/// and its serialization state. Queueing in front of it is the owning
/// node's business (strict-priority classes on a switch, a FIFO on a host
/// NIC, whatever a custom node keeps).
#[derive(Clone, Copy, Debug)]
pub struct Egress {
    /// The wire this port transmits onto.
    wire: Link,
    /// The wire's picoseconds per byte, when that is a whole number:
    /// true of every rate that divides 8·10¹² bps, which is every rate
    /// the builtins use. Set with `wire`, in [`Egress::new`] only.
    ps_per_byte: Option<NonZeroU64>,
    /// A packet is being serialized.
    pub busy: bool,
    /// Cumulative bytes transmitted (the INT `txBytes` counter).
    pub tx_bytes: u64,
}

impl Egress {
    /// An idle port onto `wire`.
    pub fn new(wire: Link) -> Self {
        let ps_per_byte = match wire.bandwidth.bps() {
            0 => None,
            bps if (8 * PS_PER_SEC).is_multiple_of(bps) => NonZeroU64::new(8 * PS_PER_SEC / bps),
            _ => None,
        };
        Egress {
            wire,
            ps_per_byte,
            busy: false,
            tx_bytes: 0,
        }
    }

    /// The wire this port transmits onto.
    pub fn wire(&self) -> &Link {
        &self.wire
    }

    /// Time to serialize `bytes` onto the wire: exactly
    /// [`Bandwidth::tx_time`], as one multiply when the wire's rate has a
    /// whole number of picoseconds per byte (and the product fits).
    #[inline]
    pub fn ser_time(&self, bytes: u64) -> Tick {
        match self.ps_per_byte.and_then(|r| bytes.checked_mul(r.get())) {
            Some(ps) => Tick::from_ps(ps),
            None => self.wire.bandwidth.tx_time(bytes),
        }
    }

    /// Start serializing `pkt` out of `node`'s `port` at `now`: mark the
    /// port busy, count the bytes and — given the queue length the packet
    /// leaves behind, on a packet that collects INT — stamp the hop's
    /// `(qlen, ts, txBytes, b)` record, at transmission-scheduling time
    /// as the paper specifies. Returns the serialization time.
    #[inline]
    pub fn begin(
        &mut self,
        pkt: &mut Packet,
        node: NodeId,
        port: PortId,
        now: Tick,
        int_qlen: Option<u64>,
    ) -> Tick {
        debug_assert!(!self.busy, "{node} {port}: transmit on a busy port");
        let size = pkt.size as u64;
        self.busy = true;
        self.tx_bytes += size;
        if let Some(qlen_bytes) = int_qlen {
            if pkt.int_enable && pkt.kind.collects_int() {
                let stamped = pkt.int.push(IntHop {
                    qlen_bytes,
                    ts: now,
                    tx_bytes: self.tx_bytes,
                    bandwidth: self.wire.bandwidth,
                });
                debug_assert!(
                    stamped,
                    "{node} {port}: INT stack full ({MAX_INT_HOPS} hops): a route deeper than the stack"
                );
            }
        }
        self.ser_time(size)
    }

    /// This port's share of [`crate::engine::Simulator::audit`], whatever
    /// queues in front of it: the owner's running count of waiting bytes
    /// against the `queued` bytes found there, nothing waiting on a port
    /// that is neither busy nor `paused`, and — when the simulation is
    /// `idle` — nothing left busy or paused.
    pub(crate) fn audit(
        &self,
        paused: bool,
        counted: u64,
        queued: u64,
        idle: bool,
    ) -> Result<(), String> {
        let busy = self.busy;
        if counted != queued {
            Err(format!(
                "counts {counted} B waiting but {queued} B are queued"
            ))
        } else if queued > 0 && !busy && !paused {
            Err(format!("{queued} B queued on an idle, unpaused port"))
        } else if idle && (busy || paused) {
            Err(format!(
                "busy = {busy}, paused = {paused} with no event pending"
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;

    fn wire(bandwidth: Bandwidth) -> Link {
        Link {
            bandwidth,
            delay: Tick::from_micros(1),
            dst: NodeId(1),
            dst_port: PortId(0),
        }
    }

    fn egress() -> Egress {
        Egress::new(wire(Bandwidth::gbps(100)))
    }

    /// The multiply is `tx_time` exactly: at every builtin rate (the
    /// multiply), at rates with no whole number of ps per byte (the
    /// divide), for every packet size and the largest `u32`, where a slow
    /// exact rate overflows the multiply and falls back to the divide.
    #[test]
    fn ser_time_is_tx_time() {
        let builtin = [10_000, 12_500, 25_000, 40_000, 50_000, 100_000, 400_000];
        let exact = builtin.map(Bandwidth::mbps);
        let slow = [1, 1_000].map(Bandwidth::from_bps);
        let inexact = [3, 33_300_000_000].map(Bandwidth::from_bps);
        for bw in exact.into_iter().chain(slow).chain(inexact) {
            let e = Egress::new(wire(bw));
            let divides = inexact.contains(&bw);
            assert_eq!(e.ps_per_byte.is_none(), divides, "{bw}");
            for bytes in (0..=9000).chain([u32::MAX as u64]) {
                assert_eq!(e.ser_time(bytes), bw.tx_time(bytes), "{bytes} B at {bw}");
            }
        }
        for bw in slow {
            let r = Egress::new(wire(bw)).ps_per_byte.expect("exact").get();
            assert_eq!(
                r.checked_mul(u32::MAX as u64),
                None,
                "{bw} overflows the multiply"
            );
        }
    }

    #[test]
    #[should_panic(expected = "tx_time on zero-bandwidth link")]
    fn ser_time_on_a_zero_bandwidth_wire_panics() {
        Egress::new(wire(Bandwidth::ZERO)).ser_time(1);
    }

    /// A host NIC starts on `Host::new`'s zero-bandwidth loopback; the
    /// wire it is cabled to replaces the per-byte time along with it.
    #[test]
    fn a_host_nic_multiplies_at_the_rate_it_is_cabled_to() {
        use crate::node::{Host, Node, NullEndpoint};
        let nic = |node: &Node| match node {
            Node::Host(h) => h.nic.tx,
            _ => unreachable!(),
        };
        let mut node = Node::Host(Host::new(NodeId(0), Box::new(NullEndpoint)));
        assert_eq!(nic(&node).ps_per_byte, None);
        node.attach(wire(Bandwidth::gbps(25)));
        let tx = nic(&node);
        assert_eq!(tx.ps_per_byte.map(NonZeroU64::get), Some(320));
        assert_eq!(tx.ser_time(1000), Tick::from_nanos(320));
    }

    #[test]
    fn begin_counts_bytes_and_returns_the_serialization_time() {
        let mut e = egress();
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1000, false, Tick::ZERO);
        // 1000 B at 100 G = 80 ns; no queue length given, no INT record.
        let ser = e.begin(&mut p, NodeId(7), PortId(3), Tick::from_nanos(5), None);
        assert_eq!(ser, Tick::from_nanos(80));
        assert!(e.busy);
        assert_eq!(e.tx_bytes, 1000);
        assert!(p.int.is_empty());
    }

    #[test]
    fn begin_stamps_int_only_on_packets_that_collect_it() {
        let mut e = egress();
        let now = Tick::from_nanos(5);
        let mut data = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1000, false, Tick::ZERO);
        e.begin(&mut data, NodeId(7), PortId(3), now, Some(4_000));
        assert_eq!(
            data.int.hops(),
            [IntHop {
                qlen_bytes: 4_000,
                ts: now,
                tx_bytes: 1000,
                bandwidth: Bandwidth::gbps(100),
            }]
        );

        e.busy = false;
        let mut ack = data.clone();
        ack.into_ack(1000, false, now);
        let echoed = ack.int.len();
        e.begin(&mut ack, NodeId(7), PortId(3), now, Some(0));
        assert_eq!(ack.int.len(), echoed, "control packets collect nothing");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "INT stack full")]
    fn a_refused_int_push_is_loud() {
        let mut e = egress();
        let mut data = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1000, false, Tick::ZERO);
        for _ in 0..=MAX_INT_HOPS {
            e.busy = false;
            e.begin(&mut data, NodeId(7), PortId(3), Tick::ZERO, Some(0));
        }
    }
}
