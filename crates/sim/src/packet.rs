//! Packet model.
//!
//! Packets are modelled structurally (typed header fields, no byte
//! buffers): the simulator studies congestion dynamics, not wire formats.
//! On-wire size is carried explicitly so serialization and queueing delays
//! are exact. Header overheads are ignored uniformly for every algorithm
//! (data payload == on-wire bytes), which preserves every comparative shape
//! the paper reports.

use crate::ids::{FlowId, NodeId};
use powertcp_core::{IntHeader, Tick};

/// Number of strict-priority queues per switch port (HOMA uses all eight;
/// everything else defaults to a single best-effort class).
pub const NUM_PRIORITIES: usize = 8;

/// Default on-wire data packet size (payload MTU), matching the HPCC/
/// PowerTCP simulation setups (1000 B packets).
pub const DEFAULT_MTU: u32 = 1000;

/// On-wire size of an ACK/grant/control packet.
pub const CTRL_PKT_BYTES: u32 = 64;

/// ACK payload: per-packet cumulative acknowledgment with echoed
/// telemetry. The echoed INT stack is **not** here: an ACK carries it in
/// the packet's own [`Packet::int`] field (dead weight for ACKs
/// otherwise, since switches never append to control packets), which is
/// what lets [`Packet::into_ack`] turn a data packet into its ACK
/// without copying the 168-byte header once per ACK.
#[derive(Clone, Copy, Debug)]
pub struct AckPayload {
    /// Next byte expected by the receiver (cumulative ACK).
    pub cum_ack: u64,
    /// Sequence number of the data packet that triggered this ACK.
    pub data_seq: u64,
    /// Receiver saw this packet out of order (go-back-N NACK semantics).
    pub nack: bool,
    /// Echo of the data packet's transmit timestamp (RTT measurement).
    pub echo_ts: Tick,
    /// Echo of the data packet's ECN CE mark.
    pub ecn_echo: bool,
}

/// HOMA grant payload (receiver-driven transport).
#[derive(Clone, Copy, Debug)]
pub struct GrantPayload {
    /// Byte offset up to which the sender may transmit.
    pub grant_offset: u64,
    /// Priority the granted (scheduled) packets must use.
    pub priority: u8,
}

/// What kind of packet this is.
#[derive(Clone, Debug)]
pub enum PacketKind {
    /// Transport data segment carrying `[seq, seq+len)` of the flow.
    Data {
        /// First byte carried.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
        /// Set on the segment that carries the flow's final byte.
        is_last: bool,
    },
    /// Acknowledgment for [`PacketKind::Data`].
    Ack(AckPayload),
    /// HOMA message data (both unscheduled and scheduled).
    HomaData {
        /// Byte offset within the message.
        offset: u64,
        /// Payload length.
        len: u32,
        /// Total message length (receivers learn it from the first packet).
        msg_len: u64,
        /// True for the blind first-RTT burst.
        unscheduled: bool,
    },
    /// HOMA grant.
    HomaGrant(GrantPayload),
    /// PFC pause/resume frame for the egress port facing the sender.
    Pfc {
        /// `true` = XOFF (pause), `false` = XON (resume).
        pause: bool,
    },
}

impl PacketKind {
    /// True for kinds that accumulate INT metadata (data path only; control
    /// packets are tiny and their queueing is irrelevant to the law).
    pub fn collects_int(&self) -> bool {
        matches!(self, PacketKind::Data { .. })
    }
}

/// A simulated packet.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow (or HOMA message) this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// On-wire size in bytes.
    pub size: u32,
    /// Strict priority class, 0 = highest.
    pub priority: u8,
    /// ECN-capable transport?
    pub ecn_capable: bool,
    /// Congestion Experienced mark.
    pub ecn_ce: bool,
    /// Whether switches should append INT metadata.
    pub int_enable: bool,
    /// Accumulated telemetry.
    pub int: IntHeader,
    /// Time the packet left the sender (echoed for RTT).
    pub sent_at: Tick,
    /// Payload-specific fields.
    pub kind: PacketKind,
}

impl Packet {
    /// Construct a transport data packet. Data defaults to the lowest
    /// strict-priority class (`NUM_PRIORITIES - 1`): ACKs ride class 0 and
    /// HOMA's scheduled/unscheduled classes sit in between. In homogeneous
    /// experiments every data packet shares the class, so the choice is
    /// inert there.
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        len: u32,
        is_last: bool,
        sent_at: Tick,
    ) -> Packet {
        Packet {
            flow,
            src,
            dst,
            size: len,
            priority: (NUM_PRIORITIES - 1) as u8,
            ecn_capable: true,
            ecn_ce: false,
            int_enable: true,
            int: IntHeader::new(),
            sent_at,
            kind: PacketKind::Data { seq, len, is_last },
        }
    }

    /// Construct the ACK for a data packet, echoing telemetry (the
    /// echoed INT stack rides the ACK's own `int` field — one copy here;
    /// the hot path uses the copy-free [`Packet::into_ack`] instead).
    pub fn ack_for(data: &Packet, cum_ack: u64, nack: bool, now: Tick) -> Packet {
        let mut ack = data.clone();
        ack.into_ack(cum_ack, nack, now);
        ack
    }

    /// Transform this data packet **in place** into its ACK: direction
    /// reversed, control size/priority, the accumulated INT stack left
    /// where it is as the echo. Receivers call this on the delivered
    /// `Box<Packet>` and send the same box back, so the per-ACK cost is
    /// a handful of scalar writes — no `IntHeader` copy (the stack never
    /// moves) and no box round-trip through the packet pool. Panics on a
    /// non-data packet.
    pub fn into_ack(&mut self, cum_ack: u64, nack: bool, now: Tick) {
        let seq = match &self.kind {
            PacketKind::Data { seq, .. } => *seq,
            _ => panic!("into_ack() requires a data packet"),
        };
        self.kind = PacketKind::Ack(AckPayload {
            cum_ack,
            data_seq: seq,
            nack,
            echo_ts: self.sent_at,
            ecn_echo: self.ecn_ce,
        });
        std::mem::swap(&mut self.src, &mut self.dst);
        self.size = CTRL_PKT_BYTES;
        // ACKs ride the highest class so feedback is never stuck behind
        // data (standard in DCN transports).
        self.priority = 0;
        self.ecn_capable = false;
        self.ecn_ce = false;
        self.int_enable = false;
        self.sent_at = now;
        // `self.int` is untouched: it IS the echo.
    }

    /// Bytes of transport payload carried (0 for control packets).
    pub fn payload_len(&self) -> u32 {
        match &self.kind {
            PacketKind::Data { len, .. } => *len,
            PacketKind::HomaData { len, .. } => *len,
            _ => 0,
        }
    }

    /// True if this is a PFC frame (processed by switch control logic,
    /// never queued).
    pub fn is_pfc(&self) -> bool {
        matches!(self.kind, PacketKind::Pfc { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powertcp_core::{Bandwidth, IntHop};
    use std::mem::size_of;

    /// Every queued packet pays for the whole INT stack, 168 of these
    /// bytes at 5 hops of 32. A field or a slot that grows it shows here
    /// first.
    #[test]
    fn a_packet_fits_a_five_hop_int_stack() {
        assert_eq!(size_of::<IntHop>(), 32);
        assert_eq!(size_of::<IntHeader>(), 168);
        assert!(size_of::<Packet>() <= 232, "{}", size_of::<Packet>());
    }

    #[test]
    fn data_packet_defaults() {
        let p = Packet::data(
            FlowId(1),
            NodeId(2),
            NodeId(3),
            0,
            1000,
            false,
            Tick::from_micros(5),
        );
        assert_eq!(p.size, 1000);
        assert_eq!(p.payload_len(), 1000);
        assert!(p.kind.collects_int());
        assert!(!p.is_pfc());
    }

    #[test]
    fn ack_echoes_int_and_reverses_direction() {
        let mut d = Packet::data(
            FlowId(1),
            NodeId(2),
            NodeId(3),
            5000,
            1000,
            true,
            Tick::from_micros(5),
        );
        d.ecn_ce = true;
        d.int.push(IntHop {
            qlen_bytes: 777,
            ts: Tick::from_micros(6),
            tx_bytes: 1,
            bandwidth: Bandwidth::gbps(100),
        });
        let a = Packet::ack_for(&d, 6000, false, Tick::from_micros(7));
        assert_eq!(a.src, NodeId(3));
        assert_eq!(a.dst, NodeId(2));
        assert_eq!(a.size, CTRL_PKT_BYTES);
        match &a.kind {
            PacketKind::Ack(pl) => {
                assert_eq!(pl.cum_ack, 6000);
                assert_eq!(pl.data_seq, 5000);
                assert!(pl.ecn_echo);
                assert_eq!(pl.echo_ts, Tick::from_micros(5));
            }
            _ => panic!("wrong kind"),
        }
        // The echoed INT stack rides the ACK's own header field.
        assert_eq!(a.int.hops()[0].qlen_bytes, 777);
        assert!(!a.kind.collects_int());
        assert!(!a.ecn_ce, "the CE mark is echoed in the payload, not set");
    }

    #[test]
    fn into_ack_transforms_in_place_without_moving_the_int_stack() {
        let mut d = Packet::data(
            FlowId(9),
            NodeId(4),
            NodeId(5),
            2000,
            1000,
            false,
            Tick::from_micros(3),
        );
        d.int.push(IntHop {
            qlen_bytes: 555,
            ts: Tick::from_micros(4),
            tx_bytes: 7,
            bandwidth: Bandwidth::gbps(25),
        });
        let by_ref = Packet::ack_for(&d, 3000, true, Tick::from_micros(6));
        d.into_ack(3000, true, Tick::from_micros(6));
        // The in-place transform produces exactly what ack_for builds.
        assert_eq!(d.src, by_ref.src);
        assert_eq!(d.dst, by_ref.dst);
        assert_eq!(d.size, CTRL_PKT_BYTES);
        assert_eq!(d.priority, 0);
        assert!(!d.int_enable);
        assert_eq!(d.int.hops()[0].qlen_bytes, 555);
        match (&d.kind, &by_ref.kind) {
            (PacketKind::Ack(a), PacketKind::Ack(b)) => {
                assert_eq!(a.cum_ack, b.cum_ack);
                assert_eq!(a.data_seq, b.data_seq);
                assert_eq!(a.nack, b.nack);
                assert_eq!(a.echo_ts, b.echo_ts);
                assert_eq!(a.ecn_echo, b.ecn_echo);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    #[should_panic]
    fn ack_for_non_data_panics() {
        let d = Packet::data(FlowId(1), NodeId(2), NodeId(3), 0, 10, false, Tick::ZERO);
        let a = Packet::ack_for(&d, 10, false, Tick::ZERO);
        let _ = Packet::ack_for(&a, 10, false, Tick::ZERO);
    }
}
