//! The optical circuit switch: a rotating crossbar.
//!
//! Port `i` attaches to ToR `i`. During matching `m`'s day, a packet
//! arriving from ToR `i` leaves on port `peer_of(i, m)` — there is no
//! buffering in the optical domain, but the electrical egress interface
//! can hold a small FIFO while serializing back-to-back arrivals.
//! Packets arriving during a night (possible only if a ToR ignores the
//! guard time) are dropped and counted (the node's `drops`), mirroring
//! light lost in a reconfiguring switch.

use crate::schedule::RotorSchedule;
use dcn_sim::{CustomCtx, CustomSwitch, Packet, PortId};
use std::collections::VecDeque;

/// Circuit-switch forwarding logic (a [`CustomSwitch`] implementation).
pub struct CircuitSwitch {
    schedule: RotorSchedule,
    /// Per-output FIFO while the port serializes.
    out_queues: Vec<VecDeque<Box<Packet>>>,
}

impl CircuitSwitch {
    /// Create the switch for a schedule.
    pub fn new(schedule: RotorSchedule) -> Self {
        CircuitSwitch {
            schedule,
            out_queues: (0..schedule.n_tors).map(|_| VecDeque::new()).collect(),
        }
    }

    fn pump(&mut self, port: usize, ctx: &mut CustomCtx<'_>) {
        if ctx.ports()[port].busy {
            return;
        }
        if let Some(pkt) = self.out_queues[port].pop_front() {
            // No queue in the optical domain: INT is not pushed here (the
            // VOQ ToR already stamped the queue the packet actually waited
            // in).
            ctx.start_tx(PortId(port as u16), pkt, None);
        }
    }
}

impl CustomSwitch for CircuitSwitch {
    fn on_packet(&mut self, port: PortId, pkt: Box<Packet>, ctx: &mut CustomCtx<'_>) {
        let p = self.schedule.at(ctx.now);
        if !p.in_day {
            ctx.drop_packet(pkt);
            return;
        }
        let out = self.schedule.peer_of(port.index(), p.matching);
        self.out_queues[out].push_back(pkt);
        self.pump(out, ctx);
    }

    fn on_tx_done(&mut self, port: PortId, ctx: &mut CustomCtx<'_>) {
        self.pump(port.index(), ctx);
    }

    fn on_timer(&mut self, _key: u64, _ctx: &mut CustomCtx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bed::{self, Bed, DELAY};
    use dcn_sim::{FlowId, NodeId};
    use powertcp_core::{Bandwidth, Tick};

    fn pkt(size: u32) -> Packet {
        Packet::data(
            FlowId(1),
            NodeId(100),
            NodeId(200),
            0,
            size,
            false,
            Tick::ZERO,
        )
    }

    /// The paper's 25-port switch, packets of the given sizes reaching
    /// port 3 back to back from `t`, run 1 us on.
    fn run(t: Tick, sizes: &[u32]) -> Bed {
        let arrivals: Vec<_> = sizes.iter().map(|&s| (3, t, pkt(s))).collect();
        let sw = CircuitSwitch::new(RotorSchedule::paper_defaults());
        let ports = [Bandwidth::gbps(100); 25];
        bed::run(sw, &ports, &arrivals, t + Tick::from_micros(1))
    }

    #[test]
    fn forwards_by_current_matching() {
        // Day 0 (matching 0): port 3 -> port 4.
        let bed = run(Tick::from_micros(10), &[1000]);
        assert_eq!(bed.tx_bytes(), [(4, 1000)]);
        assert_eq!(bed.got.len(), 1);
        assert_eq!(bed.got[0].0, 4);
        assert_eq!(bed.node().drops, 0);
    }

    #[test]
    fn night_arrivals_are_dropped() {
        // 230us is within the first night (225..245).
        let bed = run(Tick::from_micros(230), &[1000]);
        assert_eq!(bed.node().drops, 1);
        assert_eq!(bed.tx_bytes(), []);
        assert!(bed.got.is_empty());
    }

    #[test]
    fn second_day_uses_next_matching() {
        // 250us: day of matching 1: port 3 -> port 5.
        let bed = run(Tick::from_micros(250), &[1000]);
        assert_eq!(bed.tx_bytes(), [(5, 1000)]);
        assert_eq!(bed.got[0].0, 5);
    }

    #[test]
    fn busy_output_queues_until_tx_done() {
        // 100 B at 100 G follow the 1000 B packet in 8 ns later, 8 ns into
        // its 80 ns transmission: the second waits for the first's TxDone
        // and leaves exactly then.
        let t = Tick::from_micros(10);
        let bed = run(t, &[1000, 100]);
        assert_eq!(bed.tx_bytes(), [(4, 1100)]);
        let at: Vec<_> = bed.got.iter().map(|(_, at, p)| (*at, p.size)).collect();
        let first = t + Tick::from_nanos(80) + DELAY;
        assert_eq!(at, [(first, 1000), (first + Tick::from_nanos(8), 100)]);
    }
}
