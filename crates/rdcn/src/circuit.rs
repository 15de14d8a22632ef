//! The optical circuit switch: a rotating crossbar.
//!
//! Port `i` attaches to ToR `i`. During matching `m`'s day, a packet
//! arriving from ToR `i` leaves on port `peer_of(i, m)` — there is no
//! buffering in the optical domain, but the electrical egress interface
//! can hold a small FIFO while serializing back-to-back arrivals.
//! Packets arriving during a night (possible only if a ToR ignores the
//! guard time) are dropped and counted, mirroring light lost in a
//! reconfiguring switch.

use crate::schedule::RotorSchedule;
use dcn_sim::{CustomCtx, CustomSwitch, Packet, PortId};
use std::collections::VecDeque;

/// Circuit-switch forwarding logic (a [`CustomSwitch`] implementation).
pub struct CircuitSwitch {
    schedule: RotorSchedule,
    /// Per-output FIFO while the port serializes.
    out_queues: Vec<VecDeque<Box<Packet>>>,
    /// Packets that arrived during a night.
    pub night_drops: u64,
    /// Packets forwarded.
    pub forwarded: u64,
}

impl CircuitSwitch {
    /// Create the switch for a schedule.
    pub fn new(schedule: RotorSchedule) -> Self {
        CircuitSwitch {
            schedule,
            out_queues: (0..schedule.n_tors).map(|_| VecDeque::new()).collect(),
            night_drops: 0,
            forwarded: 0,
        }
    }

    fn pump(&mut self, port: usize, ctx: &mut CustomCtx<'_>) {
        if ctx.ports[port].busy {
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
            self.night_drops += 1;
            ctx.drop_packet(pkt);
            return;
        }
        let out = self.schedule.peer_of(port.index(), p.matching);
        self.forwarded += 1;
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
    use dcn_sim::{CustomAction, Egress, FlowId, Link, NodeId};
    use powertcp_core::{Bandwidth, Tick};

    fn views(n: usize) -> Vec<Egress> {
        (0..n)
            .map(|i| {
                Egress::new(Link {
                    bandwidth: Bandwidth::gbps(100),
                    delay: Tick::from_micros(1),
                    dst: NodeId(i as u32),
                    dst_port: PortId(0),
                })
            })
            .collect()
    }

    fn pkt() -> Box<Packet> {
        Box::new(Packet::data(
            FlowId(1),
            NodeId(100),
            NodeId(200),
            0,
            1000,
            false,
            Tick::ZERO,
        ))
    }

    #[test]
    fn forwards_by_current_matching() {
        let s = RotorSchedule::paper_defaults();
        let mut sw = CircuitSwitch::new(s);
        let v = views(25);
        let mut actions = Vec::new();
        // Day 0 (matching 0): port 3 -> port 4.
        let mut ctx = CustomCtx::new(Tick::from_micros(10), NodeId(0), &v, &mut actions);
        sw.on_packet(PortId(3), pkt(), &mut ctx);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            CustomAction::StartTx { port, .. } => assert_eq!(*port, PortId(4)),
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(sw.forwarded, 1);
    }

    #[test]
    fn night_arrivals_are_dropped() {
        let s = RotorSchedule::paper_defaults();
        let mut sw = CircuitSwitch::new(s);
        let v = views(25);
        let mut actions = Vec::new();
        // 230us is within the first night (225..245).
        let mut ctx = CustomCtx::new(Tick::from_micros(230), NodeId(0), &v, &mut actions);
        sw.on_packet(PortId(3), pkt(), &mut ctx);
        assert_eq!(sw.night_drops, 1);
        assert!(matches!(actions[0], CustomAction::Drop { .. }));
    }

    #[test]
    fn second_day_uses_next_matching() {
        let s = RotorSchedule::paper_defaults();
        let mut sw = CircuitSwitch::new(s);
        let v = views(25);
        let mut actions = Vec::new();
        // 250us: day of matching 1: port 3 -> port 5.
        let mut ctx = CustomCtx::new(Tick::from_micros(250), NodeId(0), &v, &mut actions);
        sw.on_packet(PortId(3), pkt(), &mut ctx);
        match &actions[0] {
            CustomAction::StartTx { port, .. } => assert_eq!(*port, PortId(5)),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn busy_output_queues_until_tx_done() {
        let s = RotorSchedule::paper_defaults();
        let mut sw = CircuitSwitch::new(s);
        let mut v = views(25);
        let mut actions = Vec::new();
        {
            let mut ctx = CustomCtx::new(Tick::from_micros(10), NodeId(0), &v, &mut actions);
            sw.on_packet(PortId(3), pkt(), &mut ctx);
        }
        // Mark the port busy (the engine would) and deliver another.
        v[4].busy = true;
        {
            let mut ctx = CustomCtx::new(Tick::from_micros(11), NodeId(0), &v, &mut actions);
            sw.on_packet(PortId(3), pkt(), &mut ctx);
        }
        assert_eq!(actions.len(), 1, "second packet queued, not transmitted");
        // TxDone frees the port.
        v[4].busy = false;
        {
            let mut ctx = CustomCtx::new(Tick::from_micros(12), NodeId(0), &v, &mut actions);
            sw.on_tx_done(PortId(4), &mut ctx);
        }
        assert_eq!(actions.len(), 2);
    }
}
