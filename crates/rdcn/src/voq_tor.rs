//! The VOQ ToR switch of the RDCN case study (§5).
//!
//! Each ToR keeps per-destination-rack virtual output queues (VOQs, as in
//! the paper's setup), a packet-network uplink, and one circuit port.
//! Data for a remote rack `d`:
//!
//! * drains on the **circuit** while the `me → d` matching's day is up
//!   (exclusively — the paper configures circuit-preferred forwarding),
//!   respecting a guard time so no packet straddles a reconfiguration;
//! * otherwise drains over the **packet network**, *unless* it is inside
//!   the reTCP **prebuffering window**: `prebuffer` before the next
//!   `me → d` day, the VOQ holds packets so a full queue blasts onto the
//!   100 G circuit the instant it appears (Mukerjee et al., NSDI 2020).
//!   `prebuffer = 0` disables holding (the PowerTCP/HPCC configuration).
//!
//! Control packets (ACKs, grants, PFC) always use the packet network —
//! feedback must not wait a week for a circuit.
//!
//! Unroutable packets are retired through [`CustomCtx::drop_packet`],
//! which the engine counts and recycles into the simulator's packet
//! pool (see `dcn_sim::pool`) — drops cost no allocator round-trip.
//!
//! The ToR pushes INT metadata with the *VOQ* occupancy at dequeue, so
//! INT-based CC observes exactly the queue its packets wait in, with the
//! bandwidth of whichever egress (circuit or packet uplink) serves them.

use crate::schedule::RotorSchedule;
use dcn_sim::{CustomCtx, CustomSwitch, NodeId, Packet, PacketKind, PortId};
use powertcp_core::Tick;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Shared gauge of per-rack VOQ occupancy (bytes), for tracers.
pub type VoqGauge = Rc<RefCell<Vec<u64>>>;

/// Shared sink of VOQ queueing delays in seconds (Figure 8b's metric).
pub type LatencySink = Rc<RefCell<Vec<f64>>>;

/// Static configuration of one VOQ ToR.
pub struct VoqTorConfig {
    /// This ToR's index on the circuit switch.
    pub tor_index: usize,
    /// Hosts attached (ports `0..n_hosts`).
    pub n_hosts: usize,
    /// The rotor schedule.
    pub schedule: RotorSchedule,
    /// reTCP prebuffering window (0 = disabled).
    pub prebuffer: Tick,
    /// `rack_of_node[node_id]` = rack index, `u16::MAX` if not a host.
    pub rack_of_node: Vec<u16>,
    /// `local_port_of[node_id]` = host port on its ToR.
    pub local_port_of: Vec<u16>,
    /// Live VOQ occupancy gauge (length `n_tors`).
    pub voq_gauge: VoqGauge,
    /// VOQ queueing-latency sink.
    pub latency_sink: LatencySink,
}

/// Port layout constants.
impl VoqTorConfig {
    /// The packet-network uplink port index.
    pub fn uplink_port(&self) -> usize {
        self.n_hosts
    }
    /// The circuit port index.
    pub fn circuit_port(&self) -> usize {
        self.n_hosts + 1
    }
}

struct QueuedPkt {
    pkt: Box<Packet>,
    enqueued: Tick,
}

/// The VOQ ToR (a [`CustomSwitch`] implementation).
pub struct VoqTor {
    cfg: VoqTorConfig,
    /// Per-local-host-port FIFO (downlink queues).
    host_q: Vec<VecDeque<Box<Packet>>>,
    host_q_bytes: Vec<u64>,
    /// Per-destination-rack VOQs.
    voqs: Vec<VecDeque<QueuedPkt>>,
    voq_bytes: Vec<u64>,
    /// Bit `d` of word `d / 64` ⇔ `voqs[d]` is non-empty.
    nonempty: Vec<u64>,
    /// Control-packet queue (always packet network, ahead of data).
    ctrl_q: VecDeque<Box<Packet>>,
    /// Round-robin pointer for uplink VOQ service.
    rr: usize,
}

impl VoqTor {
    /// Create a ToR.
    pub fn new(cfg: VoqTorConfig) -> Self {
        let n_tors = cfg.schedule.n_tors;
        cfg.voq_gauge.borrow_mut().resize(n_tors, 0);
        VoqTor {
            host_q: (0..cfg.n_hosts).map(|_| VecDeque::new()).collect(),
            host_q_bytes: vec![0; cfg.n_hosts],
            voqs: (0..n_tors).map(|_| VecDeque::new()).collect(),
            voq_bytes: vec![0; n_tors],
            nonempty: vec![0; n_tors.div_ceil(64)],
            ctrl_q: VecDeque::new(),
            rr: 0,
            cfg,
        }
    }

    fn rack_of(&self, node: NodeId) -> Option<usize> {
        let r = *self.cfg.rack_of_node.get(node.index())?;
        (r != u16::MAX).then_some(r as usize)
    }

    fn is_control(pkt: &Packet) -> bool {
        matches!(
            pkt.kind,
            PacketKind::Ack(_) | PacketKind::HomaGrant(_) | PacketKind::Pfc { .. }
        )
    }

    fn set_gauge(&self, d: usize) {
        self.cfg.voq_gauge.borrow_mut()[d] = self.voq_bytes[d];
    }

    /// Is VOQ `d` currently held for prebuffering? (Only outside its day.)
    fn prebuffer_hold(&self, d: usize, now: Tick) -> bool {
        if self.cfg.prebuffer.is_zero() {
            return false;
        }
        let next = self.cfg.schedule.next_day_start(self.cfg.tor_index, d, now);
        next.saturating_sub(now) <= self.cfg.prebuffer
    }

    /// Round-robin over the VOQs: pop the head of the first non-empty one
    /// from `rr` on, wrapping once, that may drain over the packet
    /// network at `now` — its circuit is not up and it is not held for
    /// prebuffering — and move `rr` past it. Returns the packet with the
    /// bytes it leaves behind.
    fn uplink_next(&mut self, now: Tick) -> Option<(Box<Packet>, u64)> {
        let (tor, schedule) = (self.cfg.tor_index, &self.cfg.schedule);
        let p = schedule.at(now);
        let circuit = p.in_day.then(|| schedule.peer_of(tor, p.matching));
        let (w0, b0) = (self.rr / 64, self.rr % 64);
        // `rr`'s word from `rr` up, the words after it, the words before
        // it, then `rr`'s word below `rr`.
        let rest = (w0 + 1..self.nonempty.len()).chain(0..w0);
        let spans = std::iter::once((w0, !0u64 << b0))
            .chain(rest.map(|w| (w, !0)))
            .chain(std::iter::once((w0, (1u64 << b0) - 1)));
        for (w, mask) in spans {
            let mut bits = self.nonempty[w] & mask;
            while bits != 0 {
                let d = w * 64 + bits.trailing_zeros() as usize;
                if d != tor && Some(d) != circuit && !self.prebuffer_hold(d, now) {
                    self.rr = (d + 1) % self.voqs.len();
                    return Some(self.dequeue(d, now));
                }
                bits &= bits - 1;
            }
        }
        None
    }

    fn enqueue(&mut self, d: usize, pkt: Box<Packet>, now: Tick) {
        self.voq_bytes[d] += pkt.size as u64;
        self.voqs[d].push_back(QueuedPkt { pkt, enqueued: now });
        self.nonempty[d / 64] |= 1 << (d % 64);
        self.set_gauge(d);
    }

    /// Pop VOQ `d`'s head at `now`; returns it with the bytes left behind.
    fn dequeue(&mut self, d: usize, now: Tick) -> (Box<Packet>, u64) {
        let QueuedPkt { pkt, enqueued } = self.voqs[d].pop_front().expect("VOQ picked non-empty");
        if self.voqs[d].is_empty() {
            self.nonempty[d / 64] &= !(1 << (d % 64));
        }
        self.voq_bytes[d] -= pkt.size as u64;
        self.set_gauge(d);
        self.record_latency(enqueued, now);
        (pkt, self.voq_bytes[d])
    }

    fn record_latency(&self, enq: Tick, now: Tick) {
        self.cfg
            .latency_sink
            .borrow_mut()
            .push(now.saturating_sub(enq).as_secs_f64());
    }

    fn pump_host(&mut self, port: usize, ctx: &mut CustomCtx<'_>) {
        if ctx.ports()[port].busy {
            return;
        }
        if let Some(pkt) = self.host_q[port].pop_front() {
            self.host_q_bytes[port] -= pkt.size as u64;
            let qlen = self.host_q_bytes[port];
            ctx.start_tx(PortId(port as u16), pkt, Some(qlen));
        }
    }

    fn pump_circuit(&mut self, ctx: &mut CustomCtx<'_>) {
        let cport = self.cfg.circuit_port();
        if ctx.ports()[cport].busy {
            return;
        }
        let p = self.cfg.schedule.at(ctx.now);
        if !p.in_day {
            return;
        }
        let d = self.cfg.schedule.peer_of(self.cfg.tor_index, p.matching);
        let Some(front) = self.voqs[d].front() else {
            return;
        };
        // Guard time: the packet must fully serialize before the night.
        let ser = ctx.ports()[cport].ser_time(front.pkt.size as u64);
        if ctx.now + ser > p.phase_end {
            return;
        }
        let (pkt, qlen) = self.dequeue(d, ctx.now);
        ctx.start_tx(PortId(cport as u16), pkt, Some(qlen));
    }

    fn pump_uplink(&mut self, ctx: &mut CustomCtx<'_>) {
        let uport = self.cfg.uplink_port();
        if ctx.ports()[uport].busy {
            return;
        }
        // Control first.
        if let Some(pkt) = self.ctrl_q.pop_front() {
            ctx.start_tx(PortId(uport as u16), pkt, None);
            return;
        }
        if let Some((pkt, qlen)) = self.uplink_next(ctx.now) {
            ctx.start_tx(PortId(uport as u16), pkt, Some(qlen));
        }
    }

    fn arm_phase_timer(&self, ctx: &mut CustomCtx<'_>) {
        let p = self.cfg.schedule.at(ctx.now);
        // Wake just after the boundary so `at()` lands in the new phase.
        ctx.set_timer(p.phase_end + Tick::from_nanos(1), 0);
    }
}

impl CustomSwitch for VoqTor {
    fn on_start(&mut self, ctx: &mut CustomCtx<'_>) {
        self.arm_phase_timer(ctx);
    }

    fn on_packet(&mut self, _port: PortId, pkt: Box<Packet>, ctx: &mut CustomCtx<'_>) {
        let Some(dst_rack) = self.rack_of(pkt.dst) else {
            ctx.drop_packet(pkt);
            return;
        };
        if dst_rack == self.cfg.tor_index {
            // Local delivery.
            let port = self.cfg.local_port_of[pkt.dst.index()] as usize;
            self.host_q_bytes[port] += pkt.size as u64;
            self.host_q[port].push_back(pkt);
            self.pump_host(port, ctx);
            return;
        }
        if Self::is_control(&pkt) {
            self.ctrl_q.push_back(pkt);
            self.pump_uplink(ctx);
            return;
        }
        self.enqueue(dst_rack, pkt, ctx.now);
        self.pump_circuit(ctx);
        self.pump_uplink(ctx);
    }

    fn on_tx_done(&mut self, port: PortId, ctx: &mut CustomCtx<'_>) {
        let p = port.index();
        if p < self.cfg.n_hosts {
            self.pump_host(p, ctx);
        } else if p == self.cfg.uplink_port() {
            self.pump_uplink(ctx);
        } else {
            self.pump_circuit(ctx);
        }
    }

    fn on_timer(&mut self, _key: u64, ctx: &mut CustomCtx<'_>) {
        // Phase boundary: day/night flipped, eligibility changed.
        self.pump_circuit(ctx);
        self.pump_uplink(ctx);
        self.arm_phase_timer(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bed::{self, Bed};
    use dcn_sim::FlowId;
    use powertcp_core::Bandwidth;

    /// ToR 0 of four on the bed: its hosts are nodes 1 and 2 (ports 0, 1),
    /// node 3 stands in for the packet switch (port 2) and node 4 for the
    /// circuit switch (port 3). Hosts 20, 21 are rack 1; host 30, rack 2.
    fn cfg(prebuffer: Tick) -> (VoqTorConfig, VoqGauge) {
        let mut rack_of_node = vec![u16::MAX; 32];
        let mut local_port_of = vec![u16::MAX; 32];
        for (node, rack, port) in [(1, 0, 0), (2, 0, 1), (20, 1, 0), (21, 1, 1), (30, 2, 0)] {
            rack_of_node[node] = rack;
            local_port_of[node] = port;
        }
        let gauge: VoqGauge = Rc::new(RefCell::new(Vec::new()));
        let cfg = VoqTorConfig {
            tor_index: 0,
            n_hosts: 2,
            schedule: RotorSchedule {
                n_tors: 4,
                day: Tick::from_micros(225),
                night: Tick::from_micros(20),
            },
            prebuffer,
            rack_of_node,
            local_port_of,
            voq_gauge: gauge.clone(),
            latency_sink: LatencySink::default(),
        };
        (cfg, gauge)
    }

    /// Run a ToR until `until`; `pkts` reach it on `port` back to back
    /// from `t`. Returns the bed and the rack-1 VOQ occupancy at the end.
    fn run(prebuffer: Tick, port: usize, t: Tick, pkts: &[Packet], until: Tick) -> (Bed, u64) {
        let (cfg, gauge) = cfg(prebuffer);
        let arrivals: Vec<_> = pkts.iter().map(|p| (port, t, p.clone())).collect();
        // 2 host ports (25G) + uplink (25G) + circuit (100G).
        let ports = [25, 25, 25, 100].map(Bandwidth::gbps);
        let bed = bed::run(VoqTor::new(cfg), &ports, &arrivals, until);
        let held = gauge.borrow()[1];
        (bed, held)
    }

    fn data_to(dst: u32) -> Packet {
        Packet::data(
            FlowId(1),
            NodeId(1),
            NodeId(dst),
            0,
            1000,
            false,
            Tick::ZERO,
        )
    }

    const T: Tick = Tick::from_micros(10);
    const US: Tick = Tick::from_micros(1);

    #[test]
    fn local_packets_take_host_port() {
        let (bed, _) = run(Tick::ZERO, 2, T, &[data_to(2)], T + US);
        assert_eq!(bed.tx_bytes(), [(1, 1000)]);
        assert_eq!(bed.got[0].0, 1);
    }

    #[test]
    fn remote_data_uses_circuit_during_matching_day() {
        // Matching 0 (t=10us): rack 0 -> rack 1 circuit is up.
        let (bed, held) = run(Tick::ZERO, 0, T, &[data_to(20)], T + US);
        assert_eq!(bed.tx_bytes(), [(3, 1000)], "circuit port");
        // Stamped by the circuit port: its byte counter, the bed's only
        // 100G rate, and the VOQ empty after dequeue.
        let hop = bed.got[0].2.int.hops()[0];
        assert_eq!(
            (hop.qlen_bytes, hop.tx_bytes, hop.bandwidth),
            (0, 1000, Bandwidth::gbps(100)),
        );
        assert!(hop.ts >= T, "{hop:?}");
        assert_eq!(held, 0);
    }

    #[test]
    fn remote_data_uses_uplink_when_circuit_elsewhere() {
        // Matching 0 serves rack 1; traffic to rack 2 must take the
        // uplink. Host 99 is unknown: dropped.
        let pkts = [data_to(99), data_to(30)];
        let (bed, _) = run(Tick::ZERO, 0, T, &pkts, T + US);
        assert_eq!(bed.node().drops, 1);
        assert_eq!(bed.tx_bytes(), [(2, 1000)], "uplink");
    }

    #[test]
    fn acks_never_wait_for_circuit() {
        // An ACK from host 1 back to host 20 in rack 1.
        let data_rev = Packet::data(FlowId(2), NodeId(20), NodeId(1), 0, 1000, false, Tick::ZERO);
        let remote_ack = Packet::ack_for(&data_rev, 1000, false, US);
        let size = remote_ack.size as u64;
        // t=230us: night, and prebuffer=1000us would hold ALL data.
        let t = Tick::from_micros(230);
        let (bed, _) = run(Tick::from_micros(1000), 0, t, &[remote_ack], t + US);
        assert_eq!(bed.tx_bytes(), [(2, size)], "uplink");
    }

    #[test]
    fn prebuffer_holds_data_near_day_start() {
        // The me->1 matching is m=0, so its day starts at k*735us (week =
        // 3*245us). At t=700us the next start is 35us away < 50us -> held,
        // and the gauge shows the held bytes.
        let t = Tick::from_micros(700);
        let (bed, held) = run(Tick::from_micros(50), 0, t, &[data_to(20)], t + US);
        assert_eq!(bed.tx_bytes(), [], "VOQ must hold during prebuffer");
        assert_eq!(held, 1000);
        // Same instant without prebuffering: drains on the uplink.
        let (bed, held) = run(Tick::ZERO, 0, t, &[data_to(20)], t + US);
        assert_eq!(bed.tx_bytes(), [(2, 1000)]);
        assert_eq!(held, 0);
    }

    #[test]
    fn gauge_tracks_voq_bytes() {
        // Held by prebuffer (t=700us as above) so occupancy is visible,
        // then blasted onto the circuit when the day opens at 735us.
        let t = Tick::from_micros(700);
        let pkts = [data_to(20), data_to(21)];
        let (bed, held) = run(Tick::from_micros(50), 0, t, &pkts, t + US);
        assert_eq!((bed.tx_bytes(), held), (vec![], 2000));
        let (bed, held) = run(Tick::from_micros(50), 0, t, &pkts, t + US * 40);
        assert_eq!((bed.tx_bytes(), held), (vec![(3, 2000)], 0));
    }

    /// `uplink_next` as it was before the occupancy bitset: every VOQ from
    /// `rr` on, with a `%` and a schedule read per step.
    fn scan_next(tor: &mut VoqTor, now: Tick) -> Option<(Box<Packet>, u64)> {
        let (me, n) = (tor.cfg.tor_index, tor.voqs.len());
        for i in 0..n {
            let d = (tor.rr + i) % n;
            if tor.voqs[d].is_empty()
                || d == me
                || tor.cfg.schedule.circuit_up(me, d, now)
                || tor.prebuffer_hold(d, now)
            {
                continue;
            }
            tor.rr = (d + 1) % n;
            return Some(tor.dequeue(d, now));
        }
        None
    }

    /// An instant on or within a nanosecond of a day start, a night
    /// start, a week boundary or the opening of `me → d`'s prebuffering
    /// window, over the first three weeks.
    fn edge(rng: &mut proptest::TestRng, tor: &VoqTor) -> Tick {
        let (s, me) = (tor.cfg.schedule, tor.cfg.tor_index);
        let slot = s.slot() * rng.below(3 * s.num_matchings()) as u64;
        let at = match rng.below(4) {
            0 => slot,
            1 => slot + s.day,
            2 => s.week() * rng.below(4) as u64,
            _ => {
                let d = (me + 1 + rng.below(s.n_tors - 1)) % s.n_tors;
                let opens = s.next_day_start(me, d, slot);
                opens.saturating_sub(tor.cfg.prebuffer)
            }
        };
        let nudge = [0, 1, 1_000][rng.below(3)];
        match rng.below(3) {
            0 => at,
            1 => at + Tick::from_ps(nudge),
            _ => at.saturating_sub(Tick::from_ps(nudge)),
        }
    }

    /// The bitset chooser picks the VOQ the linear scan picked and leaves
    /// `rr` where it left it, pump after pump, with and without
    /// prebuffering, on rotors of 3 to 70 ToRs (one or two words in the
    /// set) and of 120 to 200 (three or four, so the order the words
    /// after `rr`'s are visited in shows).
    #[test]
    fn uplink_next_matches_the_scan_it_replaced() {
        use proptest::Strategy;
        let mut rng = proptest::TestRng::deterministic("uplink_next_matches_the_scan_it_replaced");
        // [a non-empty VOQ held for prebuffering, one whose circuit is
        // up, a pick that wrapped past the last VOQ, one in another word
        // than `rr`, nothing eligible with a VOQ non-empty]
        let mut seen = [0u32; 5];
        for _ in 0..300 {
            let (fewest, most) = [(3, 70), (60, 70), (120, 200usize)][rng.below(3)];
            let n_tors = (fewest..=most).sample(&mut rng);
            let me = rng.below(n_tors);
            let prebuffer = [0, 50, 600, 1800][rng.below(4)];
            let rr = rng.below(n_tors);
            let make = || {
                let mut tor = VoqTor::new(VoqTorConfig {
                    tor_index: me,
                    n_hosts: 0,
                    schedule: RotorSchedule {
                        n_tors,
                        ..RotorSchedule::paper_defaults()
                    },
                    prebuffer: Tick::from_micros(prebuffer),
                    rack_of_node: vec![],
                    local_port_of: vec![],
                    voq_gauge: VoqGauge::default(),
                    latency_sink: LatencySink::default(),
                });
                tor.rr = rr;
                tor
            };
            let (mut tor, mut oracle) = (make(), make());
            // From every VOQ empty (fill 0) to every one holding 1–3
            // packets (fill 4); VOQ `d`'s packets are 100 + d bytes.
            let fill = rng.below(5);
            for d in (0..n_tors).filter(|&d| d != me) {
                let packets = if rng.below(4) < fill {
                    1 + rng.below(3)
                } else {
                    0
                };
                for _ in 0..packets {
                    let len = 100 + d as u32;
                    let pkt =
                        Packet::data(FlowId(1), NodeId(1), NodeId(2), 0, len, false, Tick::ZERO);
                    for t in [&mut tor, &mut oracle] {
                        t.enqueue(d, Box::new(pkt.clone()), Tick::ZERO);
                    }
                }
            }
            let mut hit = [false; 5];
            loop {
                let now = edge(&mut rng, &tor);
                let (from, s) = (tor.rr, tor.cfg.schedule);
                let p = s.at(now);
                let nonempty: Vec<usize> =
                    (0..n_tors).filter(|&d| !tor.voqs[d].is_empty()).collect();
                hit[0] |= nonempty.iter().any(|&d| tor.prebuffer_hold(d, now));
                hit[1] |= p.in_day && nonempty.contains(&s.peer_of(me, p.matching));
                let got = tor.uplink_next(now).map(|(pkt, qlen)| (pkt.size, qlen));
                let want = scan_next(&mut oracle, now).map(|(pkt, qlen)| (pkt.size, qlen));
                let what = format!(
                    "{n_tors} ToRs, me {me}, rr {from}, at {now:?}, prebuffer {prebuffer} us"
                );
                assert_eq!(got, want, "{what}");
                assert_eq!(
                    (tor.rr, &tor.voq_bytes),
                    (oracle.rr, &oracle.voq_bytes),
                    "{what}"
                );
                if got.is_none() {
                    hit[4] |= !nonempty.is_empty();
                    break;
                }
                let d = (tor.rr + n_tors - 1) % n_tors;
                hit[2] |= d < from;
                hit[3] |= d / 64 != from / 64;
            }
            for (hit, n) in hit.into_iter().zip(&mut seen) {
                *n += hit as u32;
            }
        }
        assert!(seen.iter().all(|&n| n >= 40), "generator coverage {seen:?}");
    }

    #[test]
    fn guard_time_blocks_straddling_transmissions() {
        // 1000B at 100G = 80ns. At day_end - 40ns the packet cannot fit.
        let day_end = Tick::from_micros(225);
        let t = day_end - Tick::from_nanos(40);
        // Not on the circuit, and not on the uplink either (the circuit is
        // "up", so the uplink is ineligible): queued to the end of the day.
        let (bed, held) = run(Tick::ZERO, 0, t, &[data_to(20)], day_end);
        assert_eq!(
            bed.tx_bytes(),
            [],
            "must neither straddle night nor bypass exclusivity"
        );
        assert_eq!(held, 1000);
        // The night's phase timer releases it to the packet network.
        let (bed, held) = run(Tick::ZERO, 0, t, &[data_to(20)], day_end + US);
        assert_eq!(bed.tx_bytes(), [(2, 1000)]);
        assert_eq!(held, 0);
    }
}
