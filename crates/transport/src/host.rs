//! The RDMA-style windowed transport endpoint.
//!
//! Matches the paper's deployment scenario (§1, §4): congestion control
//! runs at the sender (as on an RDMA NIC), every data packet is ACKed, the
//! receiver echoes the INT stack and the ECN mark, and loss recovery is
//! go-back-N (NACK on out-of-order arrival plus an RTO backstop). Window
//! *and* pacing rate are both enforced; which one binds depends on the
//! algorithm (window-based vs rate-based).

use crate::config::TransportConfig;
use crate::flow::FlowSpec;
use crate::metrics::SharedMetrics;
use crate::timer_key::{key, split_key};
use dcn_sim::{CcFlowSample, Endpoint, EndpointCtx, FlowId, FlowTable, Packet, PacketKind};
use powertcp_core::{AckInfo, Bandwidth, CongestionControl, LossKind, NetSignal, Tick};
use seq::SendSeq;

/// Timer-key kinds (top byte of the `u64` key).
const K_FLOW_START: u64 = 1;
const K_PACE: u64 = 2;
const K_RTO: u64 = 3;
const K_CC: u64 = 4;

/// Factory producing one congestion-control instance per flow.
pub type CcFactory = Box<dyn FnMut(FlowId, Bandwidth) -> Box<dyn CongestionControl>>;

struct SenderFlow {
    spec: FlowSpec,
    cc: Box<dyn CongestionControl>,
    seq: SendSeq,
    next_send: Tick,
    /// Pacing timer armed for this deadline (suppress duplicates).
    pace_armed_for: Option<Tick>,
    /// RTO deadline; a single outstanding timer is kept armed and
    /// re-armed lazily when it fires early (deadline pushed by ACKs).
    rto_deadline: Tick,
    rto_armed: bool,
    last_rewind: Tick,
    cc_timer_armed_for: Option<Tick>,
    done: bool,
}

struct ReceiverFlow {
    rcv_nxt: u64,
    /// End sequence learned from the `is_last` packet.
    end_seq: Option<u64>,
    complete: bool,
}

/// Windowed go-back-N transport endpoint; one per host.
pub struct TransportHost {
    cfg: TransportConfig,
    metrics: SharedMetrics,
    make_cc: CcFactory,
    /// Sender flows in start order; timer keys index into this.
    senders: Vec<SenderFlow>,
    // FlowTable, not BTreeMap: generated flow ids are sequential, so the
    // per-ACK and per-data lookups are slab indexes; its ordered
    // iteration (were any added) matches the old map's (rule R1, `clippy.toml`).
    sender_index: FlowTable<usize>,
    receivers: FlowTable<ReceiverFlow>,
}

impl TransportHost {
    /// Create an endpoint with a CC factory; flows are added with
    /// [`TransportHost::add_flow`] before the simulation starts.
    pub fn new(cfg: TransportConfig, metrics: SharedMetrics, make_cc: CcFactory) -> Self {
        TransportHost {
            cfg,
            metrics,
            make_cc,
            senders: Vec::new(),
            sender_index: FlowTable::new(),
            receivers: FlowTable::new(),
        }
    }

    /// Register a flow this host will send. Must be called before the
    /// simulator is primed.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        assert!(spec.size_bytes > 0, "empty flow {:?}", spec.id);
        self.metrics.borrow_mut().register(spec);
        let idx = self.senders.len();
        self.sender_index.insert(spec.id, idx);
        self.senders.push(SenderFlow {
            spec,
            // The CC is created lazily at flow start so it sees the real
            // NIC bandwidth; placeholder until then.
            cc: Box::new(HoldCc),
            seq: SendSeq::new(spec.size_bytes),
            next_send: Tick::ZERO,
            pace_armed_for: None,
            rto_deadline: Tick::MAX,
            rto_armed: false,
            last_rewind: Tick::ZERO,
            cc_timer_armed_for: None,
            done: false,
        });
    }

    /// Deliver an out-of-band network signal (e.g. circuit up/down) to
    /// every active sender flow's CC. RDCN harnesses call this through a
    /// shared handle.
    pub fn signal_all(&mut self, now: Tick, signal: NetSignal) {
        for f in &mut self.senders {
            if !f.done {
                f.cc.on_signal(now, signal);
            }
        }
    }

    fn start_flow(&mut self, idx: usize, ctx: &mut EndpointCtx<'_>) {
        let nic_bw = ctx.nic_bw;
        let f = &mut self.senders[idx];
        f.cc = (self.make_cc)(f.spec.id, nic_bw);
        f.next_send = ctx.now;
        f.rto_deadline = ctx.now + self.cfg.rto;
        f.rto_armed = true;
        ctx.set_timer(f.rto_deadline, key(K_RTO, idx));
        self.try_send(idx, ctx);
    }

    /// Pump the pacing loop for one flow: emit packets while the window
    /// and pacing allow; otherwise arm the pacing timer (window-limited
    /// flows are re-pumped by the next ACK instead).
    fn try_send(&mut self, idx: usize, ctx: &mut EndpointCtx<'_>) {
        let mtu = self.cfg.mtu as u64;
        loop {
            let f = &mut self.senders[idx];
            if f.done || f.seq.remaining() == 0 {
                return;
            }
            let cwnd = f.cc.cwnd();
            if (f.seq.inflight() as f64) >= cwnd {
                return; // window-limited: ACK clock re-arms.
            }
            if ctx.now < f.next_send {
                // Pacing-limited: arm (deduplicated) timer.
                if f.pace_armed_for != Some(f.next_send) {
                    f.pace_armed_for = Some(f.next_send);
                    ctx.set_timer(f.next_send, key(K_PACE, idx));
                }
                return;
            }
            // Emit one packet.
            let (seq, len, is_last) = f.seq.send(mtu);
            let pkt = Packet::data(
                f.spec.id, f.spec.src, f.spec.dst, seq, len, is_last, ctx.now,
            );
            let rate = f.cc.pacing_rate();
            // Floor the pacing rate: a zero rate would wedge the flow.
            let rate = if rate.bps() < 1_000_000 {
                Bandwidth::mbps(1)
            } else {
                rate
            };
            let gap = rate.tx_time(len as u64);
            f.next_send = f.next_send.max(ctx.now) + gap;
            ctx.send(pkt);
        }
    }

    fn on_ack(&mut self, pkt: &Packet, ctx: &mut EndpointCtx<'_>) {
        let PacketKind::Ack(ref pl) = pkt.kind else {
            return;
        };
        let Some(&idx) = self.sender_index.get(pkt.flow) else {
            return; // ACK for a flow we do not own (misrouted).
        };
        let f = &mut self.senders[idx];
        if f.done {
            return;
        }
        let newly = f.seq.ack(pl.cum_ack);
        // Feed the control law (an ACK carries the echoed INT stack in
        // its own header field — see `Packet::into_ack`).
        let rtt = ctx.now.saturating_sub(pl.echo_ts);
        let int = (!pkt.int.is_empty()).then_some(&pkt.int);
        f.cc.on_ack(&AckInfo {
            now: ctx.now,
            ack_seq: pl.cum_ack,
            newly_acked: newly,
            snd_nxt: f.seq.nxt(),
            rtt,
            int,
            ecn_marked: pl.ecn_echo,
        });
        // Go-back-N on NACK, at most once per guard interval.
        if pl.nack && ctx.now.saturating_sub(f.last_rewind) >= self.cfg.nack_guard {
            f.last_rewind = ctx.now;
            let rewound = f.seq.rewind();
            f.cc.on_loss(ctx.now, LossKind::Reorder);
            self.metrics
                .borrow_mut()
                .add_retransmission(f.spec.id, rewound);
        }
        // Completion (sender view): all bytes acked.
        if f.seq.acked_all() {
            f.done = true;
            return;
        }
        // Refresh the RTO deadline; the armed timer re-arms itself when it
        // fires before the (pushed) deadline.
        f.rto_deadline = ctx.now + self.cfg.rto;
        if !f.rto_armed {
            f.rto_armed = true;
            ctx.set_timer(f.rto_deadline, key(K_RTO, idx));
        }
        // CC-internal timers (DCQCN).
        if let Some(t) = f.cc.poll_timer(ctx.now) {
            if f.cc_timer_armed_for != Some(t) {
                f.cc_timer_armed_for = Some(t);
                ctx.set_timer(t, key(K_CC, idx));
            }
        }
        self.try_send(idx, ctx);
    }

    /// Receive one data packet and send its ACK — in the *same* box: the
    /// delivered packet is transformed in place ([`Packet::into_ack`]),
    /// so the per-ACK cost is a few scalar writes instead of an
    /// `IntHeader` copy plus a pool round-trip.
    fn on_data(&mut self, mut pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        let PacketKind::Data { seq, len, is_last } = pkt.kind else {
            return;
        };
        let r = self
            .receivers
            .get_or_insert_with(pkt.flow, || ReceiverFlow {
                rcv_nxt: 0,
                end_seq: None,
                complete: false,
            });
        if is_last {
            r.end_seq = Some(seq + len as u64);
        }
        let nack = if seq == r.rcv_nxt {
            r.rcv_nxt += len as u64;
            false
        } else {
            // Out of order (gap) or duplicate: go-back-N receivers keep
            // only the in-order prefix. NACK on a gap.
            seq > r.rcv_nxt
        };
        let cum_ack = r.rcv_nxt;
        if !r.complete {
            if let Some(end) = r.end_seq {
                if r.rcv_nxt >= end {
                    r.complete = true;
                    self.metrics.borrow_mut().complete(pkt.flow, ctx.now);
                }
            }
        }
        pkt.into_ack(cum_ack, nack, ctx.now);
        ctx.send_boxed(pkt);
    }

    fn on_rto(&mut self, idx: usize, ctx: &mut EndpointCtx<'_>) {
        let f = &mut self.senders[idx];
        f.rto_armed = false;
        if f.done {
            return;
        }
        if ctx.now < f.rto_deadline {
            // Deadline was pushed forward by ACK activity: re-arm.
            f.rto_armed = true;
            ctx.set_timer(f.rto_deadline, key(K_RTO, idx));
            return;
        }
        if f.seq.inflight() == 0 && f.seq.remaining() == 0 {
            return;
        }
        // Timeout: rewind and back off via the CC.
        let rewound = f.seq.rewind();
        f.next_send = ctx.now;
        f.cc.on_loss(ctx.now, LossKind::Timeout);
        {
            let mut m = self.metrics.borrow_mut();
            m.add_timeout(f.spec.id);
            m.add_retransmission(f.spec.id, rewound);
        }
        f.rto_deadline = ctx.now + self.cfg.rto;
        f.rto_armed = true;
        ctx.set_timer(f.rto_deadline, key(K_RTO, idx));
        self.try_send(idx, ctx);
    }
}

/// Placeholder CC used before a flow starts (never consulted for sending
/// because `try_send` is only reachable after `start_flow` replaces it).
struct HoldCc;

impl CongestionControl for HoldCc {
    fn on_ack(&mut self, _ack: &AckInfo<'_>) {}
    fn on_loss(&mut self, _now: Tick, _kind: LossKind) {}
    fn cwnd(&self) -> f64 {
        0.0
    }
    fn pacing_rate(&self) -> Bandwidth {
        Bandwidth::ZERO
    }
    fn name(&self) -> &'static str {
        "hold"
    }
}

impl Endpoint for TransportHost {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        for (idx, f) in self.senders.iter().enumerate() {
            ctx.set_timer(f.spec.start, key(K_FLOW_START, idx));
        }
    }

    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        match pkt.kind {
            // Data consumes the box: it goes back out as the ACK.
            PacketKind::Data { .. } => self.on_data(pkt, ctx),
            PacketKind::Ack(_) => {
                self.on_ack(&pkt, ctx);
                ctx.recycle(pkt);
            }
            _ => ctx.recycle(pkt),
        }
    }

    fn cc_samples(&self, out: &mut Vec<CcFlowSample>) {
        for f in &self.senders {
            // Skip flows that have finished or not yet started (the CC is
            // the zero-window `HoldCc` placeholder until flow start).
            if f.done || f.cc.cwnd() <= 0.0 {
                continue;
            }
            out.push(CcFlowSample {
                flow: f.spec.id,
                cwnd_bytes: f.cc.cwnd(),
                pacing: f.cc.pacing_rate(),
                norm_power: f.cc.norm_power(),
            });
        }
    }

    fn on_timer(&mut self, k: u64, ctx: &mut EndpointCtx<'_>) {
        let (kind, idx) = split_key(k);
        if idx >= self.senders.len() {
            return;
        }
        match kind {
            K_FLOW_START => self.start_flow(idx, ctx),
            K_PACE => {
                let f = &mut self.senders[idx];
                if f.pace_armed_for.is_some_and(|t| t <= ctx.now) {
                    f.pace_armed_for = None;
                }
                self.try_send(idx, ctx);
            }
            K_RTO => self.on_rto(idx, ctx),
            K_CC => {
                let f = &mut self.senders[idx];
                f.cc_timer_armed_for = None;
                if let Some(t) = f.cc.poll_timer(ctx.now) {
                    if f.cc_timer_armed_for != Some(t) {
                        f.cc_timer_armed_for = Some(t);
                        ctx.set_timer(t, key(K_CC, idx));
                    }
                }
                if !f.done {
                    self.try_send(idx, ctx);
                }
            }
            _ => {}
        }
    }
}

/// The go-back-N sender's byte sequence, in its own module so that
/// nothing else in this file can write its fields.
mod seq {
    /// Bytes `[0, una)` are acknowledged, `[una, nxt)` are in flight and
    /// `[nxt, size)` are still to send. Every update of the sender's
    /// sequence is one of the methods below.
    pub(super) struct SendSeq {
        size: u64,
        una: u64,
        nxt: u64,
    }

    impl SendSeq {
        /// A flow of `size` bytes, nothing sent.
        pub(super) fn new(size: u64) -> Self {
            SendSeq {
                size,
                una: 0,
                nxt: 0,
            }
        }

        /// Take the next segment of at most `mtu` bytes: its
        /// `(seq, len, is_last)`.
        pub(super) fn send(&mut self, mtu: u64) -> (u64, u32, bool) {
            let len = mtu.min(self.remaining());
            let seq = self.nxt;
            self.nxt += len;
            (seq, len as u32, self.nxt == self.size)
        }

        /// Apply a cumulative ACK; returns the bytes it newly acknowledges.
        pub(super) fn ack(&mut self, cum: u64) -> u64 {
            let newly = cum.saturating_sub(self.una);
            // ROADMAP item 1(a): `nxt` stays where a rewind put it, so an
            // ACK for data sent before the rewind lifts `una` past `nxt`.
            (self.una, self.nxt) = (self.una.max(cum), self.nxt);
            newly
        }

        /// Go back N: resend from the first unacknowledged byte. Returns
        /// the bytes taken back out of flight.
        pub(super) fn rewind(&mut self) -> u64 {
            let rewound = self.inflight();
            self.nxt = self.una;
            rewound
        }

        /// Bytes sent and not yet acknowledged.
        pub(super) fn inflight(&self) -> u64 {
            self.nxt - self.una
        }

        /// Bytes never sent (or rewound and not yet resent).
        pub(super) fn remaining(&self) -> u64 {
            self.size - self.nxt
        }

        /// The next byte to send.
        pub(super) fn nxt(&self) -> u64 {
            self.nxt
        }

        /// Every byte is acknowledged.
        pub(super) fn acked_all(&self) -> bool {
            self.una >= self.size
        }
    }

    #[cfg(test)]
    mod tests {
        use super::SendSeq;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any run of sends, in-range cumulative ACKs and rewinds
            /// keeps `una <= nxt <= size`, splits the unacknowledged
            /// bytes into in flight and unsent, and reports each byte as
            /// newly acknowledged exactly once.
            #[test]
            fn sends_acks_and_rewinds_conserve_bytes(
                size in 1u64..=50_000,
                mtu in 1u64..=4_000,
                ops in prop::collection::vec((0u8..3, 0u64..u64::MAX), 0usize..=300),
            ) {
                let mut s = SendSeq::new(size);
                let mut newly_sum = 0;
                for (op, draw) in ops {
                    match op {
                        0 => {
                            if s.remaining() > 0 {
                                let nxt = s.nxt;
                                let (seq, len, is_last) = s.send(mtu);
                                prop_assert_eq!(seq, nxt);
                                prop_assert!(len > 0 && u64::from(len) <= mtu);
                                prop_assert_eq!(is_last, s.nxt == size);
                            }
                        }
                        1 => newly_sum += s.ack(draw % (s.nxt + 1)),
                        _ => {
                            let inflight = s.inflight();
                            prop_assert_eq!(s.rewind(), inflight);
                        }
                    }
                    prop_assert!(s.una <= s.nxt && s.nxt <= size);
                    prop_assert_eq!(s.inflight() + s.remaining(), size - s.una);
                    prop_assert_eq!(newly_sum, s.una);
                    prop_assert_eq!(s.acked_all(), s.una == size);
                }
            }
        }

        /// ROADMAP item 1(a) as it stands: three segments out, a rewind,
        /// then an ACK for pre-rewind data lifts `una` past `nxt` (and
        /// `inflight` would underflow). The 1(a) switch — `ack` lifts
        /// `nxt` to `cum` — makes this false; flip the last assertion to
        /// `s.una <= s.nxt` with it.
        #[test]
        fn a_stale_ack_after_a_rewind_leaves_una_past_nxt() {
            let mut s = SendSeq::new(3_000);
            for _ in 0..3 {
                s.send(1_000);
            }
            assert_eq!(s.rewind(), 3_000);
            assert_eq!(s.ack(2_000), 2_000);
            assert!(s.una > s.nxt, "una {} nxt {}", s.una, s.nxt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for kind in [K_FLOW_START, K_PACE, K_RTO, K_CC] {
            for idx in [0usize, 1, 77, 1 << 20] {
                assert_eq!(split_key(key(kind, idx)), (kind, idx));
            }
        }
    }
}
