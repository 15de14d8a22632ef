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
    snd_nxt: u64,
    snd_una: u64,
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

impl SenderFlow {
    fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }
    fn remaining(&self) -> u64 {
        self.spec.size_bytes - self.snd_nxt
    }
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
            snd_nxt: 0,
            snd_una: 0,
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
            if f.done || f.remaining() == 0 {
                return;
            }
            let cwnd = f.cc.cwnd();
            if (f.inflight() as f64) >= cwnd {
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
            let len = mtu.min(f.remaining()) as u32;
            let seq = f.snd_nxt;
            let is_last = seq + len as u64 == f.spec.size_bytes;
            let pkt = Packet::data(
                f.spec.id, f.spec.src, f.spec.dst, seq, len, is_last, ctx.now,
            );
            f.snd_nxt += len as u64;
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
        let newly = pl.cum_ack.saturating_sub(f.snd_una);
        f.snd_una = f.snd_una.max(pl.cum_ack);
        // Feed the control law (an ACK carries the echoed INT stack in
        // its own header field — see `Packet::into_ack`).
        let rtt = ctx.now.saturating_sub(pl.echo_ts);
        let int = (!pkt.int.is_empty()).then_some(&pkt.int);
        f.cc.on_ack(&AckInfo {
            now: ctx.now,
            ack_seq: pl.cum_ack,
            newly_acked: newly,
            snd_nxt: f.snd_nxt,
            rtt,
            int,
            ecn_marked: pl.ecn_echo,
        });
        // Go-back-N on NACK, at most once per guard interval.
        if pl.nack && ctx.now.saturating_sub(f.last_rewind) >= self.cfg.nack_guard {
            f.last_rewind = ctx.now;
            let rewound = f.snd_nxt - f.snd_una;
            f.snd_nxt = f.snd_una;
            f.cc.on_loss(ctx.now, LossKind::Reorder);
            self.metrics
                .borrow_mut()
                .add_retransmission(f.spec.id, rewound);
        }
        // Completion (sender view): all bytes acked.
        if f.snd_una >= f.spec.size_bytes {
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
        if f.inflight() == 0 && f.remaining() == 0 {
            return;
        }
        // Timeout: rewind and back off via the CC.
        let rewound = f.snd_nxt - f.snd_una;
        f.snd_nxt = f.snd_una;
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
