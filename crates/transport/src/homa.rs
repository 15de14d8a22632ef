//! HOMA: receiver-driven, message-oriented transport (Montazeri et al.,
//! SIGCOMM 2018) — the paper's representative of receiver-driven designs
//! (§4.1, Figures 4e/5b, and the Appendix-D overcommitment study).
//!
//! Model implemented here:
//!
//! * **Unscheduled data**: a new message blindly transmits its first
//!   `RTTbytes` at a high priority chosen from size cutoffs.
//! * **Grants**: the receiver keeps `incoming = granted − received ≤
//!   RTTbytes` for each granted message, granting to the
//!   **overcommitment-level** (`K`) messages with the fewest remaining
//!   bytes (SRPT). Scheduled packets carry the priority assigned in the
//!   grant (rank within the active set).
//! * **Priorities**: unscheduled traffic uses classes 0–2 (smaller message
//!   → higher class), scheduled traffic classes 3–7 (better SRPT rank →
//!   higher class), mirroring HOMA's priority layout.
//! * **Loss recovery**: the receiver tracks the in-order prefix; if a
//!   message stalls for a resend interval, it re-issues a grant flagged
//!   `resend`, telling the sender to rewind to the prefix (HOMA's RESEND
//!   in go-back-N form — sufficient for a drop-rare fabric).
//!
//! The paper's RTTBytes knob maps to `HostBw × τ`, and the overcommitment
//! level is the `overcommit` config field (1–6 in Appendix D).

use crate::config::TransportConfig;
use crate::flow::FlowSpec;
use crate::metrics::SharedMetrics;
use crate::timer_key::{key, split_key};
use dcn_sim::{
    Endpoint, EndpointCtx, FlowId, FlowTable, GrantPayload, NodeId, Packet, PacketKind,
    CTRL_PKT_BYTES,
};
use powertcp_core::{Bandwidth, IntHeader, Tick};

const K_MSG_START: u64 = 1;
const K_PACE: u64 = 2;
const K_STALL_SCAN: u64 = 3;

/// HOMA configuration.
#[derive(Clone, Copy, Debug)]
pub struct HomaConfig {
    /// Transport basics (mtu, base RTT).
    pub transport: TransportConfig,
    /// Overcommitment level `K`: how many messages a receiver grants
    /// concurrently (paper Appendix D sweeps 1–6; §4.1 uses 1).
    pub overcommit: usize,
    /// RTTbytes: unscheduled budget and per-message incoming cap. The
    /// paper configures `HostBw × base-RTT`.
    pub rtt_bytes: u64,
    /// Stall scan interval for lost-packet recovery (a few RTTs).
    pub resend_interval: Tick,
}

impl HomaConfig {
    /// Paper-style defaults for a 25G host and the given base RTT.
    pub fn paper_defaults(host_bw: Bandwidth, base_rtt: Tick) -> Self {
        let transport = TransportConfig {
            base_rtt,
            ..TransportConfig::default()
        };
        HomaConfig {
            transport,
            overcommit: 1,
            rtt_bytes: host_bw.bdp_bytes(base_rtt) as u64,
            resend_interval: base_rtt * 20,
        }
    }
}

struct HomaSender {
    spec: FlowSpec,
    /// Bytes sent so far (prefix; rewound on resend).
    sent: u64,
    /// Highest grant received.
    granted: u64,
    /// Priority for scheduled packets (from the latest grant).
    sched_prio: u8,
    next_send: Tick,
    pace_armed_for: Option<Tick>,
    started: bool,
}

struct HomaReceiver {
    src: NodeId,
    msg_len: u64,
    /// In-order prefix received.
    prefix: u64,
    /// Bytes granted (scheduled offset limit).
    granted: u64,
    complete: bool,
    last_progress: Tick,
}

/// HOMA endpoint; one per host (acts as sender and receiver).
pub struct HomaHost {
    cfg: HomaConfig,
    metrics: SharedMetrics,
    senders: Vec<HomaSender>,
    // FlowTable, not BTreeMap: per-packet lookups are slab indexes over
    // the sequential generated ids; `receiver_order` carries the
    // deterministic iteration order, and the table's own ordered
    // iteration matches the old map's (rule R1 in `clippy.toml` guards the
    // same invariant statically).
    sender_index: FlowTable<usize>,
    receivers: FlowTable<HomaReceiver>,
    /// Receive order of message ids (stable iteration for determinism).
    receiver_order: Vec<FlowId>,
    stall_scan_armed: bool,
}

impl HomaHost {
    /// Create a HOMA endpoint.
    pub fn new(cfg: HomaConfig, metrics: SharedMetrics) -> Self {
        assert!(cfg.overcommit >= 1, "overcommit must be >= 1");
        HomaHost {
            cfg,
            metrics,
            senders: Vec::new(),
            sender_index: FlowTable::new(),
            receivers: FlowTable::new(),
            receiver_order: Vec::new(),
            stall_scan_armed: false,
        }
    }

    /// Register an outgoing message.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        assert!(spec.size_bytes > 0);
        self.metrics.borrow_mut().register(spec);
        let idx = self.senders.len();
        self.sender_index.insert(spec.id, idx);
        self.senders.push(HomaSender {
            spec,
            sent: 0,
            granted: 0,
            sched_prio: 5,
            next_send: Tick::ZERO,
            pace_armed_for: None,
            started: false,
        });
    }

    /// Unscheduled priority from message size: small messages go higher
    /// (HOMA derives cutoffs from the workload; fixed cutoffs at one MTU
    /// and RTTbytes preserve the behaviour that matters — short messages
    /// preempt long ones).
    fn unscheduled_prio(&self, len: u64) -> u8 {
        if len <= self.cfg.transport.mtu as u64 {
            0
        } else if len <= self.cfg.rtt_bytes {
            1
        } else {
            2
        }
    }

    fn send_window(&self, s: &HomaSender) -> u64 {
        // Unscheduled budget plus everything granted.
        self.cfg.rtt_bytes.max(s.granted).min(s.spec.size_bytes)
    }

    /// Pump one sender message.
    fn pump(&mut self, idx: usize, ctx: &mut EndpointCtx<'_>) {
        let mtu = self.cfg.transport.mtu as u64;
        let unsched_prio = self.unscheduled_prio(self.senders[idx].spec.size_bytes);
        loop {
            let limit = self.send_window(&self.senders[idx]);
            let s = &mut self.senders[idx];
            if s.sent >= s.spec.size_bytes || s.sent >= limit {
                return;
            }
            if ctx.now < s.next_send {
                if s.pace_armed_for != Some(s.next_send) {
                    s.pace_armed_for = Some(s.next_send);
                    ctx.set_timer(s.next_send, key(K_PACE, idx));
                }
                return;
            }
            let len = mtu.min(s.spec.size_bytes - s.sent).min(limit - s.sent) as u32;
            let offset = s.sent;
            let unscheduled = offset < self.cfg.rtt_bytes;
            let prio = if unscheduled {
                unsched_prio
            } else {
                s.sched_prio
            };
            let pkt = Packet {
                flow: s.spec.id,
                src: s.spec.src,
                dst: s.spec.dst,
                size: len,
                priority: prio,
                ecn_capable: false,
                ecn_ce: false,
                int_enable: false,
                int: IntHeader::new(),
                sent_at: ctx.now,
                kind: PacketKind::HomaData {
                    offset,
                    len,
                    msg_len: s.spec.size_bytes,
                    unscheduled,
                },
            };
            s.sent += len as u64;
            // Pace at line rate; grants control the average rate.
            let gap = ctx.nic_bw.tx_time(len as u64);
            s.next_send = s.next_send.max(ctx.now) + gap;
            ctx.send(pkt);
        }
    }

    /// Receiver-side: (re)issue grants to the top-K incomplete messages by
    /// remaining bytes (SRPT), keeping incoming ≤ RTTbytes each.
    fn regrant(&mut self, ctx: &mut EndpointCtx<'_>) {
        // Rank incomplete messages by remaining bytes.
        let mut active: Vec<(u64, FlowId)> = self
            .receiver_order
            .iter()
            .filter_map(|id| {
                let r = self.receivers.get(*id)?;
                if r.complete {
                    return None;
                }
                Some((r.msg_len - r.prefix, *id))
            })
            .collect();
        active.sort();
        let k = self.cfg.overcommit.min(active.len());
        let mut grants = Vec::new();
        for (rank, &(_, id)) in active.iter().take(k).enumerate() {
            let r = self.receivers.get_mut(id).expect("active message");
            // Scheduled priorities: classes 3..7, better rank = higher.
            let prio = (3 + rank).min(7) as u8;
            let desired = (r.prefix + self.cfg.rtt_bytes).min(r.msg_len);
            if desired > r.granted {
                r.granted = desired;
                grants.push((id, r.src, desired, prio));
            }
        }
        for (id, src, offset, prio) in grants {
            self.send_grant(id, src, offset, prio, ctx);
        }
    }

    fn send_grant(&self, id: FlowId, to: NodeId, offset: u64, prio: u8, ctx: &mut EndpointCtx<'_>) {
        let pkt = Packet {
            flow: id,
            src: ctx.node,
            dst: to,
            size: CTRL_PKT_BYTES,
            priority: 0,
            ecn_capable: false,
            ecn_ce: false,
            int_enable: false,
            int: IntHeader::new(),
            sent_at: ctx.now,
            kind: PacketKind::HomaGrant(GrantPayload {
                // A resend grant has no flag of its own: its offset is
                // at or below what the sender already sent, which
                // `on_grant` treats as a rewind request.
                grant_offset: offset,
                priority: prio,
            }),
        };
        ctx.send(pkt);
    }

    fn on_data(&mut self, pkt: &Packet, ctx: &mut EndpointCtx<'_>) {
        let PacketKind::HomaData {
            offset,
            len,
            msg_len,
            ..
        } = pkt.kind
        else {
            return;
        };
        if !self.receivers.contains_key(pkt.flow) {
            self.receivers.insert(
                pkt.flow,
                HomaReceiver {
                    src: pkt.src,
                    msg_len,
                    prefix: 0,
                    granted: self.cfg.rtt_bytes.min(msg_len),
                    complete: false,
                    last_progress: ctx.now,
                },
            );
            self.receiver_order.push(pkt.flow);
        }
        let r = self.receivers.get_mut(pkt.flow).expect("just inserted");
        if offset == r.prefix {
            r.prefix += len as u64;
            r.last_progress = ctx.now;
        }
        // (offset > prefix: a gap — ignored, recovered by stall resend;
        //  offset < prefix: duplicate from a rewind — ignored.)
        if !r.complete && r.prefix >= r.msg_len {
            r.complete = true;
            self.metrics.borrow_mut().complete(pkt.flow, ctx.now);
        }
        self.regrant(ctx);
        if !self.stall_scan_armed {
            self.stall_scan_armed = true;
            ctx.set_timer(ctx.now + self.cfg.resend_interval, key(K_STALL_SCAN, 0));
        }
    }

    fn on_grant(&mut self, pkt: &Packet, ctx: &mut EndpointCtx<'_>) {
        let PacketKind::HomaGrant(g) = pkt.kind else {
            return;
        };
        let Some(&idx) = self.sender_index.get(pkt.flow) else {
            return;
        };
        let s = &mut self.senders[idx];
        s.sched_prio = g.priority.clamp(3, 7);
        if g.grant_offset > s.granted {
            s.granted = g.grant_offset;
        } else if g.grant_offset <= s.sent && g.grant_offset < s.spec.size_bytes {
            // Resend request: rewind to the receiver's prefix.
            let rewound = s.sent - g.grant_offset;
            s.sent = g.grant_offset;
            s.granted = s.granted.max(g.grant_offset);
            self.metrics
                .borrow_mut()
                .add_retransmission(pkt.flow, rewound);
        }
        self.pump(idx, ctx);
    }

    /// Periodic scan for stalled messages → resend grants.
    fn stall_scan(&mut self, ctx: &mut EndpointCtx<'_>) {
        self.stall_scan_armed = false;
        let mut resends = Vec::new();
        let mut any_active = false;
        for id in &self.receiver_order {
            let r = self.receivers.get(*id).expect("ordered message");
            if r.complete {
                continue;
            }
            any_active = true;
            // A message is genuinely stalled only if bytes it was granted
            // (or unscheduled bytes) never arrived; ungranted messages are
            // merely waiting their SRPT turn.
            let expected_missing = r.prefix < r.granted;
            if expected_missing
                && ctx.now.saturating_sub(r.last_progress) >= self.cfg.resend_interval
            {
                resends.push((*id, r.src, r.prefix));
            }
        }
        for (id, src, prefix) in resends {
            // Rewind-to-prefix grant (offset <= sent signals resend).
            self.send_grant(id, src, prefix, 5, ctx);
        }
        if any_active {
            self.stall_scan_armed = true;
            ctx.set_timer(ctx.now + self.cfg.resend_interval, key(K_STALL_SCAN, 0));
        }
    }
}

impl Endpoint for HomaHost {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        for (idx, s) in self.senders.iter().enumerate() {
            ctx.set_timer(s.spec.start, key(K_MSG_START, idx));
        }
    }

    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        match pkt.kind {
            PacketKind::HomaData { .. } => self.on_data(&pkt, ctx),
            PacketKind::HomaGrant(_) => self.on_grant(&pkt, ctx),
            _ => {}
        }
        ctx.recycle(pkt);
    }

    fn on_timer(&mut self, k: u64, ctx: &mut EndpointCtx<'_>) {
        let (kind, idx) = split_key(k);
        match kind {
            K_MSG_START => {
                if let Some(s) = self.senders.get_mut(idx) {
                    if !s.started {
                        s.started = true;
                        s.next_send = ctx.now;
                        self.pump(idx, ctx);
                    }
                }
            }
            K_PACE => {
                if let Some(s) = self.senders.get_mut(idx) {
                    if s.pace_armed_for.is_some_and(|t| t <= ctx.now) {
                        s.pace_armed_for = None;
                    }
                    self.pump(idx, ctx);
                }
            }
            K_STALL_SCAN => self.stall_scan(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        for kind in [K_MSG_START, K_PACE, K_STALL_SCAN] {
            for idx in [0usize, 3, 500] {
                assert_eq!(split_key(key(kind, idx)), (kind, idx));
            }
        }
    }

    #[test]
    fn unscheduled_priority_cutoffs() {
        let cfg = HomaConfig::paper_defaults(Bandwidth::gbps(25), Tick::from_micros(20));
        let h = HomaHost::new(cfg, crate::metrics::MetricsHub::new_shared());
        assert_eq!(h.unscheduled_prio(500), 0);
        assert_eq!(h.unscheduled_prio(10_000), 1);
        assert_eq!(h.unscheduled_prio(10_000_000), 2);
    }

    #[test]
    #[should_panic]
    fn zero_overcommit_rejected() {
        let mut cfg = HomaConfig::paper_defaults(Bandwidth::gbps(25), Tick::from_micros(20));
        cfg.overcommit = 0;
        HomaHost::new(cfg, crate::metrics::MetricsHub::new_shared());
    }
}
