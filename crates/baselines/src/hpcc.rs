//! HPCC: High Precision Congestion Control (Li et al., SIGCOMM 2019) —
//! the paper's strongest baseline and the algorithm whose INT feedback
//! PowerTCP reuses.
//!
//! Faithful reimplementation of the paper's Algorithm 1: per-link inflight
//! estimation `U = qlen/(B·T) + txRate/B` from consecutive INT snapshots,
//! EWMA over the max-utilization hop, multiplicative adjustment towards
//! `η` utilization with a reference window `Wc` updated once per RTT, and
//! at most `maxStage` consecutive additive-increase rounds between
//! multiplicative adjustments.
//!
//! Constants (the HPCC paper's): [`ETA`] `= 0.95`, the target
//! utilization; `maxStage = 5`;
//! `W_AI = W_init·(1−η)/N`; and a 256-byte window floor. The window
//! starts at, and is capped by, `W_init`, one host BDP.
//!
//! In the PowerTCP paper's classification this is *voltage-based* CC: it
//! reacts to queue length plus rate (absolute state), not to the queue's
//! rate of change — which is exactly why it under-reacts at congestion
//! onset and briefly loses throughput after draining (Figure 4d).

use powertcp_core::{
    clamp_cwnd, rate_from_cwnd, AckInfo, Bandwidth, CcContext, CongestionControl, IntHop, LossKind,
    Tick, MAX_INT_HOPS,
};

/// The HPCC paper's target utilization η.
pub const ETA: f64 = 0.95;
/// Max consecutive additive-increase stages (paper: 5).
const MAX_STAGE: u32 = 5;
/// Lower window clamp in bytes.
const MIN_CWND_BYTES: f64 = 256.0;

/// The HPCC sender.
#[derive(Clone, Debug)]
pub struct Hpcc {
    ctx: CcContext,
    cwnd: f64,
    /// Reference window `Wc`, updated once per RTT.
    wc: f64,
    inc_stage: u32,
    last_update_seq: u64,
    /// Smoothed inflight estimate `U`.
    u: f64,
    prev: [IntHop; MAX_INT_HOPS],
    prev_len: usize,
    have_prev: bool,
    max_cwnd: f64,
}

impl Hpcc {
    /// Create an HPCC instance for one flow.
    pub fn new(ctx: CcContext) -> Self {
        let init = ctx.host_bdp_bytes();
        Hpcc {
            ctx,
            cwnd: init,
            wc: init,
            inc_stage: 0,
            last_update_seq: 0,
            u: 1.0,
            prev: [IntHop::default(); MAX_INT_HOPS],
            prev_len: 0,
            have_prev: false,
            max_cwnd: init,
        }
    }

    /// The additive increase `W_AI = W_init·(1−η)/N` in bytes.
    pub fn wai(&self) -> f64 {
        self.ctx.host_bdp_bytes() * (1.0 - ETA) / self.ctx.expected_flows.max(1) as f64
    }

    /// Smoothed inflight estimate (diagnostics).
    pub fn inflight_estimate(&self) -> f64 {
        self.u
    }

    /// MeasureInflight of Algorithm 1; returns the updated EWMA U.
    fn measure_inflight(&mut self, hops: &[IntHop]) -> Option<f64> {
        if hops.is_empty() {
            return None;
        }
        if !self.have_prev || self.prev_len != hops.len() {
            self.store_prev(hops);
            self.have_prev = true;
            return None;
        }
        let t = self.ctx.base_rtt.as_secs_f64();
        let mut best: Option<(f64, Tick)> = None;
        for (cur, prev) in hops.iter().zip(self.prev.iter()) {
            let dt_tick = cur.ts.saturating_sub(prev.ts);
            if dt_tick.is_zero() {
                continue;
            }
            let dt = dt_tick.as_secs_f64();
            let b = cur.bandwidth.bytes_per_sec();
            if b <= 0.0 {
                continue;
            }
            let tx_rate = cur.tx_bytes.wrapping_sub(prev.tx_bytes) as f64 / dt;
            // min(q, q_prev): the paper's noise filter against transient
            // spikes within one sampling interval.
            let q = cur.qlen_bytes.min(prev.qlen_bytes) as f64;
            let u_hop = q / (b * t) + tx_rate / b;
            if best.is_none_or(|(u, _)| u_hop > u) {
                best = Some((u_hop, dt_tick));
            }
        }
        self.store_prev(hops);
        let (u_max, tau_tick) = best?;
        let tau = tau_tick.as_secs_f64().min(t);
        self.u = self.u * (1.0 - tau / t) + u_max * (tau / t);
        Some(self.u)
    }

    /// ComputeWind of Algorithm 1.
    fn compute_wind(&mut self, u: f64, update_wc: bool) {
        let wai = self.wai();
        if u >= ETA || self.inc_stage >= MAX_STAGE {
            // Multiplicative adjustment towards η utilization.
            let w = self.wc / (u / ETA) + wai;
            self.cwnd = clamp_cwnd(w, MIN_CWND_BYTES, self.max_cwnd);
            if update_wc {
                self.inc_stage = 0;
                self.wc = self.cwnd;
            }
        } else {
            let w = self.wc + wai;
            self.cwnd = clamp_cwnd(w, MIN_CWND_BYTES, self.max_cwnd);
            if update_wc {
                self.inc_stage += 1;
                self.wc = self.cwnd;
            }
        }
    }

    fn store_prev(&mut self, hops: &[IntHop]) {
        self.prev[..hops.len()].copy_from_slice(hops);
        self.prev_len = hops.len();
    }
}

impl CongestionControl for Hpcc {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        let Some(int) = ack.int else { return };
        let Some(u) = self.measure_inflight(int.hops()) else {
            return;
        };
        let update_wc = ack.ack_seq >= self.last_update_seq;
        self.compute_wind(u, update_wc);
        if update_wc {
            self.last_update_seq = ack.snd_nxt;
        }
    }

    fn on_loss(&mut self, _now: Tick, kind: LossKind) {
        if kind == LossKind::Timeout {
            self.cwnd = clamp_cwnd(self.cwnd * 0.5, MIN_CWND_BYTES, self.max_cwnd);
            self.wc = self.cwnd;
        }
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate(&self) -> Bandwidth {
        rate_from_cwnd(self.cwnd, self.ctx.base_rtt, self.ctx.host_bw)
    }

    fn name(&self) -> &'static str {
        "hpcc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powertcp_core::IntHeader;

    fn ctx() -> CcContext {
        CcContext {
            base_rtt: Tick::from_micros(20),
            host_bw: Bandwidth::gbps(25),
            mtu: 1000,
            expected_flows: 8,
        }
    }

    fn hdr(ts: Tick, qlen: u64, tx: u64) -> IntHeader {
        let mut h = IntHeader::new();
        h.push(IntHop {
            qlen_bytes: qlen,
            ts,
            tx_bytes: tx,
            bandwidth: Bandwidth::gbps(25),
        });
        h
    }

    fn ack(now: Tick, seq: u64, h: &IntHeader) -> AckInfo<'_> {
        AckInfo {
            now,
            ack_seq: seq,
            newly_acked: 1000,
            snd_nxt: seq + 62_500,
            rtt: Tick::from_micros(22),
            int: Some(h),
            ecn_marked: false,
        }
    }

    #[test]
    fn initial_window_and_wai() {
        let h = Hpcc::new(ctx());
        assert!((h.cwnd() - 62_500.0).abs() < 1e-9);
        // W_init (1-eta)/N = 62500*0.05/8.
        assert!((h.wai() - 390.625).abs() < 1e-9);
    }

    #[test]
    fn overutilized_link_shrinks_window() {
        let mut h = Hpcc::new(ctx());
        let b = Bandwidth::gbps(25).bytes_per_sec();
        let dt = Tick::from_micros(2);
        let full = (b * dt.as_secs_f64()).round() as u64;
        let q = 125_000; // 2 BDP queued
        let mut now = Tick::from_micros(100);
        h.on_ack(&ack(now, 1000, &hdr(now, q, 0)));
        let w0 = h.cwnd();
        for i in 1..60u64 {
            now += dt;
            h.on_ack(&ack(now, 1000 + i * 1000, &hdr(now, q, i * full)));
        }
        // U -> 1 + q/(B·T) = 3; window -> Wc/(3/0.95) shrinking powerfully.
        assert!(h.cwnd() < 0.5 * w0, "cwnd={} w0={}", h.cwnd(), w0);
        assert!(h.inflight_estimate() > 2.0);
    }

    #[test]
    fn underutilized_link_grows_multiplicatively_after_stages() {
        let mut h = Hpcc::new(ctx());
        h.cwnd = 10_000.0;
        h.wc = 10_000.0;
        let b = Bandwidth::gbps(25).bytes_per_sec();
        let dt = Tick::from_micros(2);
        let quarter = (b * dt.as_secs_f64() / 4.0).round() as u64;
        let mut now = Tick::from_micros(100);
        let mut seq = 0u64;
        h.on_ack(&ack(now, seq, &hdr(now, 0, 0)));
        let w0 = h.cwnd();
        // 25% utilization sustained for many RTT-gated updates.
        for i in 1..200u64 {
            now += dt;
            seq += 7000; // crosses snd_nxt gates regularly
            h.on_ack(&ack(now, seq, &hdr(now, 0, i * quarter)));
        }
        assert!(
            h.cwnd() > 2.0 * w0,
            "must eventually MI: cwnd={} w0={}",
            h.cwnd(),
            w0
        );
    }

    #[test]
    fn additive_stage_counting_respects_max_stage() {
        let mut h = Hpcc::new(ctx());
        // Start deflated so multiplicative increase is observable below
        // the window clamp; feed utilization below η to exercise AI.
        h.cwnd = 20_000.0;
        h.wc = 20_000.0;
        let b = Bandwidth::gbps(25).bytes_per_sec();
        let dt = Tick::from_micros(2);
        let tx = (b * dt.as_secs_f64() * 0.5).round() as u64; // u = 0.5
        let mut now = Tick::from_micros(100);
        let mut seq = 0u64;
        h.on_ack(&ack(now, seq, &hdr(now, 0, 0)));
        let mut tot = 0u64;
        // Drive updates; after maxStage AI rounds an MI round must fire.
        let mut saw_mi_jump = false;
        let mut prev = h.cwnd();
        for _i in 1..40u64 {
            now += dt;
            seq += 70_000; // force per-RTT update every ack
            tot += tx;
            h.on_ack(&ack(now, seq, &hdr(now, 0, tot)));
            let delta = h.cwnd() - prev;
            if delta > h.wai() * 4.0 {
                saw_mi_jump = true;
            }
            prev = h.cwnd();
        }
        assert!(saw_mi_jump, "MI must fire after maxStage AI rounds");
    }

    #[test]
    fn window_bounded_under_noise() {
        let mut h = Hpcc::new(ctx());
        let mut now = Tick::from_micros(100);
        let mut tx = 0u64;
        for i in 0..300u64 {
            now += Tick::from_nanos(200 + (i * 7919) % 4000);
            tx = tx.wrapping_add((i * 104_729) % 60_000);
            let q = (i * 48_611) % 3_000_000;
            h.on_ack(&ack(now, i * 1000, &hdr(now, q, tx)));
            assert!(h.cwnd().is_finite());
            assert!(h.cwnd() >= MIN_CWND_BYTES && h.cwnd() <= h.max_cwnd);
        }
    }
}
