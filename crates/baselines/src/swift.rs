//! Swift (Kumar et al., SIGCOMM 2020): delay-target AIMD — TIMELY's
//! production successor at Google and the paper's example of a
//! current-based CC "evolving into" a voltage-based one (§2).
//!
//! Core rule: compare the measured end-to-end delay against a target that
//! scales with 1/√cwnd (flow-count scaling); additive increase below
//! target, multiplicative decrease proportional to the overshoot above it,
//! with decreases paced to once per RTT and bounded by `max_mdf`.
//!
//! Constants (the Swift paper's defaults, expressed against the base RTT;
//! no spec sets them): a base target of 1.25 τ, a flow-scaling range of
//! 0.5 τ per 1/√cwnd (capped at four times that), additive increase of one
//! MTU per RTT, `β = 0.8`, `max_mdf = 0.5`, and a 256-byte window floor.
//! The window starts at, and is capped by, one host BDP.

use powertcp_core::{
    clamp_cwnd, rate_from_cwnd, AckInfo, Bandwidth, CcContext, CongestionControl, LossKind, Tick,
};

/// Base target delay as a multiple of base RTT.
const BASE_TARGET_FACTOR: f64 = 1.25;
/// Additive increase per RTT, in MTUs.
const AI_MTUS: f64 = 1.0;
/// Multiplicative-decrease aggressiveness β.
const BETA: f64 = 0.8;
/// Maximum decrease per RTT.
const MAX_MDF: f64 = 0.5;
/// Flow-scaling range: extra target delay per 1/√cwnd, as a multiple of
/// base RTT.
const FS_RANGE_FACTOR: f64 = 0.5;
/// Minimum window in bytes.
const MIN_CWND_BYTES: f64 = 256.0;

/// The Swift sender.
#[derive(Clone, Debug)]
pub struct Swift {
    ctx: CcContext,
    cwnd: f64,
    last_decrease: Tick,
    max_cwnd: f64,
}

impl Swift {
    /// Create a Swift instance for one flow.
    pub fn new(ctx: CcContext) -> Self {
        let init = ctx.host_bdp_bytes();
        Swift {
            ctx,
            cwnd: init,
            last_decrease: Tick::ZERO,
            max_cwnd: init,
        }
    }

    /// Current target delay for the current window.
    pub fn target_delay(&self) -> f64 {
        let tau = self.ctx.base_rtt.as_secs_f64();
        let base = tau * BASE_TARGET_FACTOR;
        // Flow scaling: smaller windows (more competing flows) tolerate
        // more queueing; clamp the extra range.
        let cwnd_pkts = (self.cwnd / self.ctx.mtu as f64).max(0.0625);
        let extra = (tau * FS_RANGE_FACTOR / cwnd_pkts.sqrt()).min(tau * FS_RANGE_FACTOR * 4.0);
        base + extra
    }
}

impl CongestionControl for Swift {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        let delay = ack.rtt.as_secs_f64();
        let target = self.target_delay();
        let mtu = self.ctx.mtu as f64;
        if delay < target {
            // Additive increase, scaled per-ack (ai per RTT overall).
            let cwnd_pkts = (self.cwnd / mtu).max(1.0);
            self.cwnd += AI_MTUS * mtu * (ack.newly_acked as f64 / mtu) / cwnd_pkts;
        } else if ack.now.saturating_sub(self.last_decrease) >= self.ctx.base_rtt {
            // Multiplicative decrease proportional to overshoot, at most
            // once per RTT and bounded by max_mdf.
            let md = (BETA * (delay - target) / delay).min(MAX_MDF);
            self.cwnd *= 1.0 - md;
            self.last_decrease = ack.now;
        }
        self.cwnd = clamp_cwnd(self.cwnd, MIN_CWND_BYTES, self.max_cwnd);
    }

    fn on_loss(&mut self, now: Tick, kind: LossKind) {
        if kind == LossKind::Timeout && now.saturating_sub(self.last_decrease) >= self.ctx.base_rtt
        {
            self.cwnd = clamp_cwnd(self.cwnd * (1.0 - MAX_MDF), MIN_CWND_BYTES, self.max_cwnd);
            self.last_decrease = now;
        }
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate(&self) -> Bandwidth {
        rate_from_cwnd(self.cwnd, self.ctx.base_rtt, self.ctx.host_bw)
    }

    fn name(&self) -> &'static str {
        "swift"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CcContext {
        CcContext {
            base_rtt: Tick::from_micros(20),
            host_bw: Bandwidth::gbps(25),
            mtu: 1000,
            expected_flows: 8,
        }
    }

    fn ack(now_us: u64, rtt_us: u64) -> AckInfo<'static> {
        AckInfo {
            now: Tick::from_micros(now_us),
            ack_seq: 0,
            newly_acked: 1000,
            snd_nxt: 1000,
            rtt: Tick::from_micros(rtt_us),
            int: None,
            ecn_marked: false,
        }
    }

    #[test]
    fn below_target_grows_additively() {
        let mut s = Swift::new(ctx());
        s.cwnd = 20_000.0;
        let w0 = s.cwnd();
        for i in 0..20 {
            s.on_ack(&ack(100 + i, 20));
        }
        assert!(s.cwnd() > w0);
        assert!(s.cwnd() < w0 + 20.0 * 1000.0, "growth must be additive");
    }

    #[test]
    fn above_target_decreases_once_per_rtt() {
        let mut s = Swift::new(ctx());
        let w0 = s.cwnd();
        // Two back-to-back over-target ACKs within one RTT: one decrease.
        s.on_ack(&ack(100, 60));
        let w1 = s.cwnd();
        assert!(w1 < w0);
        s.on_ack(&ack(101, 60));
        assert_eq!(s.cwnd(), w1, "second decrease gated within one RTT");
        // After an RTT, it decreases again.
        s.on_ack(&ack(125, 60));
        assert!(s.cwnd() < w1);
    }

    #[test]
    fn decrease_bounded_by_max_mdf() {
        let mut s = Swift::new(ctx());
        let w0 = s.cwnd();
        s.on_ack(&ack(100, 100_000)); // absurd RTT
        assert!(s.cwnd() >= w0 * (1.0 - 0.5) - 1.0);
    }

    #[test]
    fn target_scales_with_window() {
        let mut s = Swift::new(ctx());
        s.cwnd = 62_500.0;
        let t_large = s.target_delay();
        s.cwnd = 1_000.0;
        let t_small = s.target_delay();
        assert!(
            t_small > t_large,
            "smaller windows must tolerate more delay (flow scaling)"
        );
    }

    #[test]
    fn window_bounded_under_noise() {
        let mut s = Swift::new(ctx());
        for i in 0..300u64 {
            let rtt = 15 + (i * 7919) % 200;
            s.on_ack(&ack(100 + i, rtt));
            assert!(s.cwnd() >= MIN_CWND_BYTES);
            assert!(s.cwnd() <= s.max_cwnd);
        }
    }
}
