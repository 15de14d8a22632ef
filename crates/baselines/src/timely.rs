//! TIMELY (Mittal et al., SIGCOMM 2015): RTT-gradient rate control — the
//! paper's canonical *current-based* CC.
//!
//! Reacts to the *derivative* of the RTT rather than its absolute value
//! (except outside the [Tlow, Thigh] guard band). The PowerTCP paper's
//! analysis (§2.2, Appendix C) shows this has no unique equilibrium: the
//! gradient stabilizes at any queue length, which our Figure-3 fluid
//! reproduction and the packet-level fairness runs both exhibit.
//!
//! Implementation follows the paper's pseudocode with the patched gradient
//! (EWMA-smoothed RTT differences normalized by the minimum RTT), additive
//! increase `δ` below Tlow / on negative gradient (with HAI after five
//! consecutive negative-gradient updates), and multiplicative decrease
//! proportional to the positive gradient.
//!
//! Constants (no spec sets them). The paper's absolute thresholds (tuned
//! for 10G, 10–100 µs fabrics) are expressed relative to the base RTT τ so
//! the algorithm works across our topologies: `T_low = 1.1 τ`,
//! `T_high = 3 τ`; an EWMA weight of 0.125 for a new RTT difference
//! (the paper's α = 0.875 retained), `β = 0.8`, `δ` = 1 % of line rate,
//! hyper-AI (5δ) after 5 consecutive negative-gradient updates, and a
//! rate floor of 1 % of line rate.

use powertcp_core::{AckInfo, Bandwidth, CcContext, CongestionControl, LossKind, Tick};

/// EWMA weight of a new RTT-difference sample (the paper's α = 0.875 is
/// the retained fraction).
const EWMA_WEIGHT: f64 = 0.125;
/// Multiplicative-decrease aggressiveness β.
const BETA: f64 = 0.8;
/// Additive increase δ as a fraction of line rate.
const DELTA_FRACTION: f64 = 0.01;
/// Low RTT threshold as a multiple of base RTT (below: pure AI).
const T_LOW_FACTOR: f64 = 1.1;
/// High RTT threshold as a multiple of base RTT (above: proportional MD
/// regardless of gradient).
const T_HIGH_FACTOR: f64 = 3.0;
/// Consecutive negative-gradient updates before hyper-AI.
const HAI_THRESHOLD: u32 = 5;
/// Minimum rate floor as a fraction of line rate.
const MIN_RATE_FRACTION: f64 = 0.01;

/// The TIMELY rate-based sender.
#[derive(Clone, Debug)]
pub struct Timely {
    ctx: CcContext,
    rate: f64, // bytes/s
    prev_rtt: Option<Tick>,
    rtt_diff_smoothed: f64, // seconds
    neg_gradient_count: u32,
    /// Completion gate: update once per RTT worth of ACKed bytes, as the
    /// paper's implementation does.
    last_update_seq: u64,
    line_rate: f64,
}

impl Timely {
    /// Create a TIMELY instance for one flow; starts at line rate.
    pub fn new(ctx: CcContext) -> Self {
        let line = ctx.host_bw.bytes_per_sec();
        Timely {
            ctx,
            rate: line,
            prev_rtt: None,
            rtt_diff_smoothed: 0.0,
            neg_gradient_count: 0,
            last_update_seq: 0,
            line_rate: line,
        }
    }

    fn delta(&self) -> f64 {
        self.line_rate * DELTA_FRACTION
    }

    fn update(&mut self, rtt: Tick) {
        let tau = self.ctx.base_rtt.as_secs_f64();
        let prev = match self.prev_rtt.replace(rtt) {
            Some(p) => p,
            None => return,
        };
        let diff = rtt.as_secs_f64() - prev.as_secs_f64();
        self.rtt_diff_smoothed = (1.0 - EWMA_WEIGHT) * self.rtt_diff_smoothed + EWMA_WEIGHT * diff;
        let gradient = self.rtt_diff_smoothed / tau;
        let rtt_s = rtt.as_secs_f64();
        let t_low = tau * T_LOW_FACTOR;
        let t_high = tau * T_HIGH_FACTOR;

        if rtt_s < t_low {
            // Well under target: additive increase, gradient ignored.
            self.neg_gradient_count = self.neg_gradient_count.saturating_add(1);
            self.rate += self.delta();
        } else if rtt_s > t_high {
            // Far over target: proportional decrease regardless of trend.
            self.neg_gradient_count = 0;
            self.rate *= 1.0 - BETA * (1.0 - t_high / rtt_s);
        } else if gradient <= 0.0 {
            self.neg_gradient_count += 1;
            let n = if self.neg_gradient_count >= HAI_THRESHOLD {
                5.0
            } else {
                1.0
            };
            self.rate += n * self.delta();
        } else {
            self.neg_gradient_count = 0;
            self.rate *= 1.0 - BETA * gradient.min(1.0);
        }
        self.rate = self
            .rate
            .clamp(self.line_rate * MIN_RATE_FRACTION, self.line_rate);
    }
}

impl CongestionControl for Timely {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        // Gate to one rate decision per RTT of ACKed data.
        if ack.ack_seq < self.last_update_seq {
            return;
        }
        self.last_update_seq = ack.snd_nxt;
        self.update(ack.rtt);
    }

    fn on_loss(&mut self, _now: Tick, kind: LossKind) {
        if kind == LossKind::Timeout {
            self.rate = (self.rate * 0.5).max(self.line_rate * MIN_RATE_FRACTION);
        }
    }

    fn cwnd(&self) -> f64 {
        (self.rate * self.ctx.base_rtt.as_secs_f64() * 2.0).max(self.ctx.mtu as f64)
    }

    fn pacing_rate(&self) -> Bandwidth {
        Bandwidth::from_bps((self.rate * 8.0) as u64)
    }

    fn name(&self) -> &'static str {
        "timely"
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

    fn ack(now_us: u64, seq: u64, rtt: Tick) -> AckInfo<'static> {
        AckInfo {
            now: Tick::from_micros(now_us),
            ack_seq: seq,
            newly_acked: 1000,
            snd_nxt: seq + 1, // every ack passes the RTT gate
            rtt,
            int: None,
            ecn_marked: false,
        }
    }

    #[test]
    fn rising_rtt_cuts_rate() {
        let mut t = Timely::new(ctx());
        let r0 = t.rate;
        // RTT ramping 24 -> 43 us: positive gradient inside the band.
        for i in 0..20u64 {
            t.on_ack(&ack(100 + i, i, Tick::from_micros(24 + i)));
        }
        assert!(t.rate < 0.8 * r0, "rate={} r0={}", t.rate, r0);
        assert!(t.rtt_diff_smoothed > 0.0);
    }

    #[test]
    fn flat_rtt_at_any_level_grows_rate() {
        // The defining current-based blindness: a *stable* 2-BDP queue
        // (RTT inside the band, zero gradient) still increases the rate.
        let mut t = Timely::new(ctx());
        t.rate = t.line_rate * 0.5;
        let r0 = t.rate;
        for i in 0..10u64 {
            t.on_ack(&ack(100 + i, i, Tick::from_micros(45)));
        }
        assert!(
            t.rate > r0,
            "zero gradient must grow rate regardless of queue"
        );
    }

    #[test]
    fn low_rtt_additive_increase() {
        let mut t = Timely::new(ctx());
        t.rate = t.line_rate * 0.25;
        let r0 = t.rate;
        for i in 0..10u64 {
            t.on_ack(&ack(100 + i, i, Tick::from_micros(20)));
        }
        let grown = t.rate - r0;
        assert!(grown > 0.0);
        // Growth is additive: bounded by ~10 * 5δ (with HAI).
        assert!(grown <= 51.0 * t.delta());
    }

    #[test]
    fn very_high_rtt_decreases_even_with_negative_gradient() {
        let mut t = Timely::new(ctx());
        // RTT falling but far above Thigh (60us = 3x base): must decrease.
        t.on_ack(&ack(100, 0, Tick::from_micros(200)));
        let r0 = t.rate;
        t.on_ack(&ack(101, 1, Tick::from_micros(190)));
        assert!(t.rate < r0);
    }

    #[test]
    fn rate_stays_in_bounds_under_noise() {
        let mut t = Timely::new(ctx());
        for i in 0..500u64 {
            let rtt = Tick::from_nanos(20_000 + (i * 104_729) % 150_000);
            t.on_ack(&ack(100 + i, i, rtt));
            assert!(t.rate > 0.0);
            assert!(t.rate <= t.line_rate);
        }
    }

    #[test]
    fn timeout_halves_rate() {
        let mut t = Timely::new(ctx());
        let r0 = t.rate;
        t.on_loss(Tick::from_micros(10), LossKind::Timeout);
        assert!((t.rate - r0 / 2.0).abs() < 1.0);
    }
}
