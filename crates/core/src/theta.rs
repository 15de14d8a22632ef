//! θ-PowerTCP (Algorithm 2): the standalone, switch-support-free variant.
//!
//! With legacy switches the sender cannot observe per-hop queue lengths, so
//! the power term is re-derived from end-to-end delay (Eq. 8):
//!
//! ```text
//! e/f  =  τ / ( (θ̇ + 1) · θ )
//! ```
//!
//! where `θ` is the measured RTT and `θ̇` the RTT gradient, under the
//! assumption that the bottleneck transmits at full bandwidth (`µ = b`).
//! The paper notes two consequences, both reproduced by our evaluation:
//! θ-PowerTCP cannot detect *under*-utilization (RTT stays at τ whether the
//! link is 10% or 100% busy), so it falls back to slow additive increase
//! for ramp-up, and in multi-bottleneck settings it reacts to the *sum* of
//! queueing delays instead of the single most-bottlenecked hop. It updates
//! once per RTT rather than per ACK. The update itself (Eq. 7, its clamps
//! and the timeout back-off) is the window PowerTCP shares (`window.rs`,
//! which lists the constants); this file measures `Γ_norm` from the RTT
//! and gates the update.

use crate::cc::{AckInfo, CcContext, CongestionControl, LossKind};
use crate::power::{MAX_NORM_POWER, MIN_NORM_POWER};
use crate::time::Tick;
use crate::units::Bandwidth;
use crate::window::Window;

/// The delay-based θ-PowerTCP sender.
#[derive(Clone, Debug)]
pub struct ThetaPowerTcp {
    /// The flow's base RTT τ, in seconds.
    tau: f64,
    window: Window,
    /// Sequence gate for once-per-RTT window updates (`lastUpdated`).
    last_updated_seq: u64,
    prev_rtt: Option<Tick>,
    /// Receive time of the previous ACK (`t_c^prev`).
    prev_ack_time: Option<Tick>,
    smoothed_power: f64,
}

impl ThetaPowerTcp {
    /// Create a θ-PowerTCP instance for one flow with EWMA gain `gamma`
    /// ([`GAMMA`](crate::GAMMA) is the paper's value).
    pub fn new(gamma: f64, ctx: CcContext) -> Self {
        ThetaPowerTcp {
            tau: ctx.base_rtt.as_secs_f64(),
            window: Window::new(gamma, ctx),
            last_updated_seq: 0,
            prev_rtt: None,
            prev_ack_time: None,
            smoothed_power: 1.0,
        }
    }

    /// Additive increase β in bytes.
    pub fn beta(&self) -> f64 {
        self.window.beta()
    }

    /// NORMPOWER of Algorithm 2: `Γ_norm = (θ̇ + 1) · θ / τ`, smoothed over
    /// one base RTT.
    fn measure_power(&mut self, now: Tick, rtt: Tick) -> Option<f64> {
        let tau = self.tau;
        let (prev_rtt, prev_t) = match (self.prev_rtt, self.prev_ack_time) {
            (Some(r), Some(t)) => (r, t),
            _ => {
                self.prev_rtt = Some(rtt);
                self.prev_ack_time = Some(now);
                return None;
            }
        };
        let dt_tick = now.saturating_sub(prev_t);
        self.prev_rtt = Some(rtt);
        self.prev_ack_time = Some(now);
        if dt_tick.is_zero() {
            return None;
        }
        let dt = dt_tick.as_secs_f64();
        // θ̇ = (RTT − prevRTT) / dt — dimensionless gradient.
        let theta_dot = (rtt.as_secs_f64() - prev_rtt.as_secs_f64()) / dt;
        let raw =
            ((theta_dot + 1.0) * rtt.as_secs_f64() / tau).clamp(MIN_NORM_POWER, MAX_NORM_POWER);
        let dt_s = dt.min(tau);
        self.smoothed_power = (self.smoothed_power * (tau - dt_s) + raw * dt_s) / tau;
        Some(self.smoothed_power)
    }
}

impl CongestionControl for ThetaPowerTcp {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        // Power measurement runs on every ACK (keeps the gradient fresh)...
        let Some(power) = self.measure_power(ack.now, ack.rtt) else {
            return;
        };
        // ...but the window moves only once per RTT (Algorithm 2 l.16-18).
        if ack.ack_seq < self.last_updated_seq {
            return;
        }
        self.window.update(power, ack);
        self.last_updated_seq = ack.snd_nxt;
    }

    fn on_loss(&mut self, _now: Tick, kind: LossKind) {
        if kind == LossKind::Timeout {
            self.window.on_timeout();
        }
    }

    fn cwnd(&self) -> f64 {
        self.window.cwnd
    }

    fn pacing_rate(&self) -> Bandwidth {
        self.window.pacing_rate()
    }

    fn norm_power(&self) -> Option<f64> {
        Some(self.smoothed_power)
    }

    fn name(&self) -> &'static str {
        "theta-powertcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{GAMMA, MIN_CWND_BYTES};

    fn ctx() -> CcContext {
        CcContext {
            base_rtt: Tick::from_micros(20),
            host_bw: Bandwidth::gbps(25),
            mtu: 1000,
            expected_flows: 10,
        }
    }

    fn ack(now: Tick, seq: u64, rtt: Tick) -> AckInfo<'static> {
        AckInfo {
            now,
            ack_seq: seq,
            newly_acked: 1000,
            snd_nxt: seq + 60_000,
            rtt,
            int: None,
            ecn_marked: false,
        }
    }

    #[test]
    fn needs_two_acks_to_act() {
        let mut p = ThetaPowerTcp::new(GAMMA, ctx());
        let w0 = p.cwnd();
        p.on_ack(&ack(Tick::from_micros(100), 1000, Tick::from_micros(20)));
        assert_eq!(p.cwnd(), w0);
    }

    #[test]
    fn rtt_at_base_with_positive_beta_grows_additively() {
        // RTT pinned at τ: power = 1, so each per-RTT update adds ≈ γ·β.
        let mut p = ThetaPowerTcp::new(GAMMA, ctx());
        p.window.cwnd = 10_000.0;
        p.window.cwnd_old = 10_000.0;
        let mut now = Tick::from_micros(100);
        let mut seq = 100_000u64; // past last_updated gate
        let w0 = p.cwnd();
        for _ in 0..12 {
            now += Tick::from_micros(20);
            seq += 60_000;
            p.on_ack(&ack(now, seq, Tick::from_micros(20)));
        }
        // Growth must be slow/additive: strictly increasing but far from
        // multiplicative ramp.
        assert!(p.cwnd() > w0);
        assert!(p.cwnd() < w0 + 12.0 * p.beta() + 1.0);
    }

    #[test]
    fn inflated_rtt_shrinks_window() {
        let mut p = ThetaPowerTcp::new(GAMMA, ctx());
        let mut now = Tick::from_micros(100);
        let mut seq = 100_000u64;
        let w0 = p.cwnd();
        // RTT = 3τ (two BDPs of queueing) sustained.
        for _ in 0..20 {
            now += Tick::from_micros(20);
            seq += 60_000;
            p.on_ack(&ack(now, seq, Tick::from_micros(60)));
        }
        assert!(p.cwnd() < 0.6 * w0, "cwnd={} w0={}", p.cwnd(), w0);
    }

    #[test]
    fn once_per_rtt_gate_holds() {
        let mut p = ThetaPowerTcp::new(GAMMA, ctx());
        let now0 = Tick::from_micros(100);
        p.on_ack(&ack(now0, 1000, Tick::from_micros(40)));
        // Second ack triggers an update and sets the gate to snd_nxt.
        p.on_ack(&ack(
            now0 + Tick::from_micros(2),
            2000,
            Tick::from_micros(40),
        ));
        let w_after_update = p.cwnd();
        // Acks below the gate (seq < snd_nxt of the update) must not move
        // the window again within the same RTT.
        for i in 3..20u64 {
            p.on_ack(&ack(
                now0 + Tick::from_micros(i),
                i * 1000,
                Tick::from_micros(40),
            ));
        }
        assert_eq!(p.cwnd(), w_after_update);
    }

    #[test]
    fn gradient_spike_reacts_before_queue_is_large() {
        // Rapidly rising RTT with small absolute queueing: the gradient
        // term must already push power above 1.
        let mut p = ThetaPowerTcp::new(GAMMA, ctx());
        let mut now = Tick::from_micros(100);
        p.on_ack(&ack(now, 1000, Tick::from_micros(20)));
        // +2us RTT per 2us of time: θ̇ = 1, power ≈ (1+1)·θ/τ ≈ 2.
        let mut rtt = Tick::from_micros(20);
        let mut seq = 100_000u64;
        let w0 = p.cwnd();
        for _ in 0..10 {
            now += Tick::from_micros(2);
            rtt += Tick::from_micros(2);
            seq += 60_000;
            p.on_ack(&ack(now, seq, rtt));
        }
        assert!(p.cwnd() < w0, "must shrink on rising gradient");
    }

    #[test]
    fn window_bounded_under_noise() {
        let mut p = ThetaPowerTcp::new(GAMMA, ctx());
        let mut now = Tick::from_micros(100);
        for i in 0..300u64 {
            now += Tick::from_nanos(137 + (i * 7919) % 5000);
            let rtt = Tick::from_nanos(20_000 + (i * 104_729) % 80_000);
            p.on_ack(&ack(now, i * 1000, rtt));
            assert!(p.cwnd().is_finite());
            assert!(p.cwnd() >= MIN_CWND_BYTES && p.cwnd() <= p.window.max_cwnd);
        }
    }
}
