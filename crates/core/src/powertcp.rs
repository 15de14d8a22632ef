//! PowerTCP (Algorithm 1): the paper's primary contribution.
//!
//! Window update on every ACK (Eq. 7):
//!
//! ```text
//! w ← γ · ( w_old / Γ_norm + β ) + (1 − γ) · w
//! ```
//!
//! where `Γ_norm = f(t)/e` is the smoothed normalized power from the INT
//! feedback ([`PowerEstimator`]), `w_old` is the window at the time the
//! acknowledged segment was transmitted (approximated, as in the paper, by
//! a snapshot refreshed once per RTT), `γ ∈ (0,1]` is the EWMA gain and
//! `β = HostBw·τ/N` the additive increase. The update, its clamps and the
//! timeout back-off are the window θ-PowerTCP shares (`window.rs`, which
//! lists the constants); this file measures `Γ_norm` and updates on every
//! ACK that carries INT.
//!
//! §5 gates the update to once per RTT "for a fair comparison with reTCP".
//! This implementation updates per ACK in the RDCN case study too: with
//! the gate forced on, fig8's and fig8-50g's reports are byte-identical.

use crate::cc::{AckInfo, CcContext, CongestionControl, LossKind};
use crate::power::PowerEstimator;
use crate::time::Tick;
use crate::units::Bandwidth;
use crate::window::Window;

/// The INT-based PowerTCP sender.
#[derive(Clone, Debug)]
pub struct PowerTcp {
    estimator: PowerEstimator,
    window: Window,
}

impl PowerTcp {
    /// Create a PowerTCP instance for one flow with EWMA gain `gamma`
    /// ([`GAMMA`](crate::GAMMA) is the paper's value).
    pub fn new(gamma: f64, ctx: CcContext) -> Self {
        PowerTcp {
            estimator: PowerEstimator::new(ctx.base_rtt),
            window: Window::new(gamma, ctx),
        }
    }

    /// The additive-increase term β in bytes.
    pub fn beta(&self) -> f64 {
        self.window.beta()
    }
}

impl CongestionControl for PowerTcp {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        let Some(int) = ack.int else {
            // No telemetry on this ACK (e.g. a control packet): PowerTCP
            // cannot compute power; hold the window.
            return;
        };
        if let Some(sample) = self.estimator.update(int) {
            self.window.update(sample.smoothed, ack);
        } else {
            // Bootstrap path: still rotate the snapshot so the first real
            // update uses a fresh w_old.
            self.window.snapshot(ack);
        }
    }

    fn on_loss(&mut self, _now: Tick, kind: LossKind) {
        if kind == LossKind::Timeout {
            self.window.on_timeout();
        }
        // Reorder NACKs carry no congestion information that INT does not
        // already deliver more precisely; PowerTCP reacts through power.
    }

    fn cwnd(&self) -> f64 {
        self.window.cwnd
    }

    fn pacing_rate(&self) -> Bandwidth {
        self.window.pacing_rate()
    }

    fn norm_power(&self) -> Option<f64> {
        Some(self.estimator.smoothed())
    }

    fn name(&self) -> &'static str {
        "powertcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int::{IntHeader, IntHop};
    use crate::window::{GAMMA, MIN_CWND_BYTES};

    fn ctx() -> CcContext {
        CcContext {
            base_rtt: Tick::from_micros(20),
            host_bw: Bandwidth::gbps(25),
            mtu: 1000,
            expected_flows: 10,
        }
    }

    fn int_header(ts: Tick, qlen: u64, tx_bytes: u64, bw: Bandwidth) -> IntHeader {
        let mut h = IntHeader::new();
        h.push(IntHop {
            qlen_bytes: qlen,
            ts,
            tx_bytes,
            bandwidth: bw,
        });
        h
    }

    fn ack_info<'a>(now: Tick, seq: u64, int: &'a IntHeader) -> AckInfo<'a> {
        AckInfo {
            now,
            ack_seq: seq,
            newly_acked: 1000,
            snd_nxt: seq + 60_000,
            rtt: Tick::from_micros(22),
            int: Some(int),
            ecn_marked: false,
        }
    }

    #[test]
    fn initial_window_is_host_bdp() {
        let p = PowerTcp::new(GAMMA, ctx());
        assert!((p.cwnd() - 62_500.0).abs() < 1e-9);
        // Initial pacing is line rate (paper: transmit at line rate in the
        // first RTT to discover bottleneck state).
        assert_eq!(p.pacing_rate(), Bandwidth::gbps(25));
    }

    #[test]
    fn beta_follows_paper_rule() {
        let p = PowerTcp::new(GAMMA, ctx());
        // HostBw*tau/N = 62500/10
        assert!((p.beta() - 6_250.0).abs() < 1e-9);
    }

    /// Drive the sender against a synthetic single-bottleneck: queue grows
    /// when the aggregate (here: single) window exceeds BDP. The window
    /// must converge near BDP + β and the queue near β (paper equilibrium).
    #[test]
    fn closed_loop_converges_to_paper_equilibrium() {
        let c = ctx();
        let bw = Bandwidth::gbps(25);
        let b = bw.bytes_per_sec();
        let tau = c.base_rtt.as_secs_f64();
        let bdp = b * tau;
        // Uncap the window: this test drives the raw law to an equilibrium
        // slightly above one BDP (w_e = bτ + β̂) on a bottleneck equal to
        // the host line rate.
        let mut p = PowerTcp::new(GAMMA, ctx());
        p.window.max_cwnd *= 2.0;

        // Discrete bottleneck model, one "ACK" per millirtt step.
        let dt = Tick::from_micros(2);
        let dts = dt.as_secs_f64();
        let mut q: f64 = 0.0;
        let mut now = Tick::from_micros(100);
        let mut tx_bytes: f64 = 0.0;
        let mut seq = 0u64;
        for _ in 0..4000 {
            // Arrival rate implied by the window (fluid model λ = w/θ).
            let theta = tau + q / b;
            let lambda = p.cwnd() / theta;
            let mu = if q > 0.0 || lambda >= b { b } else { lambda };
            q = (q + (lambda - mu) * dts).max(0.0);
            tx_bytes += mu * dts;
            now += dt;
            seq += 1000;
            let h = int_header(now, q.round() as u64, tx_bytes.round() as u64, bw);
            let a = ack_info(now, seq, &h);
            p.on_ack(&a);
        }
        let we = bdp + p.beta();
        let qe = p.beta();
        assert!(
            (p.cwnd() - we).abs() / we < 0.05,
            "cwnd={} expected≈{}",
            p.cwnd(),
            we
        );
        assert!(
            (q - qe).abs() < 0.35 * qe + 2000.0,
            "queue={} expected≈{}",
            q,
            qe
        );
    }

    #[test]
    fn ack_without_int_holds_window() {
        let mut p = PowerTcp::new(GAMMA, ctx());
        let before = p.cwnd();
        let a = AckInfo {
            now: Tick::from_micros(50),
            ack_seq: 1000,
            newly_acked: 1000,
            snd_nxt: 60_000,
            rtt: Tick::from_micros(21),
            int: None,
            ecn_marked: false,
        };
        p.on_ack(&a);
        assert_eq!(p.cwnd(), before);
    }

    #[test]
    fn timeout_halves_window() {
        let mut p = PowerTcp::new(GAMMA, ctx());
        let before = p.cwnd();
        p.on_loss(Tick::from_micros(10), LossKind::Timeout);
        assert!((p.cwnd() - before * 0.5).abs() < 1e-9);
        // Reorder signal alone does not touch the window.
        let w = p.cwnd();
        p.on_loss(Tick::from_micros(11), LossKind::Reorder);
        assert_eq!(p.cwnd(), w);
    }

    #[test]
    fn high_power_shrinks_low_power_grows() {
        let c = ctx();
        let bw = c.host_bw;
        let b = bw.bytes_per_sec();
        let dt = Tick::from_micros(2);
        let full = (b * dt.as_secs_f64()).round() as u64;

        // Congested: queue of 3 BDP, line-rate egress -> power 4.
        let mut p = PowerTcp::new(GAMMA, ctx());
        let q = (3.0 * b * c.base_rtt.as_secs_f64()) as u64;
        let mut now = Tick::from_micros(100);
        let h = int_header(now, q, 0, bw);
        p.on_ack(&ack_info(now, 1000, &h));
        let w0 = p.cwnd();
        for i in 1..40u64 {
            now += dt;
            let h = int_header(now, q, i * full, bw);
            p.on_ack(&ack_info(now, 1000 + i * 1000, &h));
        }
        assert!(p.cwnd() < 0.6 * w0, "cwnd={} w0={}", p.cwnd(), w0);

        // Underutilized: empty queue, egress at 25% of line rate.
        let mut p = PowerTcp::new(GAMMA, ctx());
        // Start from a deflated window so growth is observable.
        p.window.cwnd = 10_000.0;
        p.window.cwnd_old = 10_000.0;
        let mut now = Tick::from_micros(100);
        let h = int_header(now, 0, 0, bw);
        p.on_ack(&ack_info(now, 1000, &h));
        let w0 = p.cwnd();
        for i in 1..40u64 {
            now += dt;
            let h = int_header(now, 0, i * full / 4, bw);
            p.on_ack(&ack_info(now, 1000 + i * 1000, &h));
        }
        assert!(p.cwnd() > 1.5 * w0, "cwnd={} w0={}", p.cwnd(), w0);
    }

    #[test]
    fn window_stays_within_bounds_under_noise() {
        // Adversarial INT stream with jumps must never produce a
        // non-finite or out-of-range window.
        let c = ctx();
        let mut p = PowerTcp::new(GAMMA, ctx());
        let bw = c.host_bw;
        let mut now = Tick::from_micros(100);
        let mut seq = 0u64;
        let mut tx = 0u64;
        for i in 0..200u64 {
            now += Tick::from_nanos(317 + (i * 7919) % 3000);
            seq += 1000;
            tx = tx.wrapping_add((i * 104_729) % 50_000);
            let q = (i * 48_611) % 2_000_000;
            let h = int_header(now, q, tx, bw);
            p.on_ack(&ack_info(now, seq, &h));
            assert!(p.cwnd().is_finite());
            assert!(p.cwnd() >= MIN_CWND_BYTES && p.cwnd() <= p.window.max_cwnd);
        }
    }
}
