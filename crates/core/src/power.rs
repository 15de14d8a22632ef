//! Network *power* computation (§3.1, Algorithm 1 lines 8–25).
//!
//! Power is the product of network *current* (aggregate arrival rate at the
//! bottleneck, `λ = q̇ + µ`) and network *voltage* (BDP plus buffered bytes,
//! `ν = q + b·τ`):
//!
//! ```text
//! Γ(t) = (q(t) + b·τ) · (q̇(t) + µ(t))        [Eq. 6]
//! ```
//!
//! Property 1 of the paper shows `Γ(t) = b · w(t − t_f)` — power equals the
//! bandwidth-window product of the *aggregate* window of all flows sharing
//! the bottleneck, which is what lets a PowerTCP sender steer its share of
//! the aggregate precisely.
//!
//! The sender reconstructs `q̇` and `µ` per hop from two consecutive INT
//! snapshots of that hop, normalizes by the hop's base power `e = b²·τ`,
//! takes the most-congested hop (max normalized power), and smooths the
//! result over one base RTT.

use crate::int::{IntHeader, IntHop, MAX_INT_HOPS};
use crate::time::Tick;

/// Lower clamp for normalized power.
///
/// When a queue drains at full line rate with no arrivals, the measured
/// current `λ = q̇ + µ` is zero, so raw normalized power is zero and the
/// window update `w_old / Γ_norm` would diverge. Real deployments bound the
/// multiplicative increase per update; a floor of 1/16 bounds it at 16× per
/// control interval while leaving the fast-ramp behaviour (the whole point
/// of power-based CC) intact.
pub const MIN_NORM_POWER: f64 = 1.0 / 16.0;

/// Upper clamp for normalized power (bounds multiplicative decrease per
/// update to 64×; only reachable under pathological measurement noise).
pub const MAX_NORM_POWER: f64 = 64.0;

/// Result of one power computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerSample {
    /// Smoothed normalized power `Γ_smooth` — the divisor in the window
    /// update (Eq. 7's `f(t)/e`).
    pub smoothed: f64,
    /// Raw (unsmoothed) max-hop normalized power, for diagnostics and
    /// ablations.
    pub raw: f64,
    /// Index of the hop that determined the max (the bottleneck).
    pub bottleneck_hop: usize,
}

/// Incremental power estimator: remembers the previous INT snapshot
/// (`prevInt` in Algorithm 1) and the smoothed normalized power.
#[derive(Clone, Debug)]
pub struct PowerEstimator {
    base_rtt: Tick,
    prev: [IntHop; MAX_INT_HOPS],
    prev_len: usize,
    smoothed: f64,
    initialized: bool,
}

impl PowerEstimator {
    /// Create an estimator for a flow with base RTT `τ`.
    pub fn new(base_rtt: Tick) -> Self {
        assert!(!base_rtt.is_zero(), "base RTT must be positive");
        PowerEstimator {
            base_rtt,
            prev: [IntHop::default(); MAX_INT_HOPS],
            prev_len: 0,
            smoothed: 1.0,
            initialized: false,
        }
    }

    /// Current smoothed normalized power.
    pub fn smoothed(&self) -> f64 {
        self.smoothed
    }

    /// True once at least one INT snapshot has been recorded (updates
    /// before that return `None`: there is no gradient to compute yet).
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Process the INT stack echoed on one ACK; Algorithm 1, NORMPOWER.
    ///
    /// Returns `None` on the first observation (no previous snapshot) and
    /// whenever no hop yields a usable measurement (e.g. zero elapsed time
    /// on every hop); the caller should then skip the window update, which
    /// is what the paper's `prevInt` bootstrap does implicitly.
    pub fn update(&mut self, int: &IntHeader) -> Option<PowerSample> {
        let hops = int.hops();
        if hops.is_empty() {
            return None;
        }
        if !self.initialized || self.prev_len != hops.len() {
            // First snapshot, or the path changed (ECMP reroute): store and
            // wait for the next ACK on the new path.
            self.store_prev(hops);
            self.initialized = true;
            return None;
        }

        let tau = self.base_rtt.as_secs_f64();
        let mut best: Option<(f64, usize, Tick)> = None;
        for (i, (cur, prev)) in hops.iter().zip(self.prev.iter()).enumerate() {
            let dt_tick = cur.ts.saturating_sub(prev.ts);
            if dt_tick.is_zero() {
                // Duplicate or reordered telemetry for this hop; skip it.
                continue;
            }
            let dt = dt_tick.as_secs_f64();
            // q̇ = Δqlen / Δt  (can be negative: queue draining)
            let q_dot = (cur.qlen_bytes as f64 - prev.qlen_bytes as f64) / dt;
            // µ = ΔtxBytes / Δt  (egress transmission rate)
            let mu = cur.tx_bytes.wrapping_sub(prev.tx_bytes) as f64 / dt;
            // λ = q̇ + µ  (current: arrival rate at the hop)
            let lambda = q_dot + mu;
            let b = cur.bandwidth.bytes_per_sec();
            if b <= 0.0 {
                continue;
            }
            // ν = qlen + BDP  (voltage)
            let voltage = cur.qlen_bytes as f64 + b * tau;
            // Γ' = λ · ν, normalized by base power e = b²·τ.
            let norm = (lambda * voltage) / (b * b * tau);
            let replace = match best {
                None => true,
                Some((cur_best, _, _)) => norm > cur_best,
            };
            if replace {
                best = Some((norm, i, dt_tick));
            }
        }

        self.store_prev(hops);
        let (raw, hop, dt_tick) = best?;
        let raw = raw.clamp(MIN_NORM_POWER, MAX_NORM_POWER);

        // Γ_smooth = (Γ_smooth·(τ−Δt) + Γ_norm·Δt) / τ   (Algorithm 1 l.24)
        // Δt is clamped to τ: with per-ACK feedback Δt ≪ τ, but after an
        // idle period a single sample should fully replace the stale state.
        let dt_s = dt_tick.as_secs_f64().min(tau);
        self.smoothed = (self.smoothed * (tau - dt_s) + raw * dt_s) / tau;
        Some(PowerSample {
            smoothed: self.smoothed,
            raw,
            bottleneck_hop: hop,
        })
    }

    fn store_prev(&mut self, hops: &[IntHop]) {
        self.prev[..hops.len()].copy_from_slice(hops);
        self.prev_len = hops.len();
    }
}

/// Compute raw normalized power from explicit quantities — the analytical
/// form used by the fluid model and the response-curve figures, exposed so
/// tests can cross-validate the INT path against the closed form.
///
/// `q` bytes, `q_dot` bytes/s, `mu` bytes/s, `b` bytes/s, `tau` seconds.
pub fn norm_power_closed_form(q: f64, q_dot: f64, mu: f64, b: f64, tau: f64) -> f64 {
    let lambda = q_dot + mu;
    let voltage = q + b * tau;
    (lambda * voltage) / (b * b * tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bandwidth;

    const B: Bandwidth = Bandwidth::gbps(100);
    const TAU: Tick = Tick::from_micros(20);

    fn hop(ts: Tick, qlen: u64, tx_bytes: u64) -> IntHop {
        IntHop {
            qlen_bytes: qlen,
            ts,
            tx_bytes,
            bandwidth: B,
        }
    }

    fn header(hops: &[IntHop]) -> IntHeader {
        let mut h = IntHeader::new();
        for &m in hops {
            h.push(m);
        }
        h
    }

    #[test]
    fn first_observation_yields_none() {
        let mut est = PowerEstimator::new(TAU);
        let h = header(&[hop(Tick::from_micros(1), 0, 0)]);
        assert!(est.update(&h).is_none());
        assert!(est.is_initialized());
    }

    #[test]
    fn steady_state_full_utilization_power_is_one() {
        // Queue empty and stable, egress transmitting at exactly line rate:
        // λ = µ = b, ν = b·τ, so Γ_norm = b·b·τ / (b²τ) = 1.
        let mut est = PowerEstimator::new(TAU);
        let bps = B.bytes_per_sec();
        let dt = Tick::from_micros(2);
        let bytes_per_dt = (bps * dt.as_secs_f64()).round() as u64;
        let mut ts = Tick::from_micros(10);
        let mut tx = 0u64;
        let h = header(&[hop(ts, 0, tx)]);
        assert!(est.update(&h).is_none());
        for _ in 0..20 {
            ts += dt;
            tx += bytes_per_dt;
            let h = header(&[hop(ts, 0, tx)]);
            let s = est.update(&h).expect("sample");
            assert!((s.raw - 1.0).abs() < 1e-9, "raw={}", s.raw);
        }
        assert!((est.smoothed() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn growing_queue_raises_power_above_one() {
        // Queue grows while the port transmits at line rate: λ > b.
        let mut est = PowerEstimator::new(TAU);
        let bps = B.bytes_per_sec();
        let dt = Tick::from_micros(2);
        let tx_per_dt = (bps * dt.as_secs_f64()).round() as u64;
        let q_growth_per_dt = tx_per_dt / 2; // arrivals at 1.5x line rate
        let mut ts = Tick::from_micros(10);
        let (mut tx, mut q) = (0u64, 0u64);
        est.update(&header(&[hop(ts, q, tx)]));
        let mut last = PowerSample {
            smoothed: 0.0,
            raw: 0.0,
            bottleneck_hop: 0,
        };
        for _ in 0..10 {
            ts += dt;
            tx += tx_per_dt;
            q += q_growth_per_dt;
            last = est.update(&header(&[hop(ts, q, tx)])).unwrap();
        }
        assert!(last.raw > 1.2, "raw={}", last.raw);
        assert!(est.smoothed() > 1.0);
    }

    #[test]
    fn draining_idle_queue_hits_floor_not_zero_or_nan() {
        // Queue drains with zero egress counter movement (e.g. a paused
        // port): λ = q̇ < 0 — must clamp, not explode.
        let mut est = PowerEstimator::new(TAU);
        let mut ts = Tick::from_micros(10);
        est.update(&header(&[hop(ts, 100_000, 500)]));
        ts += Tick::from_micros(2);
        let s = est.update(&header(&[hop(ts, 0, 500)])).unwrap();
        assert_eq!(s.raw, MIN_NORM_POWER);
        assert!(s.smoothed.is_finite());
    }

    #[test]
    fn max_hop_is_selected() {
        // Two hops; the second is congested (growing queue), the first idle.
        let mut est = PowerEstimator::new(TAU);
        let bps = B.bytes_per_sec();
        let dt = Tick::from_micros(2);
        let tx = (bps * dt.as_secs_f64()).round() as u64;
        let t0 = Tick::from_micros(10);
        let t1 = t0 + dt;
        est.update(&header(&[hop(t0, 0, 0), hop(t0, 0, 0)]));
        let s = est
            .update(&header(&[
                hop(t1, 0, tx / 4),  // hop 0: 25% utilization
                hop(t1, 50_000, tx), // hop 1: line rate + queue
            ]))
            .unwrap();
        assert_eq!(s.bottleneck_hop, 1);
        assert!(s.raw > 1.0);
    }

    #[test]
    fn path_change_resets_gradient() {
        let mut est = PowerEstimator::new(TAU);
        let t0 = Tick::from_micros(10);
        est.update(&header(&[hop(t0, 0, 0)]));
        // Path length changes from 1 to 2 hops: must re-bootstrap.
        let t1 = t0 + Tick::from_micros(2);
        assert!(est
            .update(&header(&[hop(t1, 0, 100), hop(t1, 0, 100)]))
            .is_none());
        // Next ack on the two-hop path works again.
        let t2 = t1 + Tick::from_micros(2);
        assert!(est
            .update(&header(&[hop(t2, 0, 200), hop(t2, 0, 200)]))
            .is_some());
    }

    #[test]
    fn zero_dt_hop_is_skipped() {
        let mut est = PowerEstimator::new(TAU);
        let t0 = Tick::from_micros(10);
        est.update(&header(&[hop(t0, 0, 0)]));
        // Same timestamp (duplicated telemetry): no usable hop -> None.
        assert!(est.update(&header(&[hop(t0, 10, 10)])).is_none());
    }

    #[test]
    fn closed_form_matches_int_path() {
        let tau = TAU.as_secs_f64();
        let b = B.bytes_per_sec();
        // q = 50KB, q̇ = 0.25b, µ = b.
        let direct = norm_power_closed_form(50_000.0, 0.25 * b, b, b, tau);

        let mut est = PowerEstimator::new(TAU);
        let dt = Tick::from_micros(2);
        let dts = dt.as_secs_f64();
        let t0 = Tick::from_micros(10);
        let q0 = 50_000.0 - 0.25 * b * dts; // so that q(t1) = 50KB
        est.update(&header(&[hop(t0, q0.round() as u64, 0)]));
        let s = est
            .update(&header(&[hop(t0 + dt, 50_000, (b * dts).round() as u64)]))
            .unwrap();
        assert!(
            (s.raw - direct).abs() / direct < 1e-3,
            "int={} direct={}",
            s.raw,
            direct
        );
    }

    #[test]
    fn smoothing_converges_within_one_rtt_scale() {
        // Feeding a constant raw power x, smoothed -> x with time constant τ.
        let mut est = PowerEstimator::new(TAU);
        let bps = B.bytes_per_sec();
        let dt = Tick::from_micros(2);
        let tx_per_dt = (bps * dt.as_secs_f64()) as u64;
        let mut ts = Tick::from_micros(10);
        let mut tx = 0u64;
        est.update(&header(&[hop(ts, 0, tx)]));
        // Constant queue of 1 BDP, line-rate egress: Γ_norm = 2 exactly.
        let q = (bps * TAU.as_secs_f64()) as u64;
        for _ in 0..60 {
            ts += dt;
            tx += tx_per_dt;
            est.update(&header(&[hop(ts, q, tx)]));
        }
        // 60 samples * 2us = 6 RTTs: smoothed must be within 1% of 2.0.
        assert!((est.smoothed() - 2.0).abs() < 0.02, "{}", est.smoothed());
    }
}
