//! Property-based tests for the PowerTCP control-law primitives.

use powertcp_core::{
    norm_power_closed_form, AckInfo, Bandwidth, CcContext, CongestionControl, IntHeader, IntHop,
    PowerEstimator, PowerTcp, ThetaPowerTcp, Tick, GAMMA, MAX_NORM_POWER, MIN_NORM_POWER,
};
use proptest::prelude::*;

fn ctx() -> CcContext {
    CcContext {
        base_rtt: Tick::from_micros(20),
        host_bw: Bandwidth::gbps(25),
        mtu: 1000,
        expected_flows: 8,
    }
}

fn hop(ts: Tick, qlen: u64, tx: u64, bw: Bandwidth) -> IntHop {
    IntHop {
        qlen_bytes: qlen,
        ts,
        tx_bytes: tx,
        bandwidth: bw,
    }
}

proptest! {
    /// Power is scale-invariant: multiplying bandwidth, queue, and rates by
    /// the same factor leaves normalized power unchanged (it is the point
    /// of normalizing by the base power e = b²τ).
    #[test]
    fn norm_power_scale_invariant(
        q in 0.0..10_000_000.0f64,
        q_dot_frac in -1.0..8.0f64,
        mu_frac in 0.0..1.0f64,
        scale in 0.01..100.0f64,
    ) {
        let tau = 20e-6;
        let b = 12.5e9; // 100G in bytes/s
        let p1 = norm_power_closed_form(q, q_dot_frac * b, mu_frac * b, b, tau);
        let p2 = norm_power_closed_form(
            q * scale, q_dot_frac * b * scale, mu_frac * b * scale, b * scale, tau);
        prop_assert!((p1 - p2).abs() <= 1e-9 * p1.abs().max(1.0),
            "p1={p1} p2={p2}");
    }

    /// Normalized power is monotone in queue length for fixed dynamics
    /// (with non-negative current), and monotone in arrival rate for fixed
    /// queue length: the two dimensions the paper's Figure 2 separates.
    #[test]
    fn norm_power_monotonicity(
        q in 0.0..5_000_000.0f64,
        dq in 1.0..5_000_000.0f64,
        lam in 0.0..4.0f64,
        dlam in 0.001..4.0f64,
    ) {
        let tau = 20e-6;
        let b = 12.5e9;
        // Fix current = lam*b >= 0: more queue, more power.
        let p_lo = norm_power_closed_form(q, 0.0, lam * b, b, tau);
        let p_hi = norm_power_closed_form(q + dq, 0.0, lam * b, b, tau);
        prop_assert!(p_hi >= p_lo);
        // Fix voltage: more current, more power.
        let c_lo = norm_power_closed_form(q, lam * b, 0.0, b, tau);
        let c_hi = norm_power_closed_form(q, (lam + dlam) * b, 0.0, b, tau);
        prop_assert!(c_hi >= c_lo);
    }

    /// The estimator never yields a non-finite or out-of-clamp sample, no
    /// matter how adversarial the INT stream (jumping counters, reordered
    /// timestamps, changing bandwidth).
    #[test]
    fn estimator_output_always_bounded(
        steps in prop::collection::vec(
            (1u64..5_000_000, 0u64..10_000_000, 0u64..100_000_000, 1u64..400), 2..60),
    ) {
        let mut est = PowerEstimator::new(Tick::from_micros(20));
        let mut ts = Tick::from_micros(1);
        for (dt_ns, qlen, tx, bw_g) in steps {
            ts += Tick::from_nanos(dt_ns);
            let mut h = IntHeader::new();
            h.push(hop(ts, qlen, tx, Bandwidth::gbps(bw_g)));
            if let Some(s) = est.update(&h) {
                prop_assert!(s.raw.is_finite());
                prop_assert!(s.raw >= MIN_NORM_POWER && s.raw <= MAX_NORM_POWER);
                prop_assert!(s.smoothed.is_finite());
                prop_assert!(s.smoothed >= MIN_NORM_POWER * 0.999);
                prop_assert!(s.smoothed <= MAX_NORM_POWER * 1.001);
            }
        }
    }

    /// PowerTCP's window stays within its clamps and finite under arbitrary
    /// ACK streams.
    #[test]
    fn powertcp_window_bounded(
        steps in prop::collection::vec(
            (1u64..10_000_000, 0u64..20_000_000, 0u64..1_000_000_000), 2..80),
    ) {
        let mut cc = PowerTcp::new(GAMMA, ctx());
        let max = ctx().host_bdp_bytes() * 2.0;
        let mut ts = Tick::from_micros(1);
        let mut seq = 0u64;
        for (dt_ns, qlen, tx) in steps {
            ts += Tick::from_nanos(dt_ns);
            seq += 1000;
            let mut h = IntHeader::new();
            h.push(hop(ts, qlen, tx, Bandwidth::gbps(100)));
            cc.on_ack(&AckInfo {
                now: ts,
                ack_seq: seq,
                newly_acked: 1000,
                snd_nxt: seq + 50_000,
                rtt: Tick::from_micros(21),
                int: Some(&h),
                ecn_marked: false,
            });
            prop_assert!(cc.cwnd().is_finite());
            prop_assert!(cc.cwnd() > 0.0 && cc.cwnd() <= max + 1.0);
        }
    }

    /// θ-PowerTCP likewise, under arbitrary RTT samples.
    #[test]
    fn theta_window_bounded(
        steps in prop::collection::vec(
            (1u64..10_000_000, 15_000u64..400_000), 2..120),
    ) {
        let mut cc = ThetaPowerTcp::new(GAMMA, ctx());
        let max = ctx().host_bdp_bytes() * 2.0;
        let mut ts = Tick::from_micros(1);
        let mut seq = 0u64;
        for (dt_ns, rtt_ns) in steps {
            ts += Tick::from_nanos(dt_ns);
            seq += 1000;
            cc.on_ack(&AckInfo {
                now: ts,
                ack_seq: seq,
                newly_acked: 1000,
                snd_nxt: seq + 50_000,
                rtt: Tick::from_nanos(rtt_ns),
                int: None,
                ecn_marked: false,
            });
            prop_assert!(cc.cwnd().is_finite());
            prop_assert!(cc.cwnd() > 0.0 && cc.cwnd() <= max + 1.0);
        }
    }

    /// Tick arithmetic: (a + b) - b == a, saturating_sub never underflows,
    /// and tx_time is monotone in bytes.
    #[test]
    fn tick_and_bandwidth_laws(
        a in 0u64..u64::MAX / 4,
        b in 0u64..u64::MAX / 4,
        bytes1 in 0u64..1_000_000,
        bytes2 in 0u64..1_000_000,
        gbps in 1u64..400,
    ) {
        let ta = Tick::from_ps(a);
        let tb = Tick::from_ps(b);
        prop_assert_eq!((ta + tb) - tb, ta);
        prop_assert_eq!(tb.saturating_sub(ta + tb), Tick::ZERO);
        let bw = Bandwidth::gbps(gbps);
        let (lo, hi) = if bytes1 <= bytes2 { (bytes1, bytes2) } else { (bytes2, bytes1) };
        prop_assert!(bw.tx_time(lo) <= bw.tx_time(hi));
    }
}
