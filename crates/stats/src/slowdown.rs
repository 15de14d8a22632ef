//! FCT slowdown — the paper's y-axis for Figures 6 and 7.
//!
//! Slowdown normalizes a measured flow completion time by the *ideal* FCT
//! the flow would achieve alone on an unloaded network: half a base RTT
//! for the handshake-free first byte plus serialization of the whole
//! flow at the narrowest (host) link. A slowdown of 1 is optimal.
//!
//! The caller picks the RTT: the sweep engines take it from one method,
//! `FctReduction::ideal_rtt` (`dcn-scenarios`), `τ` for every flow.

use powertcp_core::{Bandwidth, Tick};

/// Ideal FCT of a `size_bytes` flow over a path with `base_rtt` and
/// bottleneck `bw`: half an RTT for delivery of the first byte (one-way)
/// plus serialization of all bytes at the bottleneck.
pub fn ideal_fct(size_bytes: u64, base_rtt: Tick, bw: Bandwidth) -> Tick {
    base_rtt / 2 + bw.tx_time(size_bytes)
}

/// Slowdown of a measured FCT against the ideal; always ≥ some small
/// positive value. Values below 1 can only arise from measurement
/// granularity and are clamped to 1.
pub fn slowdown(measured: Tick, size_bytes: u64, base_rtt: Tick, bw: Bandwidth) -> f64 {
    let ideal = ideal_fct(size_bytes, base_rtt, bw);
    if ideal.is_zero() {
        return 1.0;
    }
    (measured.as_secs_f64() / ideal.as_secs_f64()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_fct_components() {
        // 10 KB at 25G = 3.2us serialization + half of 20us RTT.
        let i = ideal_fct(10_000, Tick::from_micros(20), Bandwidth::gbps(25));
        assert_eq!(i, Tick::from_micros(10) + Tick::from_nanos(3200));
    }

    #[test]
    fn slowdown_of_ideal_is_one() {
        let rtt = Tick::from_micros(20);
        let bw = Bandwidth::gbps(25);
        let ideal = ideal_fct(50_000, rtt, bw);
        assert!((slowdown(ideal, 50_000, rtt, bw) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_scales_linearly() {
        let rtt = Tick::from_micros(20);
        let bw = Bandwidth::gbps(25);
        let ideal = ideal_fct(50_000, rtt, bw);
        let s = slowdown(ideal * 3, 50_000, rtt, bw);
        assert!((s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sub_ideal_clamps_to_one() {
        let rtt = Tick::from_micros(20);
        let bw = Bandwidth::gbps(25);
        assert_eq!(slowdown(Tick::from_nanos(1), 50_000, rtt, bw), 1.0);
    }
}
