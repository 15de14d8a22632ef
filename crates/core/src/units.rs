//! Bandwidth and byte-count helpers shared by the control laws and the
//! simulator.

use crate::time::{Tick, PS_PER_SEC};
use std::fmt;

/// Link or NIC bandwidth in bits per second.
///
/// Stored as integer bits/s so topology definitions are exact; converted to
/// `f64` bytes/s only inside control-law arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Zero bandwidth (used for disabled/ceased links, e.g. a circuit
    /// during reconfiguration "night").
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Construct from gigabits per second.
    #[inline]
    pub const fn gbps(g: u64) -> Self {
        Bandwidth(g * 1_000_000_000)
    }

    /// Construct from megabits per second.
    #[inline]
    pub const fn mbps(m: u64) -> Self {
        Bandwidth(m * 1_000_000)
    }

    /// Raw bits per second.
    #[inline]
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Bytes per second as `f64` (control-law arithmetic).
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Gigabits per second as `f64` (reporting).
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` onto the wire at this bandwidth.
    ///
    /// Exact integer arithmetic; rounds up so that a packet never finishes
    /// transmitting early. Panics on zero bandwidth — callers must not
    /// serialize onto a down link.
    #[inline]
    pub fn tx_time(self, bytes: u64) -> Tick {
        assert!(self.0 > 0, "tx_time on zero-bandwidth link");
        // `bytes · 8 · 10¹²` fits 64 bits up to ~2.3 MB, which covers every
        // packet; only bulk byte counts pay the 128-bit division.
        match bytes.checked_mul(8 * PS_PER_SEC) {
            Some(bit_ps) => Tick(bit_ps.div_ceil(self.0)),
            None => Tick(tx_time_wide(self.0, bytes)),
        }
    }

    /// Bandwidth-delay product in bytes (fractional, for control laws).
    #[inline]
    pub fn bdp_bytes(self, rtt: Tick) -> f64 {
        self.bytes_per_sec() * rtt.as_secs_f64()
    }

    /// True if this link currently carries no bandwidth.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// [`Bandwidth::tx_time`] in ps through a 128-bit intermediate: exact for
/// every byte count.
fn tx_time_wide(bps: u64, bytes: u64) -> u64 {
    (bytes as u128 * 8 * PS_PER_SEC as u128).div_ceil(bps as u128) as u64
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_100g() {
        // 1000 bytes at 100 Gbps = 80 ns exactly.
        let bw = Bandwidth::gbps(100);
        assert_eq!(bw.tx_time(1000), Tick::from_nanos(80));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s -> must round up, not truncate.
        let bw = Bandwidth::from_bps(3);
        let t = bw.tx_time(1);
        assert!(t.as_ps() * 3 >= 8 * PS_PER_SEC);
        assert!((t.as_ps() - 1) * 3 < 8 * PS_PER_SEC);
    }

    #[test]
    fn tx_time_no_overflow_large() {
        // A 1 GB transfer at 1 Mbps is ~8000 s; must not overflow u64 math.
        let bw = Bandwidth::mbps(1);
        let t = bw.tx_time(1_000_000_000);
        assert_eq!(t, Tick::from_secs(8000));
    }

    /// The 64-bit and 128-bit forms of `tx_time` are one function: equal
    /// to each other and to the definition (the least `t` with
    /// `t · bps ≥ bits · 10¹²`) on both sides of the byte count where the
    /// 64-bit product overflows.
    #[test]
    fn tx_time_narrow_and_wide_forms_agree() {
        use proptest::Strategy;
        /// Largest byte count whose `· 8 · 10¹²` fits `u64`.
        const NARROW_MAX: u64 = u64::MAX / (8 * PS_PER_SEC);
        const GBPS: [u64; 8] = [1, 10, 25, 40, 100, 400, 800, 1600];
        let strategy = (0u8..3, 0u8..4, 0u64..u64::MAX, 0u64..u64::MAX);
        let mut rng = proptest::TestRng::deterministic("tx_time_narrow_and_wide_forms_agree");
        // [narrow path, wide path, exact multiple, rounded up]
        let mut seen = [0u32; 4];
        for _ in 0..4000 {
            let (bw_kind, bytes_kind, a, b) = strategy.sample(&mut rng);
            let bps = match bw_kind {
                0 => 2 + a % 1000,
                1 => GBPS[(a % 8) as usize] * 1_000_000_000,
                _ => 2 + a % 1_600_000_000_000,
            };
            let bytes = match bytes_kind {
                0 => b % 10_000,
                1 => NARROW_MAX - 50 + b % 100,
                2 => 1000 * (1 + b % 2000),
                // Bulk, as long as the time itself still fits a `Tick`.
                _ => b % bps.saturating_mul(NARROW_MAX / 2).min(1_000_000_000_000),
            };
            let t = Bandwidth::from_bps(bps).tx_time(bytes).as_ps();
            assert_eq!(t, tx_time_wide(bps, bytes), "{bytes} B at {bps} bps");
            let bit_ps = bytes as u128 * 8 * PS_PER_SEC as u128;
            let covered = t as u128 * bps as u128;
            assert!(covered >= bit_ps, "{bytes} B at {bps} bps finishes early");
            assert!(covered - bit_ps < bps as u128, "{bytes} B at {bps} bps");
            for (hit, n) in [
                bytes <= NARROW_MAX,
                bytes > NARROW_MAX,
                covered == bit_ps && bytes > 0,
                covered > bit_ps,
            ]
            .into_iter()
            .zip(&mut seen)
            {
                *n += hit as u32;
            }
        }
        assert!(
            seen.iter().all(|&n| n >= 400),
            "generator coverage {seen:?}"
        );
        // The boundary itself, at both ends of the bandwidth range (at
        // 1 bps it is also the last byte count whose time fits a `Tick`).
        for (bps, bytes) in [
            (1, NARROW_MAX),
            (3, NARROW_MAX),
            (3, NARROW_MAX + 1),
            (1_600_000_000_000, NARROW_MAX),
            (1_600_000_000_000, NARROW_MAX + 1),
        ] {
            let t = Bandwidth::from_bps(bps).tx_time(bytes).as_ps();
            assert_eq!(t, tx_time_wide(bps, bytes), "{bytes} B at {bps} bps");
        }
    }

    #[test]
    fn bdp() {
        // 25 Gbps * 20 us = 62.5 KB.
        let bw = Bandwidth::gbps(25);
        let bdp = bw.bdp_bytes(Tick::from_micros(20));
        assert!((bdp - 62_500.0).abs() < 1e-6);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Bandwidth::gbps(25)), "25Gbps");
        assert_eq!(format!("{}", Bandwidth::mbps(100)), "100Mbps");
        assert_eq!(format!("{}", Bandwidth::from_bps(10)), "10bps");
    }

    #[test]
    #[should_panic]
    fn tx_on_dead_link_panics() {
        Bandwidth::ZERO.tx_time(1);
    }
}
