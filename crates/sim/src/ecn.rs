//! ECN marking (RED-style, as configured for DCQCN deployments).
//!
//! Packets are marked Congestion-Experienced at enqueue based on the
//! instantaneous egress queue length: never below `kmin`, always at or
//! above `kmax`, and with probability rising linearly from 0 to `pmax` in
//! between. DCQCN's recommended switch configuration is exactly this
//! (Zhu et al., SIGCOMM 2015); step marking is the special case
//! `kmin == kmax`.

/// RED/ECN marking parameters for a switch.
#[derive(Clone, Copy, Debug)]
pub struct EcnConfig {
    /// Queue length (bytes) below which nothing is marked.
    pub kmin_bytes: u64,
    /// Queue length (bytes) at and above which everything is marked.
    pub kmax_bytes: u64,
    /// Marking probability at `kmax` (linear ramp from 0 at `kmin`).
    pub pmax: f64,
}

impl EcnConfig {
    /// Marking probability for a queue currently `qlen` bytes deep.
    pub fn mark_probability(&self, qlen: u64) -> f64 {
        if qlen < self.kmin_bytes {
            0.0
        } else if qlen >= self.kmax_bytes {
            1.0
        } else {
            let span = (self.kmax_bytes - self.kmin_bytes) as f64;
            self.pmax * (qlen - self.kmin_bytes) as f64 / span
        }
    }
}

/// Tiny deterministic PRNG (xorshift64*) for marking decisions — one per
/// switch, seeded from the switch id, so simulations replay exactly.
#[derive(Clone, Debug)]
pub struct MarkRng(u64);

impl MarkRng {
    /// Seeded constructor; a zero seed is remapped (xorshift state must be
    /// non-zero).
    pub fn new(seed: u64) -> Self {
        MarkRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next uniform sample in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_marking() {
        let c = EcnConfig {
            kmin_bytes: 100_000,
            kmax_bytes: 100_000,
            pmax: 1.0,
        };
        assert_eq!(c.mark_probability(99_999), 0.0);
        assert_eq!(c.mark_probability(100_000), 1.0);
        assert_eq!(c.mark_probability(1_000_000), 1.0);
    }

    #[test]
    fn linear_ramp() {
        let c = EcnConfig {
            kmin_bytes: 100,
            kmax_bytes: 300,
            pmax: 0.5,
        };
        assert_eq!(c.mark_probability(0), 0.0);
        assert_eq!(c.mark_probability(100), 0.0);
        assert!((c.mark_probability(200) - 0.25).abs() < 1e-12);
        assert_eq!(c.mark_probability(300), 1.0);
    }

    #[test]
    fn rng_is_deterministic_and_uniformish() {
        let mut a = MarkRng::new(7);
        let mut b = MarkRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_f64(), b.next_f64());
        }
        let mut r = MarkRng::new(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn chance_extremes_never_sample() {
        let mut r = MarkRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
