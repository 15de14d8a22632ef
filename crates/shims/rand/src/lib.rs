//! Minimal, dependency-free stand-in for the `rand` crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so the workspace vendors the *exact API surface it uses* of `rand`
//! (see DESIGN.md, "Offline shims"): [`rngs::StdRng`], [`SeedableRng`],
//! the [`Rng`] core trait, and the [`RngExt`] extension methods
//! `random()` / `random_range()`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — not the
//! ChaCha12 of the real `StdRng`, but every consumer in this workspace
//! only relies on (a) determinism given a seed and (b) decent statistical
//! uniformity, both of which xoshiro256++ provides. Streams are stable
//! across platforms and releases: experiment results derived from a seed
//! are reproducible byte-for-byte.

#![warn(missing_docs)]

/// A source of random 64-bit words. (Stands in for `rand::RngCore` +
/// `rand::Rng`; the two are collapsed because nothing here needs the
/// distinction.)
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from an RNG word stream.
pub trait Standard: Sized {
    /// Draw one value.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that can be sampled to a uniform value.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Lemire-style unbiased bounded sampling via 128-bit multiply-shift,
/// with a rejection pass for the biased slice.
fn bounded<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    assert!(bound > 0, "empty sample range");
    // Rejection sampling on the widest multiple of `bound` below 2^64:
    // unbiased and cheap (one reject every ~2^64/bound draws at worst).
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + bounded(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn draw<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + bounded(rng, span + 1) as $t
            }
        }
    )*};
}

impl_sample_range!(u64, u32, usize);

/// Extension methods mirroring `rand`'s `Rng` convenience API.
pub trait RngExt: Rng {
    /// A uniformly random value of `T` (for `f64`: uniform in `[0, 1)`).
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniformly random value in `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.draw(self)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Construction of seeded RNGs.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator (stands in for `StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the xoshiro state,
            // as recommended by the xoshiro authors.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.random::<u64>() == b.random::<u64>())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval_with_correct_mean() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_sampling_uniform_and_in_bounds() {
        let mut r = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let v = r.random_range(0..10usize);
            counts[v] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts {counts:?}");
        }
        for _ in 0..1000 {
            let v = r.random_range(5..=7u32);
            assert!((5..=7).contains(&v));
        }
    }
}
