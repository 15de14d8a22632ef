//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this shim vendors
//! the subset of proptest's API that the workspace's property tests use
//! (see DESIGN.md, "Offline shims"): the [`proptest!`] macro with
//! `pattern in strategy` arguments and an optional
//! `#![proptest_config(..)]` header, [`Strategy`] with `prop_map` /
//! `prop_flat_map`, range and tuple strategies, [`Just`],
//! `prop::collection::vec`, and the `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its inputs via the assert
//!   message (every `prop_assert!` is a plain `assert!`), unminimized.
//! * **Deterministic exploration.** Each test derives its RNG seed from
//!   the test name, so failures reproduce exactly across runs — there is
//!   no persistence file.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// The RNG handed to strategies (a seeded deterministic generator).
#[derive(Clone, Debug)]
pub struct TestRng(StdRng);

impl TestRng {
    /// A generator whose stream is a pure function of `name` — each
    /// property test explores the same cases on every run.
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the test name.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    /// Next raw word (for strategy implementations).
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.random::<f64>()
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.0.random_range(0..bound.max(1))
    }
}

/// Configuration block accepted by `#![proptest_config(..)]`.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of an output type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` builds
    /// from it (dependent generation).
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn sample(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi - lo) as u128 + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u64, u32, u16, u8, usize, i64, i32);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[expect(non_snake_case, reason = "the tuple's type parameters double as its bindings")]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Strategy modules mirroring proptest's `prop::` namespace.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Length ranges accepted by [`vec`].
        pub trait IntoSizeRange {
            /// Lower and inclusive upper length bound.
            fn bounds(&self) -> (usize, usize);
        }

        impl IntoSizeRange for Range<usize> {
            fn bounds(&self) -> (usize, usize) {
                assert!(self.start < self.end, "empty size range");
                (self.start, self.end - 1)
            }
        }

        impl IntoSizeRange for RangeInclusive<usize> {
            fn bounds(&self) -> (usize, usize) {
                (*self.start(), *self.end())
            }
        }

        impl IntoSizeRange for usize {
            fn bounds(&self) -> (usize, usize) {
                (*self, *self)
            }
        }

        /// A `Vec` whose length is drawn from `len` and whose elements
        /// are drawn from `element`.
        pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S> {
            let (min, max) = len.bounds();
            VecStrategy { element, min, max }
        }

        /// See [`vec`].
        pub struct VecStrategy<S> {
            element: S,
            min: usize,
            max: usize,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.min + rng.below(self.max - self.min + 1);
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property (no shrinking: plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Defines property tests: each `fn name(pat in strategy, ..) { body }`
/// becomes a `#[test]` running `body` over `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr)
     $( $(#[$meta:meta])* fn $name:ident(
            $($pat:pat_param in $strat:expr),+ $(,)?
        ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    let _ = case;
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 5u64..10, y in 0.0..1.0f64, z in 3usize..=6) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
            prop_assert!((3..=6).contains(&z));
        }

        #[test]
        fn vec_respects_len(v in prop::collection::vec(0u32..100, 2..8)) {
            prop_assert!(v.len() >= 2 && v.len() < 8);
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn flat_map_dependent((n, v) in (1usize..=4).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(0u64..10, n..=n))
        })) {
            prop_assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn config_cases_respected() {
        let c = ProptestConfig::with_cases(7);
        assert_eq!(c.cases, 7);
    }

    #[test]
    fn tuple_and_map_strategies() {
        let mut rng = crate::TestRng::deterministic("tuple_and_map");
        let s = (0u64..5, 10u32..20).prop_map(|(a, b)| a as u32 + b);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((10..25).contains(&v));
        }
    }
}
