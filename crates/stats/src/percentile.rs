//! Exact percentile estimation and summary statistics.

/// A sample set sorted once: every type-7 read of it ([`Sorted::percentile`],
/// [`Sorted::summary`]) shares the one sort, however many cuts are taken.
/// The mean is summed at construction over the **input** order — an `f64`
/// sum depends on order, and reports pin the input-order bits.
///
/// The order is exactly a stable comparison sort's, bit for bit:
/// ascending by value, and among values that compare equal the input
/// order. Among non-NaN floats only `-0.0` and `+0.0` compare equal
/// without being identical, so the run of zeros keeps its signs in input
/// order and every other tie is invisible. NaN has no rank: a NaN among
/// two or more values panics with "NaN in percentile input"; a lone NaN
/// is a one-element set (a one-element sort compares nothing).
#[derive(Debug)]
pub struct Sorted {
    values: Vec<f64>,
    mean: Option<f64>,
}

/// A `u64` whose unsigned order is the value order of non-NaN floats: a
/// negative's bits are flipped whole, a positive's sign bit is set. The
/// one pair of equal values it separates is `-0.0` (keyed just below
/// `+0.0`), so the zeros still sort as one run.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

impl Sorted {
    /// Sort `values` in place: one unstable sort on [`order_key`], then
    /// the run of zeros rewritten in input order (only needed when a
    /// `-0.0` is among them). Panics on NaN among two or more values.
    pub fn new(mut values: Vec<f64>) -> Sorted {
        let mean = mean(&values);
        let mut neg_zero = false;
        for &x in &values {
            assert!(!x.is_nan() || values.len() < 2, "NaN in percentile input");
            neg_zero |= x == 0.0 && x.is_sign_negative();
        }
        let zeros: Vec<f64> = if neg_zero {
            values.iter().copied().filter(|&x| x == 0.0).collect()
        } else {
            Vec::new()
        };
        values.sort_unstable_by_key(|&x| order_key(x));
        let lo = values.partition_point(|&x| x < 0.0);
        values[lo..lo + zeros.len()].copy_from_slice(&zeros);
        Sorted { values, mean }
    }

    /// Sort a copy of `values`.
    pub fn of(values: &[f64]) -> Sorted {
        Sorted::new(values.to_vec())
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    /// Percentile `p ∈ [0, 100]`, nearest-rank with linear interpolation
    /// (type-7 quantile, the numpy/R default). `None` for an empty set.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let v = &self.values;
        if v.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let n = v.len();
        if n == 1 {
            return Some(v[0]);
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            Some(v[lo])
        } else {
            let frac = rank - lo as f64;
            Some(v[lo] * (1.0 - frac) + v[hi] * frac)
        }
    }

    /// The [`Summary`] of the set; `None` when empty.
    pub fn summary(&self) -> Option<Summary> {
        Some(Summary {
            count: self.len(),
            mean: self.mean?,
            p50: self.percentile(50.0)?,
            p95: self.percentile(95.0)?,
            p99: self.percentile(99.0)?,
            p999: self.percentile(99.9)?,
            max: self.percentile(100.0)?,
        })
    }

    /// `(pct, value)` at [`Summary::credible_tail_pct`] of the set's size;
    /// `None` when empty.
    pub fn credible_tail(&self) -> Option<(f64, f64)> {
        let pct = Summary::credible_tail_pct(self.len());
        self.percentile(pct).map(|v| (pct, v))
    }
}

/// Arithmetic mean; `None` for empty input.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`; 1.0 = perfectly fair.
pub fn jain_index(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s: f64 = values.iter().sum();
    let s2: f64 = values.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        return Some(1.0); // all-zero allocations are (vacuously) fair
    }
    Some(s * s / (values.len() as f64 * s2))
}

/// A compact distribution summary for report tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Median (p50).
    pub p50: f64,
    /// p95.
    pub p95: f64,
    /// p99.
    pub p99: f64,
    /// p99.9 — the paper's headline metric.
    pub p999: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample set; `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        Sorted::of(values).summary()
    }

    /// The highest percentile this sample size can estimate credibly
    /// (needs ≥ ~10 samples beyond the cut): 99.9 for ≥10k samples, 99
    /// for ≥1k, 95 for ≥200, else 50. Experiments report this so that
    /// scaled-down runs do not over-claim tail fidelity.
    pub fn credible_tail_pct(n: usize) -> f64 {
        if n >= 10_000 {
            99.9
        } else if n >= 1_000 {
            99.0
        } else if n >= 200 {
            95.0
        } else {
            50.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stable `partial_cmp` sort [`Sorted::new`] replaced: the one
    /// place it survives, as the oracle.
    fn oracle_sort(values: &[f64]) -> Vec<f64> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
        v
    }

    /// The sort-per-call definition the view replaced, kept verbatim as
    /// the oracle.
    fn oracle_percentile(values: &[f64], p: f64) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let v = oracle_sort(values);
        let n = v.len();
        if n == 1 {
            return Some(v[0]);
        }
        let rank = p / 100.0 * (n - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            Some(v[lo])
        } else {
            let frac = rank - lo as f64;
            Some(v[lo] * (1.0 - frac) + v[hi] * frac)
        }
    }

    fn oracle_summary(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        Some(Summary {
            count: values.len(),
            mean: mean(values)?,
            p50: oracle_percentile(values, 50.0)?,
            p95: oracle_percentile(values, 95.0)?,
            p99: oracle_percentile(values, 99.0)?,
            p999: oracle_percentile(values, 99.9)?,
            max: oracle_percentile(values, 100.0)?,
        })
    }

    fn bits(x: Option<f64>) -> Option<u64> {
        x.map(f64::to_bits)
    }

    fn summary_bits(s: Option<Summary>) -> Option<[u64; 7]> {
        s.map(|s| {
            [
                s.count as u64,
                s.mean.to_bits(),
                s.p50.to_bits(),
                s.p95.to_bits(),
                s.p99.to_bits(),
                s.p999.to_bits(),
                s.max.to_bits(),
            ]
        })
    }

    /// A sample drawn from a small pool so duplicates are common, with
    /// both zeros, both infinities and subnormals of either sign (the
    /// zeros' nearest neighbours) among the draws.
    fn sample(draw: u32, scale: f64) -> f64 {
        let tiny = || f64::from_bits(u64::from(draw / 14 % 3) + 1);
        match draw % 14 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => tiny(),
            5 => -tiny(),
            k => (draw / 14 % 7) as f64 * scale * if k % 2 == 0 { 1.0 } else { -0.5 },
        }
    }

    fn all_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The whole sorted array equals the stable `partial_cmp` sort's, bit
    /// for bit, and so does every cut the reports take — the summary's
    /// five, each credible tail, the 0–100 buffer-CDF ladder. The
    /// generator must reach zero runs whose signs the unstable sort could
    /// have reordered.
    #[test]
    fn sorted_view_matches_sort_per_call() {
        let draws = prop::collection::vec(0u32..u32::MAX, 0usize..=2_000);
        let scales = 0.001f64..1e6;
        let mut rng = proptest::TestRng::deterministic("sorted_view_matches_sort_per_call");
        let mut mixed_zero_runs = 0;
        for _ in 0..64 {
            let draws = draws.sample(&mut rng);
            let scale = scales.sample(&mut rng);
            let values: Vec<f64> = draws.iter().map(|&d| sample(d, scale)).collect();
            let view = Sorted::of(&values);
            let sorted = oracle_sort(&values);
            assert_eq!(all_bits(&view.values), all_bits(&sorted));
            let zeros: Vec<bool> = sorted
                .iter()
                .filter(|&&x| x == 0.0)
                .map(|x| x.is_sign_negative())
                .collect();
            mixed_zero_runs += usize::from(zeros.contains(&true) && zeros.contains(&false));
            let pcts = [0.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0];
            for p in pcts {
                assert_eq!(
                    bits(view.percentile(p)),
                    bits(oracle_percentile(&values, p))
                );
            }
            assert_eq!(
                summary_bits(view.summary()),
                summary_bits(oracle_summary(&values))
            );
            assert_eq!(
                summary_bits(Summary::of(&values)),
                summary_bits(oracle_summary(&values))
            );
            let pct = Summary::credible_tail_pct(values.len());
            assert_eq!(
                view.credible_tail()
                    .map(|(p, v)| (p.to_bits(), v.to_bits())),
                oracle_percentile(&values, pct).map(|v| (pct.to_bits(), v.to_bits()))
            );
            // Sorting an owned vector in place reads the same.
            let owned = Sorted::new(values.clone());
            assert_eq!(all_bits(&owned.values), all_bits(&view.values));
            assert_eq!(summary_bits(owned.summary()), summary_bits(view.summary()));
        }
        assert!(
            mixed_zero_runs >= 40,
            "mixed-sign zero runs in {mixed_zero_runs} of 64 cases"
        );
    }

    /// Every `credible_tail_pct` rung, on sizes straddling each boundary.
    #[test]
    fn credible_tails_match_sort_per_call_at_every_rung() {
        for n in [1, 2, 199, 200, 999, 1_000, 9_999, 10_000, 10_001] {
            let values: Vec<f64> = (0..n).map(|i| sample(i as u32 * 7919, 0.37)).collect();
            let pct = Summary::credible_tail_pct(n);
            let (got_pct, got) = Sorted::of(&values).credible_tail().unwrap();
            assert_eq!(got_pct, pct);
            assert_eq!(
                Some(got.to_bits()),
                bits(oracle_percentile(&values, pct)),
                "n={n}"
            );
        }
    }

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let v = Sorted::new(v);
        assert_eq!(v.percentile(0.0), Some(1.0));
        assert_eq!(v.percentile(100.0), Some(100.0));
        let p50 = v.percentile(50.0).unwrap();
        assert!((p50 - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let v = Sorted::new(vec![10.0, 20.0]);
        assert!((v.percentile(25.0).unwrap() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = Sorted::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(v.percentile(50.0), Some(3.0));
    }

    #[test]
    fn mean_keeps_input_order() {
        // Input order sums (1e17 - 1e17) + 1 = 1; sorted order would sum
        // (-1e17 + 1) + 1e17 = 0, the 1 lost below 1e17's spacing.
        let s = Summary::of(&[1e17, -1e17, 1.0]).unwrap();
        assert_eq!(s.mean, 1.0 / 3.0);
    }

    #[test]
    fn empty_inputs_are_none() {
        let empty = Sorted::new(Vec::new());
        assert_eq!(empty.percentile(50.0), None);
        assert_eq!(empty.credible_tail(), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(jain_index(&[]), None);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn jain_extremes() {
        // Perfectly fair.
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]).unwrap() - 1.0).abs() < 1e-12);
        // One hog among n: index = 1/n.
        let j = jain_index(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_orders_percentiles() {
        let v: Vec<f64> = (0..10_000).map(|x| x as f64).collect();
        let s = Summary::of(&v).unwrap();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
        assert_eq!(s.count, 10_000);
    }

    #[test]
    fn credible_tail_scales_with_samples() {
        assert_eq!(Summary::credible_tail_pct(50), 50.0);
        assert_eq!(Summary::credible_tail_pct(500), 95.0);
        assert_eq!(Summary::credible_tail_pct(5_000), 99.0);
        assert_eq!(Summary::credible_tail_pct(50_000), 99.9);
    }

    #[test]
    #[should_panic]
    fn out_of_range_percentile_panics() {
        Sorted::new(vec![1.0]).percentile(101.0);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn nan_panics() {
        Sorted::new(vec![1.0, f64::NAN]);
    }

    /// A NaN among two or more values panics wherever it sits, as the
    /// stable sort's `partial_cmp` did; a lone NaN is sorted without a
    /// comparison and reads back as itself.
    #[test]
    fn nan_is_pinned_as_the_stable_sort_had_it() {
        for n in [2, 3, 17] {
            for at in 0..n {
                let mut values: Vec<f64> = (0..n).map(|i| sample(i as u32, 1.5)).collect();
                values[at] = f64::NAN;
                for sort in [
                    |v: &[f64]| drop(Sorted::of(v)),
                    |v: &[f64]| drop(oracle_sort(v)),
                ] {
                    let err = std::panic::catch_unwind(|| sort(&values)).unwrap_err();
                    let msg = err.downcast_ref::<&str>().copied();
                    let msg = msg.or(err.downcast_ref::<String>().map(String::as_str));
                    assert_eq!(msg, Some("NaN in percentile input"), "n={n} at={at}");
                }
            }
        }
        let lone = Sorted::new(vec![f64::NAN]);
        assert!(lone.percentile(50.0).unwrap().is_nan());
        assert!(lone.summary().unwrap().mean.is_nan());
        assert!(oracle_sort(&[f64::NAN])[0].is_nan());
    }
}
