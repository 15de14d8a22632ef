//! Exact percentile estimation and summary statistics.

/// A sample set sorted once: every type-7 read of it ([`Sorted::percentile`],
/// [`Sorted::summary`]) shares the one sort, however many cuts are taken.
/// The mean is summed at construction over the **input** order — an `f64`
/// sum depends on order, and reports pin the input-order bits.
#[derive(Debug)]
pub struct Sorted {
    values: Vec<f64>,
    mean: Option<f64>,
}

impl Sorted {
    /// Sort `values` in place (stable, so equal elements such as `-0.0` /
    /// `0.0` keep their input order). Panics on NaN, which has no rank.
    pub fn new(mut values: Vec<f64>) -> Sorted {
        let mean = mean(&values);
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
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

    /// The sort-per-call definition the view replaced, kept verbatim as
    /// the oracle.
    fn oracle_percentile(values: &[f64], p: f64) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
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
    /// both zeros and both infinities among the draws.
    fn sample(draw: u32, scale: f64) -> f64 {
        match draw % 12 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            k => (draw / 12 % 7) as f64 * scale * if k % 2 == 0 { 1.0 } else { -0.5 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every cut the reports take — the summary's five, each credible
        /// tail, the 0–100 buffer-CDF ladder — read off one sort equals
        /// the old sort-per-call, bit for bit.
        #[test]
        fn sorted_view_matches_sort_per_call(
            draws in prop::collection::vec(0u32..u32::MAX, 0usize..=2_000),
            scale in 0.001f64..1e6,
        ) {
            let values: Vec<f64> = draws.iter().map(|&d| sample(d, scale)).collect();
            let view = Sorted::of(&values);
            prop_assert_eq!(view.len(), values.len());
            let pcts = [0.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0];
            for p in pcts {
                prop_assert_eq!(bits(view.percentile(p)), bits(oracle_percentile(&values, p)));
            }
            prop_assert_eq!(summary_bits(view.summary()), summary_bits(oracle_summary(&values)));
            prop_assert_eq!(summary_bits(Summary::of(&values)), summary_bits(oracle_summary(&values)));
            let pct = Summary::credible_tail_pct(values.len());
            prop_assert_eq!(
                view.credible_tail().map(|(p, v)| (p.to_bits(), v.to_bits())),
                oracle_percentile(&values, pct).map(|v| (pct.to_bits(), v.to_bits()))
            );
            // Sorting an owned vector in place reads the same.
            let owned = Sorted::new(values.clone());
            prop_assert_eq!(summary_bits(owned.summary()), summary_bits(view.summary()));
        }
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
}
