//! Estimators over repeated timings.
//!
//! Interference on a shared box only adds time, so the *minimum* of the
//! repetitions is the repeatable estimator of a timing; the median and
//! quartiles are kept beside it to show how disturbed the run was.

/// Minimum, quartiles and median of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Summarise `samples` (at least one). Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the driver's spread check uses; a single sample is its own
/// quartiles.
pub fn summary(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |i: usize| {
        if n < 2 {
            return s[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // May be negative or exceed 4 at the clamped ends: the exclusive
        // method extrapolates there, exactly as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Summary {
        min: s[0],
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Relative difference `|a - b| / min(a, b)`; 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let base = a.min(b);
    if base > 0.0 {
        (a - b).abs() / base
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = summary(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 2.0, 4.0, 6.0));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.iqr(), 5.5);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summary(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summary(&[3.5]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (3.5, 3.5, 3.5, 3.5));
    }

    #[test]
    fn minimum_ignores_disturbed_repetitions() {
        let s = summary(&[1.00, 1.01, 1.70, 1.02, 1.00, 2.40, 1.01]);
        assert_eq!(s.min, 1.00);
        assert!(s.median < 1.03);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 95.0), 4.0);
    }

    #[test]
    fn rel_diff_is_symmetric() {
        assert!((rel_diff(1.0, 1.1) - 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(1.1, 1.0), rel_diff(1.0, 1.1));
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
