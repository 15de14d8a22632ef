//! Downsampling and reduction of sample streams.
//!
//! Traces sampled on a fine tick grid are too dense to export or eyeball;
//! these reducers shrink them deterministically (pure functions of the
//! input — no clocks, no randomness).
//!
//! **Eviction caveat:** everything here operates on the samples you hand
//! it — for a ring-buffered channel that is the *kept* window, not the
//! full history. Reductions that must cover the whole run even after the
//! ring evicts (e.g. a peak across an early event) belong in streaming
//! accumulators fed by the probe sink itself, as the scenario trace
//! engine does; use these post-hoc reducers on exported [`ChannelTrace`]
//! samples or on channels whose ring never filled.
//!
//! [`ChannelTrace`]: crate::export::ChannelTrace

use crate::probe::Sample;

/// Decimate to exactly `min(len, max_rows)` samples by fractional-index
/// picking (order preserved; the first and last samples are always kept,
/// so a trace's endpoint never disappears from a plot): the samples at
/// [`kept_rows`].
pub fn decimate(samples: &[Sample], max_rows: usize) -> Vec<Sample> {
    kept_rows(samples.len(), max_rows)
        .map(|i| samples[i])
        .collect()
}

/// The indices, in order, of the `min(len, max_rows)` samples of `len`
/// that [`decimate`] keeps; exporting a ring picks them from it in place.
///
/// Row `i` takes the sample at `⌊i·(len−1)/(max_rows−1)⌋`, which spreads
/// the row budget evenly instead of the integer-stride rule that could
/// return barely half of `max_rows` (e.g. `len=11, max_rows=10` kept only
/// 6 samples and dropped the final one). With `max_rows = 1` the last
/// sample wins (the always-keep-the-last rule takes precedence).
pub(crate) fn kept_rows(len: usize, max_rows: usize) -> impl Iterator<Item = usize> {
    let max_rows = max_rows.max(1);
    (0..len.min(max_rows)).map(move |i| {
        if len <= max_rows {
            i
        } else if max_rows == 1 {
            len - 1
        } else {
            i * (len - 1) / (max_rows - 1)
        }
    })
}

/// Average consecutive windows of `window` samples (partial tail window
/// included): a low-pass alternative to [`decimate`] when spikes should be
/// smeared rather than dropped. The x of each output sample is the window's
/// first x.
pub fn window_mean(samples: &[Sample], window: usize) -> Vec<Sample> {
    let window = window.max(1);
    samples
        .chunks(window)
        .map(|w| Sample {
            x: w[0].x,
            y: w.iter().map(|s| s.y).sum::<f64>() / w.len() as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                x: i as f64,
                y: i as f64 * 10.0,
            })
            .collect()
    }

    #[test]
    fn decimate_bounds_rows_and_keeps_order() {
        let s = samples(100);
        let d = decimate(&s, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].x, 0.0);
        assert_eq!(d.last().unwrap().x, 99.0);
        assert!(d.windows(2).all(|w| w[0].x < w[1].x));
        // No-op when already small.
        assert_eq!(decimate(&s[..5], 10).len(), 5);
    }

    #[test]
    fn decimate_fills_the_row_budget_and_keeps_the_last_sample() {
        // Regression: the old integer-stride rule kept only 6 of 10
        // requested rows for len=11 and dropped the final sample.
        let s = samples(11);
        let d = decimate(&s, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].x, 0.0);
        assert_eq!(d.last().unwrap().x, 10.0);
        assert!(d.windows(2).all(|w| w[0].x < w[1].x));
        // Exactly min(len, max_rows) across a spread of shapes.
        for len in [1usize, 2, 7, 11, 12, 99, 100, 101, 1000] {
            for rows in [1usize, 2, 3, 10, 50, 120] {
                let s = samples(len);
                let d = decimate(&s, rows);
                assert_eq!(d.len(), len.min(rows), "len={len} rows={rows}");
                assert_eq!(
                    d.last().unwrap().x,
                    s.last().unwrap().x,
                    "len={len} rows={rows} must keep the last sample"
                );
                assert!(d.windows(2).all(|w| w[0].x < w[1].x));
            }
        }
    }

    #[test]
    fn window_mean_averages_chunks() {
        let s = samples(5);
        let w = window_mean(&s, 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], Sample { x: 0.0, y: 5.0 });
        assert_eq!(w[2], Sample { x: 4.0, y: 40.0 }); // partial tail
    }
}
