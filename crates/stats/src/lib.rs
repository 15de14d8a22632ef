//! # dcn-stats
//!
//! Measurement reduction for the evaluation harness: exact percentiles
//! (one quantile definition, type-7, read off a [`Sorted`] view that
//! sorts each sample set once — buffer-occupancy CDFs are a ladder of
//! them), FCT-slowdown computation, and the Jain fairness index — the
//! metrics behind every table and figure in the paper.
//!
//! [`Sorted`]'s contract: its order is a stable comparison sort's, bit
//! for bit — ascending, ties in input order, so a run of `-0.0` / `+0.0`
//! keeps its signs as they came — reached by one in-place unstable sort
//! on an integer key; its mean is summed in input order; a NaN among two
//! or more values panics ("NaN in percentile input"), and a lone NaN is a
//! one-element set that reads back as NaN.

#![warn(missing_docs)]

pub mod percentile;
pub mod slowdown;

pub use percentile::{jain_index, mean, Sorted, Summary};
pub use slowdown::{ideal_fct, slowdown};
