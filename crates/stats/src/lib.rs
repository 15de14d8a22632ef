//! # dcn-stats
//!
//! Measurement reduction for the evaluation harness: exact percentiles
//! (one quantile definition, type-7, read off a [`Sorted`] view that
//! sorts each sample set once — buffer-occupancy CDFs are a ladder of
//! them), FCT-slowdown computation, and the Jain fairness index — the
//! metrics behind every table and figure in the paper.

#![warn(missing_docs)]

pub mod percentile;
pub mod slowdown;

pub use percentile::{jain_index, mean, Sorted, Summary};
pub use slowdown::{ideal_fct, slowdown};
