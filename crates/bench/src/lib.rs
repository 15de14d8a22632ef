//! # powertcp-bench
//!
//! The evaluation harness: per-figure regeneration binaries
//! (`fig2` … `fig9to11`, `theorems`) and the Criterion benches. See
//! `EXPERIMENTS.md` for the experiment ↔ figure mapping and recorded
//! results.
//!
//! The experiment engines live in `dcn-scenarios` (the declarative spec +
//! executor; see `DESIGN.md`) and the binaries here are thin front-ends
//! over its built-in specs: the time-series figures (fig2/fig4/fig5/fig8)
//! run through `dcn_scenarios::run_trace`, `fig7` through
//! `dcn_scenarios::run_point` (its incast rate/size panels are not a
//! spec axis), and Figure 6 is `xp run fig6`. Prefer expressing new
//! experiments as scenario specs run via `xp run` over adding binaries
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod table;
