//! # powertcp-bench
//!
//! The Criterion benches (`cargo bench -p powertcp-bench`): the control
//! laws' per-ACK update (`cc_update`), the event core and a transport
//! point (`sim_engine`), and one scaled-down entry per figure family
//! (`scenarios`). This library is documentation only.
//!
//! Experiments do not live here: every figure of the paper is a builtin
//! spec of `dcn-scenarios` run by `xp run <name>` (see `EXPERIMENTS.md`
//! for the figure ↔ command table and `DESIGN.md`, "One front door").

#![forbid(unsafe_code)]
