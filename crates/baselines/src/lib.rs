//! # cc-baselines
//!
//! The congestion-control baselines the PowerTCP paper evaluates against,
//! reimplemented from their original papers behind the shared
//! [`powertcp_core::CongestionControl`] trait:
//!
//! | Algorithm | Paper | Class (PowerTCP taxonomy) |
//! |-----------|-------|---------------------------|
//! | [`Hpcc`]    | Li et al., SIGCOMM 2019     | voltage (INT inflight) |
//! | [`Dcqcn`]   | Zhu et al., SIGCOMM 2015    | voltage (ECN) |
//! | [`Timely`]  | Mittal et al., SIGCOMM 2015 | current (RTT gradient) |
//! | [`ReTcp`]   | Mukerjee et al., NSDI 2020  | loss + circuit-aware scaling |
//! | [`NewReno`] | RFC 6582                    | voltage (loss): reTCP's base law |
//!
//! Each law is built from the flow's [`powertcp_core::CcContext`] alone
//! (`Hpcc::new(ctx)`, …). Every parameter is a constant of its law's
//! module, listed in that module's doc with its source.
//!
//! HOMA — the receiver-driven baseline — is a transport, not a CC law, and
//! lives in `dcn-transport`.

#![warn(missing_docs)]

pub mod dcqcn;
pub mod hpcc;
pub mod newreno;
pub mod retcp;
pub mod timely;

pub use dcqcn::Dcqcn;
pub use hpcc::Hpcc;
pub use newreno::NewReno;
pub use retcp::ReTcp;
pub use timely::Timely;
