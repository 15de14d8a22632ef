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
//! | [`Swift`]   | Kumar et al., SIGCOMM 2020  | voltage (delay) |
//! | [`Dctcp`]   | Alizadeh et al., SIGCOMM 2010 | voltage (ECN) |
//! | [`NewReno`] | RFC 6582                    | voltage (loss) |
//! | [`ReTcp`]   | Mukerjee et al., NSDI 2020  | loss + circuit-aware scaling |
//!
//! Each law is built from the flow's [`powertcp_core::CcContext`] alone
//! (`Dcqcn::new(ctx)`, …), except HPCC, which also takes its target
//! utilization η ([`hpcc::ETA`] `= 0.95` is the paper's value) because a
//! spec can sweep it. Every other parameter is a constant of its law's
//! module, listed in that module's doc with its source.
//!
//! HOMA — the receiver-driven baseline — is a transport, not a CC law, and
//! lives in `dcn-transport`.

#![warn(missing_docs)]

pub mod dcqcn;
pub mod dctcp;
pub mod hpcc;
pub mod newreno;
pub mod retcp;
pub mod swift;
pub mod timely;

pub use dcqcn::Dcqcn;
pub use dctcp::Dctcp;
pub use hpcc::Hpcc;
pub use newreno::NewReno;
pub use retcp::ReTcp;
pub use swift::Swift;
pub use timely::Timely;
