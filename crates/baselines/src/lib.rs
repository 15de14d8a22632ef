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

pub use dcqcn::{Dcqcn, DcqcnConfig};
pub use dctcp::{Dctcp, DctcpConfig};
pub use hpcc::{Hpcc, HpccConfig};
pub use newreno::{NewReno, NewRenoConfig};
pub use retcp::{ReTcp, ReTcpConfig};
pub use swift::{Swift, SwiftConfig};
pub use timely::{Timely, TimelyConfig};
