//! # dcn-transport
//!
//! Transport machinery connecting congestion-control algorithms
//! (`powertcp-core`, `cc-baselines`) to the packet simulator (`dcn-sim`):
//!
//! * [`TransportHost`] — the RDMA-style windowed transport of the paper's
//!   deployment scenario: per-packet ACKs with echoed INT/ECN, sender-side
//!   pacing + window enforcement, go-back-N loss recovery (NACK + RTO),
//!   pluggable CC via a per-flow factory.
//! * [`HomaHost`] — HOMA's receiver-driven transport (unscheduled bursts,
//!   SRPT grants, priority queues, configurable overcommitment), the
//!   paper's receiver-driven baseline.
//! * [`FlowSpec`]/[`MetricsHub`] — experiment plumbing: flow registration
//!   and completion records shared with the harness.

#![warn(missing_docs)]

pub mod config;
pub mod flow;
pub mod homa;
pub mod host;
pub mod metrics;
mod timer_key;

pub use config::TransportConfig;
pub use flow::FlowSpec;
pub use homa::{HomaConfig, HomaHost};
pub use host::{CcFactory, TransportHost};
pub use metrics::{FlowRecord, MetricsHub, SharedMetrics};
