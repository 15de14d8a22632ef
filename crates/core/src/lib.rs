//! # powertcp-core
//!
//! From-scratch Rust implementation of **PowerTCP** (Addanki, Michel,
//! Schmid — *PowerTCP: Pushing the Performance Limits of Datacenter
//! Networks*, NSDI 2022): a power-based congestion control law for
//! datacenter networks.
//!
//! ## The idea
//!
//! Classic datacenter CC reacts to either the network's absolute state
//! ("voltage": queue length, delay — DCTCP, HPCC, Swift) or to its rate of
//! change ("current": RTT gradient — TIMELY). Each misses half the picture
//! (paper §2). PowerTCP reacts to their product, **power**:
//!
//! ```text
//! Γ(t) = (q(t) + b·τ) · (q̇(t) + µ(t))  =  voltage · current
//! ```
//!
//! Property 1 of the paper shows `Γ(t) = b · w(t − t_f)` — power reveals
//! the *aggregate* window of all flows sharing the bottleneck, enabling the
//! window update (Eq. 7)
//!
//! ```text
//! w ← γ·( w_old · e / f(t) + β ) + (1−γ)·w ,   e = b²τ,  f(t) = Γ
//! ```
//!
//! to steer directly to the unique equilibrium `w_e = b·τ + β̂`,
//! `q_e = β̂` (Theorems 1–3: Lyapunov + asymptotic stability, exponential
//! convergence with time constant `δt/γ`, β-weighted proportional
//! fairness).
//!
//! ## What lives here
//!
//! * [`PowerTcp`] — the INT-based algorithm (Algorithm 1),
//! * [`ThetaPowerTcp`] — the delay-based standalone variant (Algorithm 2);
//!   both steer one Eq. 7 window and take one tunable, the EWMA gain γ
//!   ([`GAMMA`] `= 0.9` is the paper's value; `β` derives from the
//!   [`CcContext`]),
//! * [`PowerEstimator`] — power computation from consecutive INT snapshots,
//! * [`IntHeader`]/[`IntHop`] — HPCC-compatible telemetry types,
//! * [`CongestionControl`] — the trait every algorithm (including the
//!   baselines in `cc-baselines`) implements,
//! * [`Tick`]/[`Bandwidth`] — exact integer time (picoseconds) and
//!   bandwidth units shared across the workspace.
//!
//! This crate has **no dependencies**: it is the piece a real transport
//! stack (kernel module, NIC firmware, kernel-bypass stack) would embed.
//!
//! ## Quick example
//!
//! ```
//! use powertcp_core::{
//!     AckInfo, Bandwidth, CcContext, CongestionControl, IntHeader,
//!     IntHop, PowerTcp, Tick, GAMMA,
//! };
//!
//! let ctx = CcContext {
//!     base_rtt: Tick::from_micros(20),
//!     host_bw: Bandwidth::gbps(25),
//!     mtu: 1000,
//!     expected_flows: 4,
//! };
//! let mut cc = PowerTcp::new(GAMMA, ctx);
//! assert_eq!(cc.cwnd() as u64, 62_500); // HostBw × τ
//!
//! // Feed an ACK carrying an INT snapshot of the bottleneck egress port.
//! let mut int = IntHeader::new();
//! int.push(IntHop {
//!     qlen_bytes: 0,
//!     ts: Tick::from_micros(100),
//!     tx_bytes: 0,
//!     bandwidth: Bandwidth::gbps(100),
//! });
//! cc.on_ack(&AckInfo {
//!     now: Tick::from_micros(120),
//!     ack_seq: 1000, newly_acked: 1000, snd_nxt: 62_500,
//!     rtt: Tick::from_micros(20),
//!     int: Some(&int), ecn_marked: false,
//! });
//! // First snapshot only bootstraps the estimator; window unchanged.
//! assert_eq!(cc.cwnd() as u64, 62_500);
//! ```

#![warn(missing_docs)]

pub mod cc;
pub mod int;
pub mod power;
pub mod powertcp;
pub mod theta;
pub mod time;
pub mod units;
mod window;

pub use cc::{
    clamp_cwnd, rate_from_cwnd, AckInfo, CcContext, CongestionControl, LossKind, NetSignal,
};
pub use int::{IntHeader, IntHop, IntHopMetadata, MAX_INT_HOPS};
pub use power::{
    norm_power_closed_form, PowerEstimator, PowerSample, MAX_NORM_POWER, MIN_NORM_POWER,
};
pub use powertcp::PowerTcp;
pub use theta::ThetaPowerTcp;
pub use time::Tick;
pub use units::Bandwidth;
pub use window::GAMMA;
