//! # dcn-telemetry
//!
//! First-class time-series measurement for the PowerTCP reproduction:
//! the probe framework behind the `timeseries` scenario kind of
//! `dcn-scenarios` and the paper's temporal figures (fig 2/4/5/8 —
//! queue reaction, convergence, fairness, circuit utilization over time).
//!
//! ## The pieces
//!
//! * [`ring`] — [`RingBuffer`]: fixed-capacity, oldest-first-evicting
//!   sample storage, so long horizons collect in bounded memory with an
//!   explicit evicted count (no silent truncation).
//! * [`probe`] — [`Recorder`]: named channels ("queue", "throughput",
//!   "cwnd", "power", …) on a configurable sampling tick; simulator
//!   tracers record into a [`SharedRecorder`] handle.
//! * [`reduce`] — deterministic post-hoc downsampling (stride
//!   [`decimate`], [`window_mean`]) and the tail peak [`max_after`]. The
//!   windowed reductions a traced run reports are streamed instead, by
//!   `dcn-scenarios::trace_engine`.
//! * [`export`] — [`TraceReport`]: fixed-field-order JSON, long-format
//!   CSV, and markdown stat tables, byte-identical across runs and
//!   thread counts.
//!
//! The probes themselves live where the state is: `dcn-sim::trace` hooks
//! switch egress queues and link TX counters, `dcn-transport` exposes
//! per-flow cwnd / pacing rate / PowerTCP Γ through the
//! `Endpoint::cc_samples` hook, and `dcn-scenarios::trace_engine` wires
//! them to a recorder per traced run.
//!
//! ## Example
//!
//! ```
//! use dcn_telemetry::{ChannelTrace, Recorder, TraceEntry, TraceReport};
//! use powertcp_core::Tick;
//!
//! let mut rec = Recorder::new(Tick::from_micros(10), 1024);
//! let q = rec.channel("queue", "bytes");
//! for us in [10u64, 20, 30] {
//!     rec.record_at(q, Tick::from_micros(us), us as f64 * 100.0);
//! }
//! let report = TraceReport {
//!     name: "demo".into(),
//!     description: "three samples".into(),
//!     entries: vec![TraceEntry {
//!         label: "PowerTCP-INT".into(),
//!         stats: vec![("peak_queue_bytes".into(), 3000.0)],
//!         channels: rec
//!             .channels()
//!             .iter()
//!             .map(|c| ChannelTrace::from_channel(c, 100))
//!             .collect(),
//!     }],
//! };
//! assert!(report.to_csv().contains("demo,PowerTCP-INT,queue,bytes,time_us,10,1000"));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod probe;
pub mod reduce;
pub mod ring;

pub use export::{
    csv_escape, fmt_compact, jf, jstr, push_jf, ChannelTrace, TraceEntry, TraceReport,
};
pub use probe::{Channel, ChannelId, Recorder, Sample, SharedRecorder, X_TIME_US};
pub use reduce::{decimate, max_after, window_mean};
pub use ring::RingBuffer;
