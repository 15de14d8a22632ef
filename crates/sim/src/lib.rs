//! # dcn-sim
//!
//! Deterministic packet-level datacenter network simulator — the substrate
//! on which the PowerTCP reproduction runs its evaluation (the paper uses
//! ns-3; this crate is our from-scratch equivalent at the same abstraction
//! level).
//!
//! ## What is modelled
//!
//! * **Store-and-forward switching** with exact serialization and
//!   propagation delays (integer picosecond clock).
//! * **Output-queued shared-buffer switches** with the Dynamic Thresholds
//!   algorithm of Choudhury & Hahne — the buffer management the paper
//!   enables on every switch (§4.1) — eight strict-priority classes per
//!   port (used by HOMA), RED/ECN marking (used by DCQCN), and
//!   optional PFC for lossless operation.
//! * **HPCC-style INT**: every egress appends `(qlen, ts, txBytes, b)` at
//!   transmission-scheduling time; receivers echo the stack on ACKs.
//! * **Hosts** with a serializing NIC and pluggable endpoint logic (the
//!   transport layer lives in `dcn-transport`).
//! * **Custom switches** behind a small trait, used by the `rdcn` crate
//!   for VOQ ToRs and the optical circuit switch.
//! * **Topology builders** for the paper's 256-host oversubscribed
//!   fat-tree, dumbbells, and incast stars; ECMP routing with per-flow
//!   affinity.
//!
//! ## Determinism
//!
//! Single-threaded, integer time, FIFO tie-breaking among simultaneous
//! events, and per-switch seeded PRNGs for ECN marking: identical inputs
//! replay bit-for-bit. This is a design requirement — every experiment in
//! the benchmark harness must be reproducible.

#![warn(missing_docs)]

/// Behavioral version of the simulation stack, salted into
/// content-addressed result-cache keys (`dcn-runner`) so cached point
/// outcomes are invalidated when simulation behavior changes.
///
/// Bump this on **any** change that can move an output byte of a
/// deterministic run — event ordering, switch/transport/CC semantics,
/// workload generation, float reduction order — anywhere in the sim
/// stack (`dcn-sim`, `dcn-transport`, `cc-baselines`, `dcn-workloads`,
/// `rdcn`, `dcn-scenarios` engines). Pure-performance refactors that
/// are byte-identical (packet pooling, queue swaps, scratch-buffer
/// reuse) must NOT bump it: the byte-pinned golden tests decide which
/// kind a change is.
pub const ENGINE_VERSION: u32 = 1;

pub mod buffer;
pub mod ecn;
pub mod engine;
pub mod event;
pub mod flow_table;
pub mod ids;
pub mod link;
pub mod node;
pub mod packet;
pub mod pool;
pub mod stats;
pub mod switch;
pub mod topology;
pub mod trace;

pub use buffer::SharedBuffer;
pub use ecn::EcnConfig;
pub use engine::{Network, NetworkBuilder, Simulator};
pub use event::{Event, EventQueue};
pub use flow_table::FlowTable;
pub use ids::{mix64, FlowId, NodeId, PortId};
pub use link::{Egress, Link};
pub use node::{
    CcFlowSample, CustomCtx, CustomNode, CustomSwitch, Endpoint, EndpointCtx, Host, Nic, Node,
    NullEndpoint,
};
pub use packet::{
    AckPayload, GrantPayload, Packet, PacketKind, CTRL_PKT_BYTES, DEFAULT_MTU, NUM_PRIORITIES,
};
pub use pool::{PacketPool, PoolStats};
pub use stats::SimStats;
pub use switch::{PfcConfig, Switch, SwitchConfig, SwitchPort};
pub use topology::{
    build_dumbbell, build_fat_tree, build_star, star_base_rtt, star_host_id, AppFactory, Dumbbell,
    DumbbellConfig, FatTree, FatTreeConfig, Star,
};
pub use trace::{
    buffer_probe, buffer_tracer, cc_probe, host_throughput_probe, host_throughput_tracer,
    queue_probe, queue_tracer, rate_probe, series, throughput_probe, Series,
};
