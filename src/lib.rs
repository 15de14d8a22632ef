//! # powertcp
//!
//! Umbrella crate for the PowerTCP (NSDI 2022) reproduction: re-exports
//! every workspace crate and offers a [`prelude`] for examples and
//! experiments.
//!
//! The system is organized as (see `DESIGN.md` at the repository root):
//!
//! * [`core`] (`powertcp-core`) — the PowerTCP and θ-PowerTCP control laws,
//!   INT types, and the congestion-control trait;
//! * [`sim`] (`dcn-sim`) — the deterministic packet-level datacenter
//!   simulator (switches with Dynamic Thresholds, ECN, PFC, INT; fat-tree
//!   topologies);
//! * [`transport`] (`dcn-transport`) — RDMA-style windowed transport and
//!   HOMA;
//! * [`baselines`] (`cc-baselines`) — HPCC, DCQCN, TIMELY, Swift, DCTCP,
//!   NewReno, reTCP;
//! * [`workloads`] (`dcn-workloads`) — websearch sizes, Poisson load,
//!   incast;
//! * [`rdcn`] — reconfigurable-DCN substrate (circuit switch, VOQ ToRs,
//!   prebuffering);
//! * [`fluid`] (`fluid-model`) — the §2/Appendix-A fluid-model analysis;
//! * [`stats`] (`dcn-stats`) — percentiles, CDFs, slowdowns, fairness;
//! * [`telemetry`] (`dcn-telemetry`) — time-series probe recorder, ring
//!   buffers, reducers, and deterministic trace export.

#![warn(missing_docs)]

pub use cc_baselines as baselines;
pub use dcn_sim as sim;
pub use dcn_stats as stats;
pub use dcn_telemetry as telemetry;
pub use dcn_transport as transport;
pub use dcn_workloads as workloads;
pub use fluid_model as fluid;
pub use powertcp_core as core;
pub use rdcn;

/// Common imports for examples and experiments.
pub mod prelude {
    pub use cc_baselines::{
        Dcqcn, DcqcnConfig, Dctcp, DctcpConfig, Hpcc, HpccConfig, NewReno, NewRenoConfig, ReTcp,
        ReTcpConfig, Swift, SwiftConfig, Timely, TimelyConfig,
    };
    pub use dcn_sim::{
        build_dumbbell, build_fat_tree, build_star, queue_tracer, series, throughput_tracer,
        Dumbbell, DumbbellConfig, EcnConfig, Endpoint, EndpointCtx, FatTree, FatTreeConfig, FlowId,
        Network, NodeId, Packet, PacketKind, PfcConfig, PortId, Simulator, Star, SwitchConfig,
    };
    pub use dcn_stats::{ideal_fct, jain_index, slowdown, Sorted, Summary};
    pub use dcn_transport::{
        FlowSpec, HomaConfig, HomaHost, MetricsHub, SharedMetrics, TransportConfig, TransportHost,
    };
    pub use dcn_workloads::{
        incast_flows, poisson_flows, size_class, HostMap, IncastConfig, PoissonConfig, SizeCdf,
        SizeClass,
    };
    pub use powertcp_core::{
        AckInfo, Bandwidth, CcContext, CongestionControl, IntHeader, IntHopMetadata, NetSignal,
        PowerEstimator, PowerTcp, PowerTcpConfig, ThetaPowerTcp, Tick,
    };
}
