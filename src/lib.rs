//! # powertcp
//!
//! The root package of the PowerTCP (NSDI 2022) reproduction: it owns the
//! examples (`examples/`) and the cross-crate tests (`tests/`), which
//! import each workspace crate by its own name. The library target holds
//! nothing but this map.
//!
//! The system is organized as (see `DESIGN.md` at the repository root):
//!
//! * `powertcp-core` — the PowerTCP and θ-PowerTCP control laws, INT
//!   types, and the congestion-control trait;
//! * `dcn-sim` — the deterministic packet-level datacenter simulator
//!   (switches with Dynamic Thresholds, ECN, PFC, INT; fat-tree
//!   topologies);
//! * `dcn-transport` — RDMA-style windowed transport and HOMA;
//! * `cc-baselines` — HPCC, DCQCN, TIMELY, reTCP (over NewReno);
//! * `dcn-workloads` — websearch sizes, Poisson load, incast;
//! * `rdcn` — reconfigurable-DCN substrate (circuit switch, VOQ ToRs,
//!   prebuffering);
//! * `fluid-model` — the §2/Appendix-A fluid-model analysis;
//! * `dcn-stats` — percentiles, CDFs, slowdowns, fairness;
//! * `dcn-telemetry` — time-series probe recorder, ring buffers, reducers,
//!   and deterministic trace export.
