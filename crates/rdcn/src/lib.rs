//! # rdcn
//!
//! The reconfigurable-datacenter substrate for the paper's §5 case study:
//! a rotor-scheduled optical circuit switch (225 µs days, 20 µs nights, 24
//! matchings over 25 ToRs), VOQ ToR switches with circuit-exclusive
//! forwarding and reTCP-style prebuffering, a parallel 25 G packet
//! network, and a circuit-state signalling wrapper for endpoints.

#![warn(missing_docs)]

pub mod circuit;
pub mod schedule;
pub mod signal;
pub mod topology;
pub mod voq_tor;

pub use circuit::CircuitSwitch;
pub use schedule::{RotorSchedule, SchedulePoint};
pub use signal::CircuitAwareHost;
pub use topology::{build_rack_pair, build_rdcn, Rdcn, RdcnConfig};
pub use voq_tor::{LatencySink, VoqGauge, VoqTor, VoqTorConfig};

#[cfg(test)]
mod bed;
