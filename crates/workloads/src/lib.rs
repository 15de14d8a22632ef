//! # dcn-workloads
//!
//! Traffic generation for the PowerTCP evaluation (§4.1): the web-search
//! flow-size distribution, load-targeted Poisson flow arrivals over a host
//! map, and the synthetic distributed-file-request incast pattern, plus
//! the paper's flow-size classification buckets.

#![warn(missing_docs)]

pub mod dist;
pub mod gen;

pub use dist::{CdfPoint, SizeCdf};
pub use gen::{
    incast_flows, poisson_flows, size_class, HostMap, Hosts, IncastConfig, PoissonConfig, SizeClass,
};
