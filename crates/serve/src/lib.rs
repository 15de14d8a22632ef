//! # dcn-serve
//!
//! The long-running results daemon behind `xp serve`: the "heavy
//! traffic from many users" front door that turns the batch pieces —
//! content-addressed result cache, the one work-item executor, the span
//! stream, byte-stable JSON/CSV reports — into a service.
//!
//! ## The pieces
//!
//! * [`http`] — a dependency-free HTTP/1.1 layer over
//!   `std::net::TcpListener`, in the house style of the vendored JSON
//!   parser and FNV hasher: hand-rolled request parsing, explicit
//!   response writing, one request per connection (`Connection: close`).
//! * [`job`] — the job subsystem: a [`Job`] per submitted scenario with
//!   `queued → running → done | failed` states and the per-job NDJSON
//!   event log (span/summary records in the exact grammar of
//!   `xp run --log-json`).
//! * [`server`] — the [`Server`]: accept loop, request routing, a
//!   bounded channel feeding the worker pool, and graceful shutdown
//!   (stop accepting, drain every queued and in-flight job, then
//!   return).
//! * [`client`] — a minimal HTTP client over `std::net::TcpStream`, used
//!   by the integration tests and handy for scripting against the
//!   daemon without curl.
//!
//! ## Execution is injected
//!
//! The daemon does not know how to run a scenario; it is handed a
//! [`RunFn`] at construction. `dcn-runner` provides the production
//! implementation (`run_scenario_observed` over a `CachingSource`
//! against the shared `.xp-cache/` — the same executor `xp run` uses),
//! so concurrent users dedup work through the content-addressed cache
//! while this crate stays a pure scheduling and transport layer: the
//! bounded channel schedules *jobs*; the points inside a job belong to
//! the executor. The report bytes a job serves are the
//! `ScenarioOutput::to_json` / `to_csv` renderings — **byte-identical to
//! `xp run` output by construction**, and pinned by integration tests.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod job;
pub mod server;

use dcn_scenarios::{Observer, ScenarioOutput, ScenarioSpec};
use std::sync::{Arc, LockResult};

/// How the daemon executes one scenario: the injected run function.
/// Implementations must report one span per point through the observer
/// (the job records them as its NDJSON event stream) and return the
/// scenario output whose JSON/CSV renderings become the job's reports.
pub type RunFn =
    Arc<dyn Fn(&ScenarioSpec, &dyn Observer) -> Result<ScenarioOutput, String> + Send + Sync>;

/// Renders a cache statistics NDJSON record for the `GET /cache`
/// endpoint (`dcn-runner` wires `xp cache stat --json`'s renderer here).
pub type StatFn = Arc<dyn Fn() -> String + Send + Sync>;

pub use job::{Job, JobSnapshot, JobState};
pub use server::{ServeConfig, Server};

/// Every lock this crate takes goes through here. None is held across
/// code that can panic: a job's lock guards counters and pushed strings
/// (the run and its report rendering execute outside it), the registry
/// a find, a push / pop or a round of snapshots, and the channel ends a
/// send, a `take` or a receive. So no lock is ever poisoned.
fn unpoisoned<T>(lock: LockResult<T>) -> T {
    lock.expect("no dcn-serve lock is held across code that can panic")
}
