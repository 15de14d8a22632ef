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
//!   `queued → running → done | failed` states, a bounded FIFO
//!   [`JobQueue`] feeding the worker pool, and the per-job NDJSON event
//!   log (span/summary records in the exact grammar of
//!   `xp run --log-json`).
//! * [`server`] — the [`Server`]: accept loop, request routing, worker
//!   pool, and graceful shutdown (stop accepting, drain every queued and
//!   in-flight job, then return).
//! * [`html`] — the live dashboards: `GET /` (job table) and
//!   `GET /jobs/<id>/html` (per-job report tables rendered from the
//!   byte-stable CSV export).
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
//! [`JobQueue`] schedules *jobs*; the points inside a job belong to the
//! executor. The report bytes a job serves are the
//! `ScenarioOutput::to_json` / `to_csv` renderings — **byte-identical to
//! `xp run` output by construction**, and pinned by integration tests.

#![warn(missing_docs)]

pub mod client;
pub mod html;
pub mod http;
pub mod job;
pub mod server;

use dcn_scenarios::{Observer, ScenarioOutput, ScenarioSpec};
use std::sync::Arc;

/// How the daemon executes one scenario: the injected run function.
/// Implementations must report one span per point through the observer
/// (the job records them as its NDJSON event stream) and return the
/// scenario output whose JSON/CSV renderings become the job's reports.
pub type RunFn =
    Arc<dyn Fn(&ScenarioSpec, &dyn Observer) -> Result<ScenarioOutput, String> + Send + Sync>;

/// Renders a cache statistics NDJSON record for the dashboard and the
/// `GET /cache` endpoint (`dcn-runner` wires `xp cache stat --json`'s
/// renderer here).
pub type StatFn = Arc<dyn Fn() -> String + Send + Sync>;

pub use job::{Job, JobQueue, JobSnapshot, JobState};
pub use server::{ServeConfig, Server};
