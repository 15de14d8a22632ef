//! # dcn-runner
//!
//! The execution layer above the `dcn-scenarios` experiment subsystem:
//! incremental re-runs and process-level scale-out for the ever-growing
//! sweep surface, without giving up one byte of the determinism
//! contract.
//!
//! ## The pieces
//!
//! Everything here rides the one work-item model of `dcn-scenarios`
//! (`work_items` → `PointSource::produce` → `reduce`): the cache is the
//! one non-default `PointSource`, and the process runner only decides
//! *where* an item is produced.
//!
//! * [`key`] — content-addressed cache keys ([`key::SpecKeys`], whose
//!   spec preamble a run derives once): a canonical byte encoding of
//!   `(spec fragment, work item)` salted with [`dcn_sim::ENGINE_VERSION`]
//!   and hashed with a vendored FNV-1a; validated byte-for-byte on every
//!   hit.
//! * [`codec`] — bit-exact `Outcome` serialization (`f64` as IEEE-754
//!   bit patterns): cached and worker-transported results are
//!   indistinguishable from freshly computed ones.
//! * [`cache`] — the `.xp-cache/<hash>.json` store: atomic writes,
//!   corruption-tolerant reads (anything invalid is a miss).
//! * [`exec`] — [`exec::run`]: cache-aware in-process execution (an
//!   [`exec::CachingSource`] — one load-or-compute-and-store body —
//!   plugged into `run_scenario_observed`) and multi-process sharded
//!   execution (`--procs N`: round-robin shards of `work_items`, merged
//!   by index and reduced by the same `reduce`), with clean fallback to
//!   threads.
//! * [`worker`] — the `xp worker` protocol: shard manifest on stdin,
//!   bit-exact outcome lines on stdout (each with its wall clock and
//!   engine counters), one loop over the shard's items.
//! * [`obs`] — the [`obs::RunObserver`] behind `xp run --progress` and
//!   `--log-json`, and the versioned `--meta` sidecar renderer.
//!
//! The `xp serve` daemon lives in `dcn-serve` (a pure scheduling and
//! transport layer); this crate injects the execution half through
//! [`exec::serve_run_fn`] / [`exec::serve_stat_fn`].
//!
//! The `xp` CLI binary lives here (it needs the cache and the process
//! runner); `dcn-scenarios` stays a pure library.

#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod codec;
pub mod exec;
pub mod key;
pub mod obs;
pub mod worker;

pub use cache::{CacheStat, CacheStatDetail, ResultCache, CACHE_FORMAT};
pub use codec::Outcome;
pub use exec::{run, serve_run_fn, serve_stat_fn, CachingSource, RunConfig, RunStats};
pub use key::{fnv1a64, item_key, point_key, CacheKey, SpecKeys, KEY_FORMAT};
pub use obs::{meta_json, RunObserver, META_VERSION};
pub use worker::worker_main;
