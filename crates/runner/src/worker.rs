//! The `xp worker` protocol.
//!
//! A worker is the `xp` binary re-exec'd with the single argument
//! `worker`. The parent writes one JSON *shard manifest* to the
//! worker's stdin and closes it:
//!
//! ```json
//! {"spec_toml": "<scenario TOML>", "indices": [0, 2, 4],
//!  "cache_dir": ".xp-cache", "shard": 0, "shards": 2}
//! ```
//!
//! (`cache_dir` is `null` when caching is off; `shard`/`shards`
//! identify the worker so its spans and error messages carry shard
//! context.) The worker computes its indices **sequentially in manifest
//! order** — process-level sharding is the parallelism — consulting and
//! filling the shared result cache exactly like an in-process run, and
//! emits one line per point on stdout:
//!
//! ```json
//! {"index": 2, "cached": false, "wall_ms": 12.345, "sim": {...}, "outcome": {...}}
//! ```
//!
//! (`sim` is `null` for cache hits and analytic entries — no simulator
//! ran.) Outcome payloads are the bit-exact encoding of
//! [`crate::codec`], so a parent merging worker lines by index
//! reproduces the in-process report byte for byte; `wall_ms` and `sim`
//! are observability sidecars the parent replays into its span stream,
//! never report inputs. Anything written to stderr is diagnostic only;
//! a non-zero exit tells the parent to fall back. Worker failures after
//! manifest parse are prefixed `shard K/N (points ...):` so the
//! parent's `worker error:` line pins down which shard died.

use crate::cache::ResultCache;
use crate::codec::{self, Outcome};
use crate::exec::CachingSource;
use dcn_scenarios::json::{parse_json, Json, Parser};
use dcn_scenarios::{
    sim_stats_from_json, sim_stats_json, work_items, CacheStatus, PointSource, ScenarioSpec,
};
use dcn_sim::SimStats;
use dcn_telemetry::jstr;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A parsed shard manifest.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// The scenario to run.
    pub spec: ScenarioSpec,
    /// Point/entry indices this shard owns, in execution order.
    pub indices: Vec<usize>,
    /// Result-cache directory (`None` = caching off).
    pub cache_dir: Option<PathBuf>,
    /// This shard's id (0-based).
    pub shard: usize,
    /// Total shard count.
    pub shards: usize,
}

/// Render a shard manifest.
pub fn manifest_json(
    spec_toml: &str,
    indices: &[usize],
    cache_dir: Option<&Path>,
    shard: usize,
    shards: usize,
) -> String {
    let list = indices
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let cache = match cache_dir {
        Some(dir) => jstr(&dir.display().to_string()),
        None => "null".into(),
    };
    format!(
        "{{\"spec_toml\": {}, \"indices\": [{list}], \"cache_dir\": {cache}, \
         \"shard\": {shard}, \"shards\": {shards}}}\n",
        jstr(spec_toml)
    )
}

/// Parse a shard manifest.
pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let m = parse_json(text.trim())?;
    let cache_dir = match m.field("cache_dir", Some)? {
        Json::Null => None,
        Json::Str(dir) => Some(PathBuf::from(dir)),
        _ => return Err("cache_dir must be a string or null".into()),
    };
    Ok(Manifest {
        spec: ScenarioSpec::from_toml(m.field("spec_toml", Json::as_str)?)?,
        indices: m.field("indices", |a| {
            a.as_arr()?.iter().map(Json::as_usize).collect()
        })?,
        cache_dir,
        shard: m.field("shard", Json::as_usize)?,
        shards: m.field("shards", Json::as_usize)?,
    })
}

/// One parsed worker result line.
#[derive(Clone, Debug)]
pub struct WorkerResult {
    /// Point/entry index in the spec's expansion order.
    pub index: usize,
    /// Served from the result cache?
    pub cached: bool,
    /// Wall-clock milliseconds the worker spent on this point.
    pub wall_ms: f64,
    /// Engine counters, when a simulator ran.
    pub sim: Option<SimStats>,
    /// The bit-exact outcome payload.
    pub outcome: Outcome,
}

/// Render one worker result line.
pub fn result_line(
    index: usize,
    cached: bool,
    wall_ms: f64,
    sim: Option<&SimStats>,
    outcome: &Outcome,
) -> String {
    format!(
        "{{\"index\": {index}, \"cached\": {cached}, \"wall_ms\": {wall_ms:.3}, \
         \"sim\": {}, \"outcome\": {}}}\n",
        match sim {
            Some(s) => sim_stats_json(s),
            None => "null".into(),
        },
        codec::encode(outcome)
    )
}

/// Parse one worker result line: its members in the order
/// [`result_line`] writes them, the outcome decoded in place. A `wall_ms`
/// that is negative or not finite is refused, here and inside `sim`: the
/// parent would render it into its own NDJSON as a non-number.
pub fn parse_result_line(line: &str) -> Result<WorkerResult, String> {
    let mut p = Parser::new(line.trim().as_bytes());
    p.open_obj()?;
    // A struct expression evaluates its fields in the order written. (A
    // refusal's text is `field`'s, naming the member.)
    let r = WorkerResult {
        index: p.field("index", Parser::usize)?,
        cached: p.field("cached", |p| p.value()?.as_bool().ok_or_else(String::new))?,
        wall_ms: p.field("wall_ms", |p| {
            let ms = p.value()?.as_f64();
            ms.filter(|ms| ms.is_finite() && *ms >= 0.0)
                .ok_or_else(String::new)
        })?,
        sim: match p.field("sim", Parser::value)? {
            Json::Null => None,
            j => Some(sim_stats_from_json(&j).ok_or("sim must be a stats object or null")?),
        },
        outcome: {
            p.key("outcome")?;
            codec::read(&mut p)?
        },
    };
    p.close_obj()?;
    p.finish()?;
    Ok(r)
}

/// Render a point-index list for shard-context messages (`0, 2, 4`).
pub fn fmt_indices(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The `xp worker` entry point: read one manifest from `input`, write
/// result lines to `output`. Factored over generic streams so tests can
/// drive the protocol without spawning processes. Every error after the
/// manifest parses carries `shard K/N (points ...)` context.
pub fn worker_main(input: &mut dyn Read, output: &mut dyn Write) -> Result<(), String> {
    let mut text = String::new();
    input
        .read_to_string(&mut text)
        .map_err(|e| format!("cannot read manifest: {e}"))?;
    let m = parse_manifest(&text)?;
    let ctx = format!(
        "shard {}/{} (points {})",
        m.shard,
        m.shards,
        fmt_indices(&m.indices)
    );
    run_shard(&m, output).map_err(|e| format!("{ctx}: {e}"))
}

fn run_shard(m: &Manifest, output: &mut dyn Write) -> Result<(), String> {
    m.spec.validate()?;
    let source = CachingSource::new(m.cache_dir.as_ref().map(ResultCache::new), &m.spec);
    let items = work_items(&m.spec);
    for &i in &m.indices {
        let item = items
            .get(i)
            .ok_or_else(|| format!("point index {i} out of range ({})", items.len()))?;
        #[expect(
            clippy::disallowed_methods,
            reason = "workers ship span wall-clocks to the parent — a sidecar, never a report input"
        )]
        let t0 = Instant::now();
        let (outcome, obs) = source.produce(&m.spec, item);
        let line = result_line(
            i,
            obs.cache == CacheStatus::Hit,
            t0.elapsed().as_secs_f64() * 1e3,
            obs.stats.as_ref(),
            &outcome,
        );
        output
            .write_all(line.as_bytes())
            .map_err(|e| format!("cannot write result: {e}"))?;
    }
    output.flush().map_err(|e| format!("cannot flush: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_scenarios::{builtin, run_sweep};

    #[test]
    fn manifest_round_trips() {
        let spec = builtin("fig6-small").unwrap();
        let toml = spec.to_toml();
        let m = manifest_json(&toml, &[0, 1], Some(Path::new(".xp-cache")), 1, 4);
        let parsed = parse_manifest(&m).unwrap();
        assert_eq!(parsed.spec, spec);
        assert_eq!(parsed.indices, vec![0, 1]);
        assert_eq!(parsed.cache_dir, Some(PathBuf::from(".xp-cache")));
        assert_eq!((parsed.shard, parsed.shards), (1, 4));
        let none = parse_manifest(&manifest_json(&toml, &[1], None, 0, 1)).unwrap();
        assert_eq!(none.cache_dir, None);
    }

    #[test]
    fn worker_reproduces_the_in_process_sweep() {
        let spec = builtin("fig6-small").unwrap();
        let manifest = manifest_json(&spec.to_toml(), &[1, 0], None, 0, 1);
        let mut out = Vec::new();
        worker_main(&mut manifest.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Lines come back in manifest order and merge by index.
        let r1 = parse_result_line(lines[0]).unwrap();
        let r0 = parse_result_line(lines[1]).unwrap();
        assert_eq!((r1.index, r0.index), (1, 0));
        assert!(!r1.cached, "no cache configured");
        // Computed points ship real engine counters and a wall clock.
        assert!(r1.sim.is_some_and(|s| s.events_processed > 0));
        assert!(r1.wall_ms > 0.0);
        let (Outcome::Sweep(o0), Outcome::Sweep(o1)) = (r0.outcome, r1.outcome) else {
            panic!("sweep outcomes expected");
        };
        let direct = run_sweep(&spec, 1).unwrap();
        let merged = dcn_scenarios::SweepResult::build(&spec, vec![*o0, *o1]);
        assert_eq!(merged.to_json(), direct.to_json());
    }

    #[test]
    fn bad_manifests_are_rejected() {
        assert!(worker_main(&mut "not json".as_bytes(), &mut Vec::new()).is_err());
        let spec = builtin("fig6-small").unwrap();
        let oob = manifest_json(&spec.to_toml(), &[99], None, 2, 4);
        let err = worker_main(&mut oob.as_bytes(), &mut Vec::new()).unwrap_err();
        // Post-parse failures carry shard context for the parent's
        // `worker error:` line.
        assert!(err.starts_with("shard 2/4 (points 99):"), "got: {err}");
    }
}
