//! The per-workload half of the per-layer ledger: what the traced
//! repetitions' spans say about where an operation's time went, and the
//! engine counters the per-point spans carried. Everything here is
//! derived from the span set alone.

use crate::span::{LayerTotal, Tracer};
use crate::Metric;
use dcn_scenarios::CacheStatus;

/// Span names, one per layer boundary the harness can see from outside.
/// `point.*` spans are the product's own per-point spans, reported by
/// duration; every other is timed around a public call.
pub const LAYERS: [&str; 10] = [
    "harness.op",
    "scenarios.from_toml",
    "runner.run",
    "point.compute",
    "point.hit",
    "scenarios.to_json",
    "scenarios.to_csv",
    "serve.post",
    "serve.events",
    "serve.get",
];

/// `a / b`, 0 when `b` is 0 (a layer the workload never entered).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Ledger metrics of a traced span set covering `ops` operations.
pub fn metrics(t: &Tracer, ops: u64) -> Vec<Metric> {
    let totals = t.layer_totals();
    let layer = |name: &str| totals.get(name).copied().unwrap_or(LayerTotal::default());
    let per_op = |x: f64| x / ops.max(1) as f64;
    let mut out: Vec<Metric> = LAYERS
        .iter()
        .map(|name| {
            Metric::new(
                &format!("ledger.{name}.self_ms"),
                "ms",
                per_op(layer(name).self_ns as f64 / 1e6),
            )
        })
        .collect();

    let (mut hits, mut misses, mut points) = (0u64, 0u64, 0u64);
    let mut sim = dcn_sim::SimStats::default();
    for s in t.spans() {
        match s.cache {
            Some(CacheStatus::Hit) => hits += 1,
            Some(CacheStatus::Miss) => misses += 1,
            _ => {}
        }
        points += u64::from(s.cache.is_some());
        if let Some(st) = &s.sim {
            sim.events_processed += st.events_processed;
            sim.events_scheduled += st.events_scheduled;
            sim.overflow_scheduled += st.overflow_scheduled;
            sim.batched_events += st.batched_events;
            sim.drops_buffer += st.drops_buffer;
            sim.pfc_frames += st.pfc_frames;
            sim.pool_fresh += st.pool_fresh;
            sim.pool_reused += st.pool_reused;
        }
    }
    let events = sim.events_processed as f64;
    let compute_s = layer("point.compute").total_ns as f64 / 1e9;
    let run = layer("runner.run");
    out.extend([
        Metric::new("ledger.points", "count", per_op(points as f64)),
        Metric::new("sim.events", "count", per_op(events)),
        Metric::new("sim.events_per_s", "1/s", ratio(events, compute_s)),
        Metric::new("sim.us_per_event", "us", ratio(compute_s * 1e6, events)),
        Metric::new(
            "sim.overflow_share",
            "ratio",
            ratio(sim.overflow_scheduled as f64, sim.events_scheduled as f64),
        ),
        Metric::new(
            "sim.batched_share",
            "ratio",
            ratio(sim.batched_events as f64, events),
        ),
        Metric::new(
            "sim.pool_reuse_ratio",
            "ratio",
            ratio(
                sim.pool_reused as f64,
                (sim.pool_fresh + sim.pool_reused) as f64,
            ),
        ),
        Metric::new("sim.drops_buffer", "count", per_op(sim.drops_buffer as f64)),
        Metric::new("sim.pfc_frames", "count", per_op(sim.pfc_frames as f64)),
        Metric::new(
            "runner.cache.hit_ratio",
            "ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        Metric::new(
            "runner.exec.unattributed_pct",
            "%",
            100.0 * ratio(run.self_ns as f64, run.total_ns as f64),
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_trace_yields_every_metric_at_zero() {
        let m = metrics(&Tracer::new(), 0);
        assert_eq!(m.len(), LAYERS.len() + 11);
        assert!(m.iter().all(|m| m.value == 0.0));
    }

    #[test]
    fn counters_and_self_times_are_per_operation() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let stats = dcn_sim::SimStats {
            events_processed: 1000,
            events_scheduled: 1200,
            overflow_scheduled: 300,
            pool_fresh: 1,
            pool_reused: 3,
            ..dcn_sim::SimStats::default()
        };
        for _ in 0..2 {
            t.next_op();
            t.span("harness.op", |t| {
                t.span("runner.run", |t| {
                    t.reported("point.compute", 0.5, CacheStatus::Miss, Some(stats));
                    t.reported("point.hit", 0.1, CacheStatus::Hit, None);
                });
            });
        }
        let m = metrics(&t, 2);
        let get = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("ledger.points"), 2.0);
        assert_eq!(get("sim.events"), 1000.0);
        assert_eq!(get("sim.overflow_share"), 0.25);
        assert_eq!(get("sim.pool_reuse_ratio"), 0.75);
        assert_eq!(get("runner.cache.hit_ratio"), 0.5);
        assert_eq!(get("ledger.point.compute.self_ms"), 0.5);
        assert_eq!(get("sim.events_per_s"), 2_000_000.0);
    }
}
