//! Run counters for one simulation: what the engine did, how fast, and
//! where packets went.
//!
//! The engine keeps only plain integer counters on its hot path (one add
//! per event / PFC frame); everything else in [`SimStats`] is gathered
//! lazily by [`Simulator::stats`](crate::engine::Simulator::stats) from
//! counters the switches, pool, and queue already maintain — observation
//! is zero-cost while nobody asks.
//!
//! **Instrumentation never touches simulation behavior.** `SimStats`
//! carries wall-clock time and therefore differs between identical runs;
//! it must never be folded into report payloads, cache entries, or
//! anything else that is byte-pinned.

/// Counters snapshotted from a [`Simulator`](crate::engine::Simulator).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Events dispatched by the engine (arrivals, tx-done, timers,
    /// tracer samples).
    pub events_processed: u64,
    /// Events scheduled into the queue (ring and overflow combined).
    pub events_scheduled: u64,
    /// Events whose target time was beyond the calendar horizon and went
    /// to the overflow heap instead of a ring bucket.
    pub overflow_scheduled: u64,
    /// Always 0: the engine dispatches one event at a time. Same-tick
    /// batched node visits were measured slower than that and deleted;
    /// the field stays because recorded stats and their readers name it.
    pub batched_visits: u64,
    /// Always 0, like [`SimStats::batched_visits`].
    pub batched_events: u64,
    /// Packets delivered to host endpoints.
    pub delivered: u64,
    /// Packets forwarded by classic switches.
    pub forwarded: u64,
    /// Switch drops: no route for the destination.
    pub drops_no_route: u64,
    /// Switch drops: shared-buffer admission (Dynamic Thresholds) refusal.
    pub drops_buffer: u64,
    /// Custom-node drops ([`CustomCtx::drop_packet`](crate::node::CustomCtx)).
    pub drops_custom: u64,
    /// PFC pause/resume frames emitted by switches (PFC is lossless —
    /// these are control frames sent, not drops).
    pub pfc_frames: u64,
    /// Packet boxes heap-allocated because the recycling pool was empty.
    pub pool_fresh: u64,
    /// Packet boxes served from the recycling pool's free list.
    pub pool_reused: u64,
    /// Wall-clock milliseconds from `Simulator::new` to the snapshot.
    pub wall_ms: f64,
}

impl SimStats {
    /// Drops across all reasons.
    pub fn drops_total(&self) -> u64 {
        self.drops_no_route + self.drops_buffer + self.drops_custom
    }

    /// Events dispatched per wall-clock second (0 when no time elapsed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events_processed as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    /// Fold `other` into `self` for run-wide rollups: counters add,
    /// wall-clock adds (total compute time across points, not elapsed
    /// time — points may run concurrently).
    pub fn merge(&mut self, other: &SimStats) {
        self.events_processed += other.events_processed;
        self.events_scheduled += other.events_scheduled;
        self.overflow_scheduled += other.overflow_scheduled;
        self.batched_visits += other.batched_visits;
        self.batched_events += other.batched_events;
        self.delivered += other.delivered;
        self.forwarded += other.forwarded;
        self.drops_no_route += other.drops_no_route;
        self.drops_buffer += other.drops_buffer;
        self.drops_custom += other.drops_custom;
        self.pfc_frames += other.pfc_frames;
        self.pool_fresh += other.pool_fresh;
        self.pool_reused += other.pool_reused;
        self.wall_ms += other.wall_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_figures() {
        let s = SimStats {
            events_processed: 5000,
            drops_no_route: 1,
            drops_buffer: 2,
            drops_custom: 3,
            wall_ms: 500.0,
            ..SimStats::default()
        };
        assert_eq!(s.drops_total(), 6);
        assert!((s.events_per_sec() - 10_000.0).abs() < 1e-9);
        assert_eq!(SimStats::default().events_per_sec(), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_wall() {
        let mut a = SimStats {
            events_processed: 10,
            wall_ms: 1.5,
            ..SimStats::default()
        };
        let b = SimStats {
            events_processed: 32,
            pool_reused: 7,
            batched_visits: 3,
            batched_events: 5,
            wall_ms: 2.5,
            ..SimStats::default()
        };
        a.merge(&b);
        assert_eq!(a.events_processed, 42);
        assert_eq!(a.pool_reused, 7);
        assert_eq!((a.batched_visits, a.batched_events), (3, 5));
        assert!((a.wall_ms - 4.0).abs() < 1e-12);
    }
}
