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
    /// Events dispatched per wall-clock second (0 when no time elapsed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events_processed as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_figures() {
        let s = SimStats {
            events_processed: 5000,
            wall_ms: 500.0,
            ..SimStats::default()
        };
        assert!((s.events_per_sec() - 10_000.0).abs() < 1e-9);
        assert_eq!(SimStats::default().events_per_sec(), 0.0);
    }
}
