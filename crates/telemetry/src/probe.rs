//! The probe recorder: named sample channels on a shared tick grid.
//!
//! A [`Recorder`] is the collection point of one traced run. Experiment
//! harnesses create one per simulation, open channels ("queue",
//! "throughput", "cwnd", "power", …), and register simulator tracers that
//! [`record_at`](Recorder::record_at) into them on the recorder's tick grid.
//! Channels are ring-buffered ([`crate::ring::RingBuffer`]) so arbitrarily
//! long runs collect in bounded memory, and everything is ordinary
//! single-threaded data — determinism is inherited from the simulator, and
//! byte-stable export is the job of [`crate::export`].

use crate::ring::RingBuffer;
use powertcp_core::Tick;
use std::cell::RefCell;
use std::rc::Rc;

/// The x-axis of simulator probes: microseconds of simulated time.
pub const X_TIME_US: &str = "time_us";

/// One sampled point: an x coordinate (time in µs, for a recorder
/// channel) and a value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// X coordinate (unit named by the exported channel's `x_unit`).
    pub x: f64,
    /// Sampled value (unit named by the channel's `unit`).
    pub y: f64,
}

/// Handle to a channel of a [`Recorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelId(usize);

/// One named sample stream over simulated time ([`X_TIME_US`]).
#[derive(Clone, Debug)]
pub struct Channel {
    /// Channel name ("queue", "throughput", "cwnd", …).
    pub name: String,
    /// Value unit ("bytes", "Gbps", …).
    pub unit: String,
    /// The ring-buffered samples.
    pub ring: RingBuffer<Sample>,
}

/// Collection point for one traced run: a set of channels sharing a
/// sampling tick and a per-channel ring capacity.
#[derive(Clone, Debug)]
pub struct Recorder {
    tick: Tick,
    capacity: usize,
    channels: Vec<Channel>,
}

impl Recorder {
    /// New recorder sampling every `tick` with `capacity` samples of ring
    /// per channel.
    pub fn new(tick: Tick, capacity: usize) -> Self {
        assert!(!tick.is_zero(), "recorder tick must be positive");
        Recorder {
            tick,
            capacity,
            channels: Vec::new(),
        }
    }

    /// New shared (single-threaded `Rc<RefCell<…>>`) recorder — the form
    /// simulator tracer closures capture.
    pub fn new_shared(tick: Tick, capacity: usize) -> SharedRecorder {
        Rc::new(RefCell::new(Recorder::new(tick, capacity)))
    }

    /// The sampling tick grid.
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// Open a time-indexed channel; returns its handle.
    pub fn channel(&mut self, name: impl Into<String>, unit: impl Into<String>) -> ChannelId {
        let id = ChannelId(self.channels.len());
        self.channels.push(Channel {
            name: name.into(),
            unit: unit.into(),
            ring: RingBuffer::new(self.capacity),
        });
        id
    }

    /// Record one sample at a simulation time (x = µs).
    pub fn record_at(&mut self, ch: ChannelId, t: Tick, y: f64) {
        let x = t.as_micros_f64();
        self.channels[ch.0].ring.push(Sample { x, y });
    }

    /// Read a channel.
    pub fn get(&self, ch: ChannelId) -> &Channel {
        &self.channels[ch.0]
    }

    /// All channels, in creation order.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Values of a channel (oldest → newest), dropping x coordinates.
    pub fn values(&self, ch: ChannelId) -> Vec<f64> {
        self.get(ch).ring.iter().map(|s| s.y).collect()
    }
}

/// Shared handle for tracer closures (the simulator is single-threaded).
pub type SharedRecorder = Rc<RefCell<Recorder>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_record_independently() {
        let mut r = Recorder::new(Tick::from_micros(10), 100);
        let q = r.channel("queue", "bytes");
        let t = r.channel("cwnd", "bytes");
        r.record_at(q, Tick::from_micros(10), 500.0);
        r.record_at(q, Tick::from_micros(20), 700.0);
        r.record_at(t, Tick::from_micros(2), 3.0);
        assert_eq!(r.get(q).ring.len(), 2);
        assert_eq!(r.values(q), vec![500.0, 700.0]);
        assert_eq!(r.get(q).ring.to_vec()[0].x, 10.0);
        assert_eq!(r.values(t), vec![3.0]);
        assert_eq!(r.get(t).ring.to_vec()[0].x, 2.0);
        assert_eq!(r.channels().len(), 2);
    }

    #[test]
    fn ring_capacity_bounds_each_channel() {
        let mut r = Recorder::new(Tick::from_micros(1), 4);
        let c = r.channel("c", "u");
        for i in 0..10 {
            r.record_at(c, Tick::from_micros(i), i as f64);
        }
        assert_eq!(r.get(c).ring.len(), 4);
        assert_eq!(r.get(c).ring.evicted(), 6);
        assert_eq!(r.values(c), vec![6.0, 7.0, 8.0, 9.0]);
    }
}
