//! The discrete-event core: a time-ordered queue with deterministic
//! tie-breaking.
//!
//! ## Calendar-queue implementation
//!
//! The queue is a bucketed calendar keyed by [`Tick`]: a ring of
//! `NUM_BUCKETS` (2¹⁶) buckets, each covering `2^BUCKET_SHIFT` ps
//! (2¹³ ps ≈ 8 ns), spanning a 2²⁹ ps ≈ 537 µs horizon from the current
//! wrap's base. Simulation events cluster in the near future
//! (serialization times are tens to hundreds of nanoseconds, propagation
//! ~1 µs), so a bucket holds a handful of events: `schedule` is an O(1)
//! append, and `pop` drains the first occupied bucket (found through a
//! one-bit-per-bucket map) in sorted order — no `BinaryHeap` sift of the
//! whole pending set on the hot path. Events beyond the horizon (RTOs,
//! rotor-schedule timers, flow starts) go to a sorted overflow heap and
//! migrate into the ring when their wrap begins.
//!
//! Non-active buckets are unsorted append logs; when the drain cursor
//! reaches a bucket it is sorted once (descending, so pops take the
//! tail) and later same-bucket inserts splice in by binary search. That
//! keeps a bucket of k events at O(k log k) total drain cost even when
//! bursts cluster hundreds of events into one bucket — a per-pop
//! minimum scan would degrade to O(k²) there.
//!
//! A ring record is `{ at, ev }` (24 B): it stores no insertion seq.
//! Within one tick a bucket's records lie in seq order (ascending while
//! it is an append log, descending once sorted), and every step keeps
//! that: an append has the largest seq yet; the visit sort reverses the
//! log and then sorts it stably by descending time; a splice goes before
//! the tick's existing records; a cursor retreat reverses the sorted
//! bucket back into a log. Only the overflow heap, which keeps no
//! append order, stores the seq; it hands its records to an empty ring
//! in `(time, seq)` order.
//!
//! ## Storage follows the pending set
//!
//! A ring slot is a 2-byte index, not a buffer. The buffers live in one
//! pool: a bucket that drains retires its (empty) buffer to a LIFO spare
//! stack, and a bucket receiving its first event adopts the most recently
//! retired one. Live buffers are therefore exactly the non-empty buckets,
//! the pool has as many buffers as the most buckets ever occupied at
//! once — at most `NUM_BUCKETS`, so a `u16` indexes every one — and the
//! next `schedule` writes into memory the drain just touched — where a
//! buffer per slot would keep every slot's high-water capacity for ever
//! and walk all of it, cold, once per wrap.
//!
//! Bursts do not stay behind either: a buffer that a burst grew past
//! `SPARE_KEEP` records is freed as its bucket drains. So the storage
//! ([`EventQueue::buffered_records`]) is at most `SPARE_KEEP` records per
//! buffer plus, for each live bucket that outgrew that, under twice its
//! fullest length since it was last empty — not the sum of every burst
//! each buffer ever held.
//!
//! Ordering is **bit-compatible** with the previous binary-heap
//! implementation: events pop in `(time, insertion-seq)` order, FIFO among
//! simultaneous events, so replacing the structure changes no simulation
//! output byte. Buckets partition time disjointly and are visited in
//! increasing order; within a bucket the sort orders by time and keeps
//! each tick's seq order, and the overflow heap orders by the same
//! `(time, seq)` key, so the global pop order is exactly the old one —
//! whatever the bucket width and wherever the records are stored.

use crate::ids::{NodeId, PortId};
use crate::packet::Packet;
use powertcp_core::Tick;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Everything that can happen in the simulation.
#[derive(Debug)]
pub enum Event {
    /// A packet finished propagating and arrives at `node` on ingress
    /// `port`.
    Arrival {
        /// Receiving node.
        node: NodeId,
        /// Ingress port at the receiving node.
        port: PortId,
        /// The packet.
        pkt: Box<Packet>,
    },
    /// A node's egress port finished serializing its current packet.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// Egress port that became free.
        port: PortId,
    },
    /// A host endpoint timer fired.
    HostTimer {
        /// The host.
        node: NodeId,
        /// Opaque key chosen by the endpoint.
        key: u64,
    },
    /// A custom-switch timer fired.
    NodeTimer {
        /// The custom node.
        node: NodeId,
        /// Opaque key chosen by the switch logic.
        key: u64,
    },
    /// A registered tracer should take a sample.
    Sample {
        /// Index into the simulator's tracer table.
        tracer: u32,
    },
}

/// A ring record. Its insertion seq is its position among the bucket's
/// same-tick records (see the module docs).
struct Record {
    at: Tick,
    ev: Event,
}

/// An overflow-heap record: a heap keeps no append order, so it stores
/// the seq that breaks time ties.
struct Scheduled {
    at: Tick,
    seq: u64,
    ev: Event,
}

impl Scheduled {
    #[inline]
    fn key(&self) -> (Tick, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // (time, insertion sequence): FIFO among simultaneous events, which
        // makes every run bit-for-bit reproducible.
        self.key().cmp(&other.key())
    }
}

/// Bucket width exponent: each bucket covers `2^13` ps ≈ 8 ns — well
/// below the dominant event spacings (1000 B serialize in 320 ns at 25 G,
/// 80 ns at 100 G; propagation ≈ 1 µs), so even a 256-host fabric's
/// concurrent timelines leave a handful of events per bucket: the sort on
/// visit is a small-sort and a splice into the draining bucket is nearly
/// an append. Chosen with `NUM_BUCKETS` from a measured grid (DESIGN.md,
/// "Calendar event queue").
const BUCKET_SHIFT: u32 = 13;
/// Most records a spare bucket buffer keeps (24 B each: 384 B); a buffer
/// that a burst grew past it is freed when its bucket drains. At the
/// width above nearly every bucket visit fits: on `fattree256_websearch`
/// (ledger seed 42) 1,056,261 of 1,056,348 visits held ≤ 32 events (7
/// held 33–64, 80 held 65–256), while the 128:1 same-tick fan-in of
/// `incast_star128`'s DCQCN point made 1,231 visits of 65–400. A keep of
/// 64 let the fat-tree's 606 buffers hold 19,152 record slots for at
/// most 1,698 pending events; 8 costs ≈ 9 % more report time in
/// reallocations (DESIGN.md, "Calendar event queue").
const SPARE_KEEP: usize = 16;
/// Ring size (power of two): horizon = `NUM_BUCKETS << BUCKET_SHIFT` ps
/// = 2²⁹ ps ≈ 537 µs, which keeps per-packet events and the common
/// transport timers (pacing gaps, ~100 µs RTOs, tracer ticks, rotor
/// phases) in the ring; longer timers (ms-scale RTOs, staggered flow
/// starts, rotor weeks) take the overflow heap and migrate in when their
/// wrap starts. The ring itself costs 2 bytes per bucket (a `u16`
/// buffer index) plus a bit.
const NUM_BUCKETS: usize = 1 << 16;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;

/// Time-ordered event queue.
///
/// `pop` never returns events out of order, and events scheduled for the
/// same instant come out in insertion order.
pub struct EventQueue {
    /// The calendar ring: per bucket, the index in `bufs` of its buffer
    /// (an unsorted append log until the cursor reaches it). Meaningful
    /// only while the bucket's `occupied` bit is set — an empty bucket
    /// owns no buffer.
    buckets: Vec<u16>,
    /// The bucket buffers: as many as buckets were ever occupied at once.
    bufs: Vec<Vec<Record>>,
    /// Indices of the (emptied) buffers of drained buckets, most recently
    /// retired last.
    spare: Vec<u16>,
    /// One bit per bucket: bucket non-empty.
    occupied: [u64; NUM_BUCKETS / 64],
    /// Events currently in the ring.
    ring_len: usize,
    /// Absolute index (`t >> BUCKET_SHIFT`) of the ring's first bucket in
    /// the current wrap; always a multiple of `NUM_BUCKETS`, so the slot
    /// of absolute bucket `b` is `b & BUCKET_MASK`.
    wrap_base: u64,
    /// Absolute index of the bucket being drained.
    cursor: u64,
    /// The cursor bucket has been sorted (descending by `(at, seq)`) and
    /// is draining from the tail; cleared when it empties (so it implies
    /// a non-empty cursor bucket) or when a retreat turns it back into an
    /// append log.
    cursor_sorted: bool,
    /// Events at or beyond the wrap horizon, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    /// Lifetime count of schedules that went to the overflow heap (the
    /// ring takes the rest); `seq` doubles as the total scheduled count.
    overflow_scheduled: u64,
    now: Tick,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![0; NUM_BUCKETS],
            bufs: Vec::new(),
            spare: Vec::new(),
            occupied: [0; NUM_BUCKETS / 64],
            ring_len: 0,
            wrap_base: 0,
            cursor: 0,
            cursor_sorted: false,
            overflow: BinaryHeap::new(),
            seq: 0,
            overflow_scheduled: 0,
            now: Tick::ZERO,
        }
    }

    /// Current simulation time (time of the last popped event).
    #[inline]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Schedule `ev` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics in debug builds; in release it is clamped to
    /// `now` to avoid time travel.
    #[inline]
    pub fn schedule(&mut self, at: Tick, ev: Event) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let abs = at.0 >> BUCKET_SHIFT;
        if abs >= self.wrap_base + NUM_BUCKETS as u64 {
            self.overflow_scheduled += 1;
            self.overflow.push(Reverse(Scheduled { at, seq, ev }));
            return;
        }
        debug_assert!(abs >= self.wrap_base, "insert before the current wrap");
        let slot = (abs & BUCKET_MASK) as usize;
        let r = Record { at, ev };
        if abs == self.cursor && self.cursor_sorted {
            // Splice into the draining bucket, keeping it sorted
            // descending so the tail stays the minimum. The new record
            // has the largest seq, so it goes before every record of its
            // tick: it pops after them (FIFO).
            let b = self.bucket(slot);
            let pos = b.partition_point(|e| e.at > at);
            b.insert(pos, r);
            self.ring_len += 1;
            return;
        }
        if abs < self.cursor {
            // A peek advanced the cursor past this (empty) bucket and the
            // caller then scheduled at/near `now`: retreat. Every bucket
            // in between is still empty, so this is cheap and preserves
            // order. The sorted bucket left behind becomes an append log
            // again: reversed, its same-tick records are back in seq order
            // for the appends that follow and the sort on its next visit.
            if self.cursor_sorted {
                let left = (self.cursor & BUCKET_MASK) as usize;
                self.bucket(left).reverse();
            }
            self.cursor = abs;
            self.cursor_sorted = false;
        }
        self.push_slot(slot, r);
    }

    /// Append to ring bucket `slot`. An empty bucket first adopts the most
    /// recently retired buffer, so the write lands in memory the drain
    /// just touched.
    #[inline]
    fn push_slot(&mut self, slot: usize, r: Record) {
        let (word, bit) = (&mut self.occupied[slot >> 6], 1 << (slot & 63));
        if *word & bit == 0 {
            *word |= bit;
            // A buffer is made only when no spare is left, so there are
            // never more than buckets occupied at once: index ≤ 65,535.
            self.buckets[slot] = self.spare.pop().unwrap_or_else(|| {
                self.bufs.push(Vec::new());
                u16::try_from(self.bufs.len() - 1).expect("more buffers than buckets")
            });
        }
        self.bucket(slot).push(r);
        self.ring_len += 1;
    }

    /// The buffer of occupied bucket `slot`.
    #[inline]
    fn bucket(&mut self, slot: usize) -> &mut Vec<Record> {
        &mut self.bufs[self.buckets[slot] as usize]
    }

    /// First occupied slot at or after `start`, via the bitmap.
    fn find_occupied_from(&self, start: usize) -> Option<usize> {
        let mut word_idx = start >> 6;
        let mut word = self.occupied[word_idx] & (!0u64 << (start & 63));
        loop {
            if word != 0 {
                return Some((word_idx << 6) + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx >= self.occupied.len() {
                return None;
            }
            word = self.occupied[word_idx];
        }
    }

    /// Position the cursor on the next event's bucket (sorted, draining
    /// from the tail) and return its slot, starting a new wrap from the
    /// overflow heap when the ring drains. The queue must not be empty.
    ///
    /// Only [`EventQueue::pop_until`] may call this with an empty ring,
    /// and only for an event it is about to pop: starting a wrap moves
    /// `wrap_base` ahead of `now`, which is sound only because the pop
    /// immediately advances `now` into the new wrap. A peek must not jump
    /// (a later `schedule` at `now` would land before `wrap_base`), so
    /// [`EventQueue::peek_time`] reads the overflow minimum directly
    /// instead.
    fn prepare_next(&mut self) -> usize {
        // Fast path: still draining the cursor bucket (`cursor_sorted`
        // is cleared when it empties).
        if self.cursor_sorted {
            return (self.cursor & BUCKET_MASK) as usize;
        }
        loop {
            if self.ring_len > 0 {
                let start = (self.cursor - self.wrap_base) as usize;
                let slot = self
                    .find_occupied_from(start)
                    .expect("ring_len > 0 but no occupied bucket at/after cursor");
                self.cursor = self.wrap_base + slot as u64;
                let b = self.bucket(slot);
                if b.len() > 1 {
                    // The log holds each tick's records in seq order:
                    // reversed, then stably sorted by descending time, the
                    // tail is the `(at, seq)` minimum.
                    b.reverse();
                    b.sort_by_key(|e| Reverse(e.at));
                }
                self.cursor_sorted = true;
                return slot;
            }
            let Reverse(min) = self.overflow.peek().expect("no event pending");
            // Start the wrap containing the earliest overflow event and
            // migrate everything that now fits the horizon into the ring,
            // in `(at, seq)` order: each tick's records land in seq order.
            let min_abs = min.at.0 >> BUCKET_SHIFT;
            self.wrap_base = min_abs & !BUCKET_MASK;
            self.cursor = min_abs;
            self.cursor_sorted = false;
            let horizon = self.wrap_base + NUM_BUCKETS as u64;
            while let Some(Reverse(s)) = self.overflow.peek() {
                if s.at.0 >> BUCKET_SHIFT >= horizon {
                    break;
                }
                let Reverse(Scheduled { at, ev, .. }) = self.overflow.pop().expect("peeked");
                let slot = ((at.0 >> BUCKET_SHIFT) & BUCKET_MASK) as usize;
                self.push_slot(slot, Record { at, ev });
            }
        }
    }

    /// Pop the next event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(Tick, Event)> {
        self.pop_until(Tick::MAX)
    }

    /// Pop the next event if it fires at or before `end`, advancing the
    /// clock — a [`EventQueue::peek_time`] and a [`EventQueue::pop`] in
    /// one bucket preparation. Like the peek it never starts an overflow
    /// wrap for an event beyond `end`: the clock would not follow, and a
    /// later `schedule` at `now` would land before the new wrap.
    #[inline]
    pub fn pop_until(&mut self, end: Tick) -> Option<(Tick, Event)> {
        if self.ring_len == 0 && !matches!(self.overflow.peek(), Some(Reverse(s)) if s.at <= end) {
            return None;
        }
        let slot = self.prepare_next();
        let buf = self.buckets[slot];
        let b = &mut self.bufs[buf as usize];
        if b.last().expect("prepared bucket is empty").at > end {
            return None;
        }
        let s = b.pop().expect("prepared bucket is empty");
        self.ring_len -= 1;
        if b.is_empty() {
            // A bucket that drains hands its buffer to the spare stack:
            // live buffers are exactly the non-empty buckets. A buffer a
            // burst grew past `SPARE_KEEP` is freed first, so no spare
            // holds more than that.
            if b.capacity() > SPARE_KEEP {
                *b = Vec::new();
            }
            self.occupied[slot >> 6] &= !(1 << (slot & 63));
            self.cursor_sorted = false;
            self.spare.push(buf);
        }
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        Some((s.at, s.ev))
    }

    /// Time of the next event without popping it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<Tick> {
        if self.ring_len == 0 {
            // Don't start a new wrap for a peek (see `prepare_next`); the
            // overflow heap already knows its minimum.
            return self.overflow.peek().map(|Reverse(s)| s.at);
        }
        let slot = self.prepare_next();
        self.bucket(slot).last().map(|s| s.at)
    }

    /// Lifetime count of events scheduled (the insertion-seq counter —
    /// every schedule increments it exactly once).
    #[inline]
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Lifetime count of schedules that landed in the overflow heap
    /// rather than a calendar bucket (see [`EventQueue::scheduled`] for
    /// the total; the difference went straight to the ring).
    #[inline]
    pub fn overflow_scheduled(&self) -> u64 {
        self.overflow_scheduled
    }

    /// Event records the queue's bucket buffers have room for, in use or
    /// spare — the ring's storage footprint: at most `SPARE_KEEP` per
    /// buffer (one per bucket occupied at once, at most) plus, for a live
    /// bucket that outgrew that, under twice its fullest length since it
    /// was last empty. Neither the buckets ever touched nor past bursts
    /// count.
    pub fn buffered_records(&self) -> usize {
        self.bufs.iter().map(Vec::capacity).sum()
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(key: u64) -> Event {
        Event::HostTimer {
            node: NodeId(0),
            key,
        }
    }

    fn key_of(ev: &Event) -> u64 {
        match ev {
            Event::HostTimer { key, .. } => *key,
            _ => panic!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Tick::from_nanos(30), timer(3));
        q.schedule(Tick::from_nanos(10), timer(1));
        q.schedule(Tick::from_nanos(20), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = Tick::from_nanos(5);
        for k in 0..100 {
            q.schedule(t, timer(k));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Tick::from_nanos(10), timer(0));
        q.schedule(Tick::from_nanos(10), timer(1));
        q.schedule(Tick::from_nanos(40), timer(2));
        let mut last = Tick::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, Tick::from_nanos(40));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(Tick::from_nanos(7), timer(0));
        assert_eq!(q.peek_time(), Some(Tick::from_nanos(7)));
        assert_eq!(q.now(), Tick::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn schedule_at_now_after_peek_is_not_lost_or_reordered() {
        // A peek may advance the cursor past `now`'s (empty) bucket; a
        // subsequent schedule at `now` must still pop first.
        let mut q = EventQueue::new();
        q.schedule(Tick::from_nanos(10), timer(0));
        q.pop();
        // Far-future event in a much later bucket (still in the ring).
        q.schedule(Tick::from_micros(500), timer(1));
        assert_eq!(q.peek_time(), Some(Tick::from_micros(500)));
        // Now schedule at the current time (earlier bucket than cursor).
        q.schedule(Tick::from_nanos(10), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn inserts_into_the_draining_bucket_splice_in_order() {
        // peek sorts the cursor bucket; a same-bucket insert with an
        // earlier time must pop first, a same-tick insert must pop after
        // its earlier-seq sibling (FIFO).
        let mut q = EventQueue::new();
        q.schedule(Tick::from_nanos(100), timer(0));
        assert_eq!(q.peek_time(), Some(Tick::from_nanos(100)));
        q.schedule(Tick::from_nanos(50), timer(1)); // same bucket, earlier
        q.schedule(Tick::from_nanos(50), timer(2)); // same tick, later seq
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn same_tick_fifo_holds_across_a_cursor_retreat() {
        // A peek sorts a bucket of same-tick events; a schedule into an
        // earlier bucket retreats the cursor, and more events at the first
        // tick are appended to the bucket it left. Every event of that
        // tick must still pop in insertion order.
        let mut q = EventQueue::new();
        let t = Tick::from_micros(1);
        for k in 0..3 {
            q.schedule(t, timer(k));
        }
        assert_eq!(q.peek_time(), Some(t));
        q.schedule(Tick::from_nanos(10), timer(3)); // earlier bucket
        for k in 4..6 {
            q.schedule(t, timer(k));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![3, 0, 1, 2, 4, 5]);
    }

    #[test]
    fn a_ring_record_is_24_bytes() {
        // The seq lives only in the overflow heap's records.
        assert_eq!(std::mem::size_of::<Record>(), 24);
        assert_eq!(std::mem::size_of::<Scheduled>(), 32);
    }

    #[test]
    fn overflow_events_cross_wraps_in_order() {
        // Events spread far beyond one ring horizon (~537 µs) interleaved
        // with near-future events; FIFO among equal times must hold across
        // the ring/overflow boundary.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for k in 0..200u64 {
            // 0, 97us, 194us, ... up to ~19 ms: many distinct wraps.
            let t = Tick::from_micros((k * 97) % 19_400);
            q.schedule(t, timer(k));
            expect.push((t, k));
        }
        expect.sort_by_key(|&(t, k)| (t, k));
        let got: Vec<(Tick, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t, key_of(&e)))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn schedule_counters_track_ring_vs_overflow() {
        let mut q = EventQueue::new();
        q.schedule(Tick::from_nanos(10), timer(0)); // ring
        q.schedule(Tick::from_millis(5), timer(1)); // beyond horizon
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.overflow_scheduled(), 1);
        // Migration into the ring does not re-count.
        while q.pop().is_some() {}
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.overflow_scheduled(), 1);
    }

    #[test]
    fn pop_until_never_starts_an_overflow_wrap_beyond_end() {
        let mut q = EventQueue::new();
        let popped = |r: Option<(Tick, Event)>| r.map(|(t, e)| (t, key_of(&e)));
        let (t0, far) = (Tick::from_nanos(10), Tick::from_millis(5));
        q.schedule(t0, timer(0));
        q.schedule(far, timer(1)); // overflow heap
        q.schedule(Tick::from_micros(300), timer(2)); // in the ring
        assert_eq!(popped(q.pop_until(Tick::from_micros(1))), Some((t0, 0)));
        // The ring's head is beyond `end`: declined, the clock stays, and
        // a schedule at `now` — behind the cursor by now — still pops
        // first.
        assert_eq!(popped(q.pop_until(Tick::from_micros(1))), None);
        assert_eq!(q.now(), t0);
        q.schedule(t0, timer(3));
        assert_eq!(popped(q.pop_until(Tick::from_micros(1))), Some((t0, 3)));
        assert_eq!(
            popped(q.pop_until(Tick::from_millis(1))),
            Some((Tick::from_micros(300), 2))
        );
        // The ring is empty and the overflow minimum is beyond `end`: no
        // wrap may start (the schedule below would land before it).
        assert_eq!(popped(q.pop_until(far - Tick::from_ps(1))), None);
        assert_eq!(q.now(), Tick::from_micros(300));
        q.schedule(Tick::from_micros(300), timer(4));
        assert_eq!(
            popped(q.pop_until(far - Tick::from_ps(1))),
            Some((Tick::from_micros(300), 4))
        );
        // `end` is inclusive.
        assert_eq!(popped(q.pop_until(far)), Some((far, 1)));
        assert_eq!(popped(q.pop_until(Tick::MAX)), None);
    }

    /// Peaks of a [`churn`] run.
    struct Churn {
        q: EventQueue,
        pops: u64,
        peak_records: usize,
        peak_len: usize,
    }

    /// Keep `P` background events pending — each rescheduled when it
    /// fires, 0.3–3 µs out with a rare ms-scale timer — for `wraps` ring
    /// wraps, reading [`EventQueue::buffered_records`] after every pop.
    /// With `bursts`, every 2–8 µs a bucket 1–3 µs out also receives a
    /// same-tick burst of 128–400 events that are not rescheduled: the
    /// synchronized fan-in of a 128:1 incast.
    fn churn(name: &str, wraps: u64, bursts: bool) -> Churn {
        const P: u64 = 256;
        let mut q = EventQueue::new();
        let mut rng = proptest::TestRng::deterministic(name);
        let delay = |rng: &mut proptest::TestRng| {
            if rng.below(4096) == 0 {
                Tick::from_micros(1000 + rng.below(2000) as u64)
            } else {
                Tick::from_nanos(300 + rng.below(2700) as u64)
            }
        };
        for k in 0..P {
            q.schedule(delay(&mut rng), timer(k));
        }
        let end = wraps * ((NUM_BUCKETS as u64) << BUCKET_SHIFT);
        let mut next_burst = Tick::ZERO;
        let (mut pops, mut peak_records, mut peak_len) = (0, 0, 0);
        while q.now().as_ps() < end {
            if bursts && q.now() >= next_burst {
                let at = q.now() + Tick::from_nanos(1000 + rng.below(2000) as u64);
                for _ in 0..128 + rng.below(273) {
                    q.schedule(at, timer(P));
                }
                next_burst = q.now() + Tick::from_nanos(2000 + rng.below(6000) as u64);
            }
            peak_len = peak_len.max(q.len());
            let (_, ev) = q.pop().expect("the pending set never drains");
            if key_of(&ev) < P {
                q.schedule(q.now() + delay(&mut rng), ev);
            }
            pops += 1;
            peak_records = peak_records.max(q.buffered_records());
        }
        assert!(q.overflow_scheduled() > 0, "no ms timer drawn");
        Churn {
            q,
            pops,
            peak_records,
            peak_len,
        }
    }

    #[test]
    fn buffers_follow_the_pending_set_not_the_ring() {
        // Eight ring wraps reschedule each of 256 events over a thousand
        // times into buckets all round the ring. Buffer space must stay
        // within a small multiple of the pending set (a buffer holds at
        // least 4 records and doubles), not grow with the buckets touched.
        let run = churn("buffers_follow_the_pending_set", 8, false);
        assert_eq!(run.q.len(), 256);
        assert!(run.pops > 1000 * 256, "only {} pops", run.pops);
        assert!(
            run.peak_records <= 8 * 256,
            "{} records buffered for 256 pending events",
            run.peak_records
        );
    }

    #[test]
    fn buffers_follow_the_pending_set_through_bursts() {
        // Hundreds of bursts, each grown to 128–512 records of buffer in a
        // bucket of its own. A spare keeps at most `SPARE_KEEP` records,
        // and a live buffer past that has doubled only past its length,
        // whose sum over the live buckets is at most the pending set plus
        // the draining bucket's. So the storage is bounded by the buffers
        // occupied at once × `SPARE_KEEP` plus a few pending sets — where
        // keeping each burst's capacity would grow with the bursts seen.
        let run = churn("buffers_follow_the_pending_set_through_bursts", 2, true);
        assert!(run.pops > 100_000, "only {} pops", run.pops);
        let bound = SPARE_KEEP * run.q.bufs.len() + 4 * run.peak_len;
        assert!(
            run.peak_records <= bound,
            "{} records buffered, bound {bound} ({} buffers, {} pending at most)",
            run.peak_records,
            run.q.bufs.len(),
            run.peak_len
        );
        let kept = |&i: &u16| run.q.bufs[i as usize].capacity();
        assert!(run.q.spare.iter().map(kept).all(|c| c <= SPARE_KEEP));
    }

    #[test]
    fn every_bucket_occupied_at_once_uses_the_last_buffer_index() {
        // One event in each of the wrap's 65,536 buckets, scheduled in a
        // scattered order: the pool grows to one buffer per bucket, so
        // some slot holds index 65,535, the largest a `u16` ring slot
        // stores. Draining must still pop in `(time, seq)` order.
        let mut q = EventQueue::new();
        let mut expect = Vec::with_capacity(NUM_BUCKETS);
        for k in 0..NUM_BUCKETS as u64 {
            let b = (k * 40_503) & BUCKET_MASK;
            let t = Tick::from_ps((b << BUCKET_SHIFT) + (k % 8_191));
            q.schedule(t, timer(k));
            expect.push((t, k));
        }
        assert_eq!(q.overflow_scheduled(), 0);
        assert_eq!(q.bufs.len(), NUM_BUCKETS);
        assert!(q.buckets.contains(&u16::MAX));
        expect.sort_unstable();
        let got: Vec<(Tick, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t, key_of(&e)))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(q.spare.len(), NUM_BUCKETS);
    }

    #[test]
    fn same_tick_fifo_across_ring_and_overflow() {
        // Two events at the same far-future tick: one inserted while the
        // tick is beyond the horizon (overflow), one inserted after the
        // clock advanced enough that the tick is in the ring. Insertion
        // order must still win.
        let mut q = EventQueue::new();
        let far = Tick::from_millis(5);
        q.schedule(far, timer(0)); // goes to overflow
        q.schedule(Tick::from_micros(4900), timer(99));
        let (t, _) = q.pop().unwrap(); // advance near `far`: new wrap,
        assert_eq!(t, Tick::from_micros(4900)); // `far` migrates to the ring
        q.schedule(far, timer(1)); // now within the ring horizon
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| key_of(&e))
            .collect();
        assert_eq!(order, vec![0, 1]);
    }
}
