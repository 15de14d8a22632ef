//! Property-based tests of the simulator substrate: packet conservation,
//! buffer accounting, deterministic replay under randomized traffic, the
//! calendar event queue's order contract against a binary-heap model, and
//! packet-pool hygiene.

use dcn_sim::{
    build_star, Endpoint, EndpointCtx, Event, EventQueue, FlowId, NodeId, Packet, PacketPool,
    PfcConfig, Simulator, SwitchConfig,
};
use powertcp_core::{Bandwidth, Tick};
use proptest::prelude::*;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Sends a scripted schedule of (start_offset_ns, dst_index, packets).
struct Scripted {
    bursts: Vec<(u64, u32, u32)>,
    sent: Rc<RefCell<u64>>,
}

impl Endpoint for Scripted {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        for (i, &(off, _, _)) in self.bursts.iter().enumerate() {
            ctx.set_timer(Tick::from_nanos(off), i as u64);
        }
    }
    fn on_packet(&mut self, _pkt: Box<Packet>, _ctx: &mut EndpointCtx<'_>) {}
    fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
        let (_, dst, count) = self.bursts[key as usize];
        for s in 0..count {
            ctx.send(Packet::data(
                FlowId(key << 16 | s as u64),
                ctx.node,
                NodeId(dst),
                s as u64 * 1000,
                1000,
                s + 1 == count,
                ctx.now,
            ));
            *self.sent.borrow_mut() += 1;
        }
    }
}

fn run_star(
    n_hosts: usize,
    bursts_per_host: Vec<Vec<(u64, u32, u32)>>,
    switch_cfg: SwitchConfig,
) -> (u64, u64, u64, Vec<u64>) {
    let sent = Rc::new(RefCell::new(0u64));
    let received = Rc::new(RefCell::new(vec![0u64; n_hosts + 1]));
    let s2 = sent.clone();
    let r2 = received.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        struct Both {
            inner: Scripted,
            rx: Rc<RefCell<Vec<u64>>>,
            me: usize,
        }
        impl Endpoint for Both {
            fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
                self.inner.on_start(ctx);
            }
            fn on_packet(&mut self, pkt: Box<Packet>, _ctx: &mut EndpointCtx<'_>) {
                let _ = pkt;
                self.rx.borrow_mut()[self.me] += 1;
            }
            fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
                self.inner.on_timer(key, ctx);
            }
        }
        Box::new(Both {
            inner: Scripted {
                bursts: bursts_per_host[idx].clone(),
                sent: s2.clone(),
            },
            rx: r2.clone(),
            me: idx,
        })
    };
    let star = build_star(
        n_hosts,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        switch_cfg,
        &mut mk,
    );
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    let drops = sim.net.switch(sw).total_drops();
    let total_rx: u64 = received.borrow().iter().sum();
    let sent = *sent.borrow();
    let rx_vec = received.borrow().clone();
    (sent, total_rx, drops, rx_vec)
}

/// Strategy: 3-6 hosts, each with 0-4 bursts of 1-80 packets to a random
/// other host within 200 us.
#[expect(
    clippy::type_complexity,
    reason = "the strategy's value type is the test's input shape"
)]
fn bursts_strategy() -> impl Strategy<Value = (usize, Vec<Vec<(u64, u32, u32)>>)> {
    (3usize..=6).prop_flat_map(|n| {
        let host_bursts = prop::collection::vec((0u64..200_000, 1u32..n as u32, 1u32..80), 0..4);
        (
            Just(n),
            prop::collection::vec(host_bursts, n..=n).prop_map(move |mut v| {
                // dst indices must address *other* hosts: host i's node id
                // is 1 + idx; remap dst "slot" to a node id != self.
                for (i, bursts) in v.iter_mut().enumerate() {
                    for b in bursts.iter_mut() {
                        let mut slot = b.1 as usize % n;
                        if slot == i {
                            slot = (slot + 1) % n;
                        }
                        b.1 = (1 + slot) as u32;
                    }
                }
                v
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Conservation: every packet sent is delivered or counted as dropped.
    #[test]
    fn packets_conserved_lossy((n, bursts) in bursts_strategy()) {
        let cfg = SwitchConfig {
            buffer_bytes: 40_000, // small enough to force drops sometimes
            ..SwitchConfig::default()
        };
        let (sent, rx, drops, _) = run_star(n, bursts, cfg);
        prop_assert_eq!(sent, rx + drops, "sent {} != rx {} + drops {}", sent, rx, drops);
    }

    /// With PFC, the same traffic is lossless.
    #[test]
    fn packets_conserved_lossless((n, bursts) in bursts_strategy()) {
        let cfg = SwitchConfig {
            buffer_bytes: 2_000_000,
            pfc: Some(PfcConfig { xoff_bytes: 30_000, xon_bytes: 15_000 }),
            ..SwitchConfig::default()
        };
        let (sent, rx, drops, _) = run_star(n, bursts, cfg);
        prop_assert_eq!(drops, 0, "PFC fabric must not drop");
        prop_assert_eq!(sent, rx);
    }

    /// Bit-identical replay for arbitrary schedules.
    #[test]
    fn replay_is_deterministic((n, bursts) in bursts_strategy()) {
        let cfg = SwitchConfig::default();
        let a = run_star(n, bursts.clone(), cfg);
        let b = run_star(n, bursts, cfg);
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Calendar event queue vs the old binary-heap semantics
// ---------------------------------------------------------------------

/// The previous event core, reduced to its ordering contract: a binary
/// heap popping `(time, insertion-seq)` minimums. The calendar queue must
/// be observationally identical against arbitrary schedule/pop
/// interleavings — that is what makes the swap byte-invisible.
///
/// The model also shadows the one piece of calendar state that decides
/// *where* an event is stored — the base of the current ring wrap — so
/// the tests below can tell, from outside the queue, which storage paths
/// a case drove. That shadow is itself checked: the queue's
/// `overflow_scheduled` count must equal the model's.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(Tick, u64)>>,
    keys: std::collections::BTreeMap<u64, u64>,
    seq: u64,
    now: Tick,
    /// Start (ps) of the ring wrap: pending events before
    /// `wrap_base + HORIZON_PS` are in the ring, the rest in the heap.
    wrap_base: u64,
    overflow_scheduled: u64,
    /// Block (see [`block`]) the last peek or declined pop left the
    /// cursor on, when that is past `now`'s block.
    cursor_ahead: Option<u64>,
    /// Something has been popped, so `now`'s bucket has held an event.
    has_popped: bool,
    /// The instant whose records a retreat left behind in a sorted
    /// bucket, while at least two of them are pending there.
    tied_behind: Option<Tick>,
    /// Per pending instant: events pending there, and the most pending
    /// there at once since the instant last drained.
    at_count: std::collections::BTreeMap<Tick, (usize, usize)>,
    /// The most events pending at once at `now`, if the last pop drained
    /// that instant (else 0).
    drained_peak: usize,
    seen: Coverage,
}

/// The ring's horizon: 2²⁹ ps whatever the bucket width.
const HORIZON_PS: u64 = 1 << 29;

/// A drained bucket whose buffer grew past this many records frees it
/// before the buffer rejoins the spare stack. That holds at the queue's
/// `SPARE_KEEP` (16) and at any larger count; 64 asks the generator for
/// the longer bursts.
const SPARE_KEEP: usize = 64;

/// Which calendar paths a case reached, judged conservatively: each
/// predicate holds for every power-of-two bucket width up to 2¹⁸ ps (the
/// widest this queue has used), so narrowing the buckets cannot turn a
/// counted case into an uncounted one.
#[derive(Default)]
struct Coverage {
    /// Pops that started a ring wrap and migrated at least two events
    /// from the overflow heap into (empty, hence buffer-less) buckets.
    migrations: u32,
    /// A bucket drained by a pop and refilled by a schedule at the same
    /// instant: it adopts a buffer the drain retired.
    refills: u32,
    /// A schedule that pulled the cursor back, after a peek or a declined
    /// `pop_until` advanced it, onto an empty (buffer-less) bucket.
    retreats: u32,
    /// A retreat off a sorted bucket holding two or more records of one
    /// instant, then a schedule at that instant while they are pending:
    /// the bucket must be turned back into a seq-ordered log, or the
    /// instant's records pop out of insertion order.
    tie_retreats: u32,
    /// A refill of a bucket that held more than [`SPARE_KEEP`] events at
    /// once: the drain freed the buffer's storage, and the refill adopts
    /// the buffer and grows it anew. Events pending at one instant share
    /// a bucket at every width, so they count towards its length.
    regrowths: u32,
}

/// Two instants in different blocks are in different buckets, and any
/// bucket lies inside one block.
fn block(t: Tick) -> u64 {
    t.as_ps() >> 18
}

impl HeapModel {
    fn head(&self) -> Option<(Tick, u64)> {
        self.heap.peek().map(|&Reverse(h)| h)
    }
    fn in_ring(&self, at: Tick) -> bool {
        at.as_ps() < self.wrap_base + HORIZON_PS
    }
    fn schedule(&mut self, at: Tick, key: u64) {
        let at = at.max(self.now);
        if !self.in_ring(at) {
            self.overflow_scheduled += 1;
        } else if self.cursor_ahead.is_some_and(|b| block(at) < b) {
            self.seen.retreats += 1;
            self.cursor_ahead = None;
            // The cursor sat on the head's bucket, sorted by the peek.
            let (head, _) = self.head().expect("a peek found it");
            self.tied_behind = (self.at_count[&head].0 >= 2).then_some(head);
        }
        if self.tied_behind.take_if(|&mut t| t == at).is_some() {
            self.seen.tie_retreats += 1;
        }
        let (pending, peak) = self.at_count.entry(at).or_default();
        *pending += 1;
        *peak = (*peak).max(*pending);
        self.heap.push(Reverse((at, self.seq)));
        self.keys.insert(self.seq, key);
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(Tick, u64)> {
        let (at, seq) = self.head()?;
        if !self.in_ring(at) {
            self.wrap_base = at.as_ps() / HORIZON_PS * HORIZON_PS;
            let migrated = self.heap.iter().filter(|e| self.in_ring(e.0 .0)).count();
            self.seen.migrations += (migrated >= 2) as u32;
        }
        self.heap.pop();
        let (pending, peak) = self.at_count.get_mut(&at).expect("counted");
        *pending -= 1;
        self.drained_peak = 0;
        if *pending == 0 {
            self.drained_peak = *peak;
            self.at_count.remove(&at);
        }
        self.now = at;
        self.has_popped = true;
        self.cursor_ahead = None;
        if self
            .tied_behind
            .is_some_and(|t| !self.at_count.contains_key(&t))
        {
            self.tied_behind = None;
        }
        Some((at, self.keys.remove(&seq).expect("scheduled")))
    }
    /// `peek_time`; also what a declined `pop_until` does to the cursor.
    fn peek(&mut self) -> Option<Tick> {
        let (at, _) = self.head()?;
        if self.in_ring(at) && block(at) > block(self.now) {
            self.cursor_ahead = Some(block(at));
        }
        Some(at)
    }
    fn pop_until(&mut self, end: Tick) -> Option<(Tick, u64)> {
        if self.peek()? <= end {
            self.pop()
        } else {
            None
        }
    }
    /// No event pending in `now`'s block: `now`'s bucket has drained.
    fn now_bucket_drained(&self) -> bool {
        self.head()
            .is_none_or(|(at, _)| block(at) > block(self.now))
    }
}

fn timer_ev(key: u64) -> Event {
    Event::HostTimer {
        node: NodeId(0),
        key,
    }
}

fn key_of(ev: &Event) -> u64 {
    match ev {
        Event::HostTimer { key, .. } => *key,
        _ => panic!("only timers are scheduled here"),
    }
}

/// The queue under test in lockstep with the model: every result is
/// compared as it is produced.
#[derive(Default)]
struct Lockstep {
    q: EventQueue,
    model: HeapModel,
    next_key: u64,
}

impl Lockstep {
    fn schedule_in(&mut self, delay_ps: u64) {
        let at = Tick::from_ps(self.q.now().as_ps() + delay_ps);
        if delay_ps == 0 && self.model.has_popped && self.model.now_bucket_drained() {
            self.model.seen.refills += 1;
            self.model.seen.regrowths += (self.model.drained_peak > SPARE_KEEP) as u32;
        }
        self.q.schedule(at, timer_ev(self.next_key));
        self.model.schedule(at, self.next_key);
        self.next_key += 1;
    }
    fn pop(&mut self) -> bool {
        let got = self.q.pop().map(|(t, e)| (t, key_of(&e)));
        assert_eq!(got, self.model.pop());
        assert_eq!(self.q.now(), self.model.now);
        got.is_some()
    }
    fn pop_until(&mut self, end: Tick) {
        let got = self.q.pop_until(end).map(|(t, e)| (t, key_of(&e)));
        assert_eq!(got, self.model.pop_until(end));
        assert_eq!(self.q.now(), self.model.now);
    }
    fn peek(&mut self) {
        assert_eq!(self.q.peek_time(), self.model.peek());
    }
    /// A same-instant burst of 65–264 events up to 2 µs out, popped
    /// until that instant drains, then a schedule at `now`: the fan-in
    /// of an incast, and the refill that reuses the burst's buffer.
    fn burst(&mut self, delta: u64) {
        let delay_ps = delta % 2_000_000;
        let at = Tick::from_ps(self.q.now().as_ps() + delay_ps);
        for _ in 0..65 + delta % 200 {
            self.schedule_in(delay_ps);
        }
        while self.model.at_count.contains_key(&at) {
            self.pop();
        }
        self.schedule_in(0);
    }
    /// Two to five events at one instant in a later block, a peek that
    /// sorts their bucket, a schedule at `now` that pulls the cursor back
    /// off it, then one to three more at that instant.
    fn tie_retreat(&mut self, delta: u64) {
        let delay_ps = (1 << 18) + delta % (1 << 18);
        for _ in 0..2 + delta % 4 {
            self.schedule_in(delay_ps);
        }
        self.peek();
        self.schedule_in(0);
        for _ in 0..1 + delta / 4 % 3 {
            self.schedule_in(delay_ps);
        }
    }
    /// Drain both completely; order must agree to the last event, and
    /// the model must have placed every event where the queue did.
    fn finish(mut self) -> Coverage {
        assert_eq!(self.q.len(), self.model.heap.len());
        while self.pop() {}
        assert_eq!(self.q.overflow_scheduled(), self.model.overflow_scheduled);
        self.model.seen
    }
}

/// Workload: a stream of (op, delta) pairs. `op` selects the operation
/// and the delay magnitude: small deltas stay inside one calendar bucket
/// (same-tick FIFO pressure), medium deltas cross buckets, large deltas
/// cross the ~537 µs ring horizon into the overflow heap and back.
fn queue_ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..=255, 0u64..6_000_000_000), 1..400)
}

/// Run 60 generated op streams through `step` and require every path in
/// [`Coverage`] to have been reached in at least 40 of them — the cursor
/// retreats only where `step` `peeks` (nothing else moves the cursor ahead
/// of `now`). Both steps spend ops from 240 up on [`Lockstep::burst`].
fn check_queue(name: &str, peeks: bool, step: impl Fn(&mut Lockstep, u8, u64)) {
    let strategy = queue_ops();
    let mut rng = proptest::TestRng::deterministic(name);
    let mut reached = [0u32; 5];
    for _ in 0..60 {
        let mut run = Lockstep::default();
        for (op, delta) in strategy.sample(&mut rng) {
            step(&mut run, op, delta);
            assert_eq!(run.q.len(), run.model.heap.len());
        }
        let seen = run.finish();
        let hits = [
            // Two wrap starts: the case ran in at least three wraps.
            seen.migrations >= 2,
            seen.refills > 0,
            seen.retreats > 0 || !peeks,
            seen.regrowths > 0,
            seen.tie_retreats > 0 || !peeks,
        ];
        for (n, hit) in reached.iter_mut().zip(hits) {
            *n += hit as u32;
        }
    }
    assert!(
        reached.iter().all(|&n| n >= 40),
        "generator coverage {reached:?} of 60 \
         (multi-wrap migration, refill, retreat, regrowth, retreat off a tie)"
    );
}

/// Same-tick FIFO and total time order: the calendar queue pops the exact
/// stream the old heap popped, for arbitrary interleavings — across ring
/// wraps and through buckets that drain and refill.
#[test]
fn event_queue_matches_heap_model() {
    check_queue("event_queue_matches_heap_model", false, |run, op, delta| {
        match op % 16 {
            _ if op >= 240 => run.burst(delta),
            // Schedule. op chooses the delay scale; delta 0 and the small
            // scale generate plenty of same-tick collisions.
            0..=2 => run.schedule_in(delta % 2_000), // within one bucket (ps)
            3..=5 => run.schedule_in(delta % 2_000_000), // a few buckets
            6..=8 => run.schedule_in(delta),         // up to 6 ms: overflow
            9 => run.schedule_in(0),                 // at `now`
            _ => {
                run.pop();
            }
        }
    });
}

/// Interleaving peeks and declined `pop_until`s must not disturb the pop
/// order (both advance the internal cursor; a later schedule at `now`
/// must still pop first), and neither may start an overflow wrap.
#[test]
fn event_queue_peek_is_transparent() {
    check_queue("event_queue_peek_is_transparent", true, |run, op, delta| {
        match op % 16 {
            _ if op >= 240 => run.burst(delta),
            0..=2 => run.schedule_in(delta),
            3..=5 => run.schedule_in(delta % 200_000_000),
            6 | 7 => run.peek(),
            // Peek, then schedule at or just after `now`: behind the cursor.
            8 => {
                run.peek();
                run.schedule_in(delta % 2_000);
            }
            9 => {
                let end = Tick::from_ps(run.q.now().as_ps() + delta % 400_000_000);
                run.pop_until(end);
                run.schedule_in(0);
            }
            10 => run.tie_retreat(delta),
            _ => {
                run.pop();
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Pool-recycled packet boxes never leak state from a previous life:
    /// every allocation is exactly the packet the caller constructed,
    /// INT stack included.
    #[test]
    fn pool_allocations_are_always_fresh(ops in prop::collection::vec((0u8..=255, 0u64..1_000_000), 1..200)) {
        let mut pool = PacketPool::new();
        let mut live: Vec<Box<Packet>> = Vec::new();
        for (op, stamp) in ops {
            if op % 3 == 0 && !live.is_empty() {
                // Dirty a live packet heavily, then retire it.
                let mut pkt = live.swap_remove(op as usize % live.len());
                pkt.ecn_ce = true;
                pkt.priority = 3;
                for _ in 0..(op % 8) {
                    pkt.int.push(powertcp_core::IntHop {
                        qlen_bytes: 1_000_000,
                        ts: Tick::from_nanos(stamp),
                        tx_bytes: stamp,
                        bandwidth: Bandwidth::gbps(100),
                    });
                }
                pool.recycle(pkt);
            } else {
                let sent_at = Tick::from_nanos(stamp);
                let pkt = pool.boxed(Packet::data(
                    FlowId(stamp),
                    NodeId(1),
                    NodeId(2),
                    stamp,
                    1000,
                    false,
                    sent_at,
                ));
                prop_assert!(pkt.int.is_empty(), "stale INT hops leaked");
                prop_assert!(!pkt.ecn_ce, "stale ECN mark leaked");
                prop_assert_eq!(pkt.sent_at, sent_at);
                prop_assert_eq!(pkt.flow, FlowId(stamp));
                prop_assert_eq!(pkt.priority, 7, "Packet::data default class");
                live.push(pkt);
            }
        }
    }
}
