//! # dcn-flow
//!
//! A flow-level shared-bandwidth engine: the scale unlock for scenarios
//! the packet simulator cannot reach (100k-host fat-trees, million-flow
//! heavy-tailed mixes).
//!
//! Instead of packets, the unit of simulation is a *flow* — a
//! `(size, start, path)` tuple over an abstract capacitated link set.
//! Between discrete events (flow arrivals and completions) every active
//! flow transfers bytes at the **max-min fair** rate computed by exact
//! water-filling (progressive filling) over the links it crosses:
//! repeatedly find the most contended link, freeze every flow crossing
//! it at that link's fair share, subtract the frozen bandwidth, and
//! recurse on the rest. Every event re-runs this one fill.
//!
//! The engine is exactly deterministic: events are processed in
//! `(time, seq)` order (same tie-breaking contract as the packet
//! engine's calendar queue), the allocator fills links in ascending
//! `(fair share, link id)` order, and the whole loop is sequential
//! floating-point arithmetic — identical inputs produce bit-identical
//! outputs on any thread or process layout.
//!
//! An event changes the path counts of a few links, so the allocator
//! keeps, from one event to the next, everything an event does not touch:
//! - each contended link is a stable slot that lists its active flows,
//!   one entry per path hop, and each hop of a flow records where its
//!   entry sits; admitting or retiring a flow costs O(1) per hop;
//! - the opening candidates of progressive filling, one key per
//!   contended link, stay sorted, and a re-allocation re-keys in place
//!   only the links whose counts changed;
//! - a filling run starts a link's state the first time it reaches the
//!   link, so it costs the links it touches, not every contended one.
//!
//! What the abstraction gives up is transport dynamics: no slow start,
//! no congestion-control law, no switch buffers, no drops or PFC. A
//! flow's rate converges instantly to its fair share, so flow-level
//! FCTs are an *ideal lower envelope* for the packet engine's — the
//! cross-check harness in `dcn-scenarios` pins that relationship.

#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Behavioral version of the flow engine.
///
/// Folded into `dcn-runner` cache keys for `engine = "flow"` sweeps the
/// same way `dcn_sim::ENGINE_VERSION` salts packet sweeps: bump it on
/// **any** change that can move a simulated byte (allocator order,
/// completion epsilon, event scheduling), and stale flow-engine cache
/// entries die while packet and analytic entries stay warm.
pub const FLOW_ENGINE_VERSION: &str = "flow-engine-v3";

/// Completion slack in bytes: a flow whose remaining volume drops to or
/// below this after an advance is complete. Absorbs the rounding of
/// `remaining -= rate * dt`. A residue above it can still be due sooner
/// than the clock can resolve (`t + dt == t`); the event loop retires
/// such a flow on the spot instead of stepping by zero forever.
const EPS_BYTES: f64 = 1e-6;

/// A directed capacitated link in the abstract network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// The capacitated link set flows are routed over.
///
/// There is no graph here — routing already happened. A link is just a
/// capacity in bytes/second; a flow's path is the list of links it
/// consumes bandwidth on.
///
/// Capacities are stored as runs of equal value: a builder lays links
/// out class by class (every host NIC, then every rack aggregate), so a
/// 200,016-link fat-tree is two runs, not 200,016 `f64`s.
#[derive(Clone, Debug, Default)]
pub struct FlowNet {
    /// `(first link id, bytes/s)`, ascending by id; a run reaches the
    /// next run's first id, the last one reaches `len`.
    runs: Vec<(u32, f64)>,
    len: u32,
}

impl FlowNet {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link with the given capacity in bytes per second.
    ///
    /// # Panics
    /// If the capacity is not strictly positive and finite, or the net
    /// already has `u32::MAX` links.
    pub fn add_link(&mut self, bytes_per_sec: f64) -> LinkId {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "link capacity must be positive and finite, got {bytes_per_sec}"
        );
        let id = LinkId(self.len);
        match self.runs.last() {
            Some(&(_, cap)) if cap.to_bits() == bytes_per_sec.to_bits() => {}
            _ => self.runs.push((id.0, bytes_per_sec)),
        }
        self.len = self
            .len
            .checked_add(1)
            .expect("a net holds at most u32::MAX links");
        id
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.len as usize
    }

    /// Capacity of a link in bytes per second.
    ///
    /// # Panics
    /// If the link was never added.
    pub fn capacity(&self, link: LinkId) -> f64 {
        assert!(
            link.0 < self.len,
            "unknown link {} in a net of {} links",
            link.0,
            self.len
        );
        // The run holding `link` is the last one starting at or before it.
        let run = self.runs.partition_point(|&(first, _)| first <= link.0);
        self.runs[run - 1].1
    }
}

/// One flow offered to the engine.
#[derive(Clone, Debug)]
pub struct FlowDef {
    /// Deterministic tie-breaker: flows arriving at the same instant are
    /// admitted in ascending `seq` order.
    pub seq: u64,
    /// Flow volume in bytes.
    pub size_bytes: u64,
    /// Arrival time in seconds.
    pub start_s: f64,
    /// Links the flow consumes bandwidth on. An empty path transfers
    /// instantly (the abstraction's zero-cost loopback).
    pub path: Vec<LinkId>,
}

/// The offered flows, read by index `0..count()`. A path is produced when
/// its flow is admitted, so a caller that can compute its routes (say,
/// from host indices) keeps no path per flow.
pub trait Flows {
    /// Number of flows.
    fn count(&self) -> usize;
    /// Flow `i`'s tie-breaker: flows arriving at the same instant are
    /// admitted in ascending `seq` order.
    fn seq(&self, i: usize) -> u64;
    /// Flow `i`'s volume in bytes.
    fn size_bytes(&self, i: usize) -> u64;
    /// Flow `i`'s arrival time in seconds.
    fn start_s(&self, i: usize) -> f64;
    /// Append flow `i`'s path to `out`; see [`FlowDef::path`].
    fn path(&self, i: usize, out: &mut Vec<LinkId>);
}

/// Stored paths: `&[FlowDef]`, `&Vec<FlowDef>` and `&[FlowDef; N]` pass
/// straight to [`simulate`].
impl<T: AsRef<[FlowDef]> + ?Sized> Flows for T {
    fn count(&self) -> usize {
        self.as_ref().len()
    }
    fn seq(&self, i: usize) -> u64 {
        self.as_ref()[i].seq
    }
    fn size_bytes(&self, i: usize) -> u64 {
        self.as_ref()[i].size_bytes
    }
    fn start_s(&self, i: usize) -> f64 {
        self.as_ref()[i].start_s
    }
    fn path(&self, i: usize, out: &mut Vec<LinkId>) {
        out.extend_from_slice(&self.as_ref()[i].path);
    }
}

/// Per-flow outcome, aligned with the input flows by index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowResult {
    /// Transfer-complete time in seconds, or `None` if the flow was
    /// still in flight (or had not started) at the simulation end —
    /// i.e. it is right-censored.
    pub finish_s: Option<f64>,
}

/// Engine counters. Observability only — never fold into byte-pinned
/// report payloads (mirrors the `SimStats` contract in `dcn-sim`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Discrete events processed (each followed by one re-allocation).
    pub events: u64,
    /// Flows admitted into the active set.
    pub arrivals: u64,
    /// Flows that finished before the simulation end.
    pub completed: u64,
    /// Flows censored at the simulation end (includes never-started).
    pub censored: u64,
    /// Progressive-filling rounds across all allocations.
    pub waterfill_rounds: u64,
}

/// One active flow inside the event loop. It keeps its entry in the
/// flow slab from admission to retirement, so member lists can name it.
#[derive(Debug, Default)]
struct Active {
    /// Index of the flow in the caller's `flows`.
    idx: usize,
    remaining: f64,
    rate: f64,
    /// The [`Waterfill`] run that froze this flow. Runs are numbered
    /// upward, so a stamp from any earlier run reads as unfrozen.
    frozen_in: u64,
    /// The flow's path as [`LinkSlots`] slots — same order and
    /// multiplicity as [`Flows::path`], resolved once at admission so the
    /// per-event allocator never searches for a link — each with the
    /// position of its entry in the slot's member list.
    slots: Vec<Hop>,
}

impl Active {
    /// Seconds to completion at the current (positive) rate.
    fn time_left(&self) -> f64 {
        (self.remaining / self.rate).max(0.0)
    }
}

/// One hop of an active flow: its slot, and the back-pointer to the
/// hop's entry in that slot's member list.
#[derive(Clone, Copy, Debug)]
struct Hop {
    slot: u32,
    at: u32,
}

/// One entry of a slot's member list: a flow-slab index and which of
/// that flow's hops crosses the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Member {
    flow: u32,
    hop: u32,
}

/// One contended link: a stable slot in [`LinkSlots`].
struct LinkSlot {
    id: u32,
    cap: f64,
    /// The active flows' hops on this link, one entry per hop (a path
    /// listing the link twice has two), in no particular order. Empty
    /// marks a free slot.
    members: Vec<Member>,
    /// The slot's key in `LinkSlots::order`: present iff the slot had
    /// members at the last sync.
    key: Option<u128>,
    /// `members` changed since the last [`LinkSlots::sync`], so `key`
    /// may be stale.
    marked: bool,
}

impl LinkSlot {
    /// Path hops of active flows on this link.
    fn count(&self) -> u32 {
        self.members.len() as u32
    }

    /// List this slot (number `s`) in `marked`, once per sync.
    fn mark(&mut self, s: u32, marked: &mut Vec<u32>) {
        if !self.marked {
            self.marked = true;
            marked.push(s);
        }
    }
}

/// The allocator's persistent view of contended links: a slab whose
/// slots stay put while a link has active flows, so each flow can carry
/// its path as slot numbers. Sized by the links under contention, never
/// by the network.
///
/// Invariants between events: a slot's `members` are exactly the live
/// flows' hops on it, and each flow's [`Hop::at`] names its own entry.
/// After a sync, `order` holds exactly the counted slots' keys,
/// ascending, and each of those slots stores its key.
#[derive(Default)]
struct LinkSlots {
    slots: Vec<LinkSlot>,
    free: Vec<u32>,
    /// `(link id, slot)` sorted by id; consulted only on admit/retire.
    index: Vec<(u32, u32)>,
    /// Progressive filling's opening candidates, ascending: one
    /// [`key`] at `cap / count` per counted slot, as of the last sync.
    order: Vec<u128>,
    /// The marked slots, each listed once.
    marked: Vec<u32>,
}

impl LinkSlots {
    /// Enter flow `me`'s hops along `path` in their slots' member lists,
    /// appending each hop to `out` (empty on entry).
    fn admit(&mut self, net: &FlowNet, path: &[LinkId], me: u32, out: &mut Vec<Hop>) {
        for (hop, l) in path.iter().enumerate() {
            let s = match self.index.binary_search_by_key(&l.0, |&(id, _)| id) {
                Ok(p) => self.index[p].1,
                Err(p) => {
                    let cap = net.capacity(*l);
                    let s = match self.free.pop() {
                        Some(s) => {
                            // Re-labelled in place: a mark the slot took
                            // when it was freed still stands.
                            let slot = &mut self.slots[s as usize];
                            slot.id = l.0;
                            slot.cap = cap;
                            s
                        }
                        None => {
                            self.slots.push(LinkSlot {
                                id: l.0,
                                cap,
                                members: Vec::new(),
                                key: None,
                                marked: false,
                            });
                            (self.slots.len() - 1) as u32
                        }
                    };
                    self.index.insert(p, (l.0, s));
                    s
                }
            };
            let slot = &mut self.slots[s as usize];
            out.push(Hop {
                slot: s,
                at: slot.count(),
            });
            slot.members.push(Member {
                flow: me,
                hop: hop as u32,
            });
            slot.mark(s, &mut self.marked);
        }
    }

    /// Take flow `me`'s hops out of their member lists, freeing slots
    /// that empty. Each entry leaves by swap-remove, and the entry moved
    /// into its place has its back-pointer fixed, so nothing is searched.
    fn retire(&mut self, pool: &mut [Active], me: u32) {
        for i in 0..pool[me as usize].slots.len() {
            let Hop { slot: s, at } = pool[me as usize].slots[i];
            let slot = &mut self.slots[s as usize];
            slot.members.swap_remove(at as usize);
            // The moved entry may be a later hop of this very flow.
            if let Some(&m) = slot.members.get(at as usize) {
                pool[m.flow as usize].slots[m.hop as usize].at = at;
            }
            if slot.members.is_empty() {
                let p = self
                    .index
                    .binary_search_by_key(&slot.id, |&(id, _)| id)
                    .expect("a live slot is indexed");
                self.index.remove(p);
                self.free.push(s);
            }
            slot.mark(s, &mut self.marked);
        }
    }

    /// Bring `order` up to date by patching it in place: each marked
    /// slot's stored key comes out and its new key goes in, both found by
    /// binary search, so the unmarked keys are only shifted. Keys are
    /// distinct: each names its slot.
    fn sync(&mut self) {
        for s in self.marked.drain(..) {
            let l = &mut self.slots[s as usize];
            l.marked = false;
            let new = (l.count() > 0).then(|| key((l.cap / l.count() as f64).to_bits(), l.id, s));
            let old = std::mem::replace(&mut l.key, new);
            if old == new {
                continue;
            }
            if let Some(old) = old {
                let p = self.order.binary_search(&old);
                self.order.remove(p.expect("a stored key is in order"));
            }
            if let Some(new) = new {
                let p = self.order.binary_search(&new);
                self.order.insert(p.expect_err("keys are distinct"), new);
            }
        }
    }
}

/// Simulate the offered flows over the link set until `end_s`.
///
/// Returns one [`FlowResult`] per input flow (same order) and the
/// engine counters. Flows still unfinished at `end_s` — including flows
/// whose `start_s` is at or beyond it — come back censored
/// (`finish_s == None`). Each path is read into one reused vector, twice:
/// by the up-front link check, and when its flow is admitted.
///
/// # Panics
/// If a flow references a link outside `net`, or a start time is not
/// finite.
pub fn simulate<F: Flows + ?Sized>(
    net: &FlowNet,
    flows: &F,
    end_s: f64,
) -> (Vec<FlowResult>, FlowStats) {
    let n = flows.count();
    let mut path: Vec<LinkId> = Vec::new();
    for i in 0..n {
        assert!(flows.start_s(i).is_finite(), "flow start must be finite");
        path.clear();
        flows.path(i, &mut path);
        for l in &path {
            assert!(
                (l.0 as usize) < net.num_links(),
                "flow path references unknown link {}",
                l.0
            );
        }
    }
    // The flows in (start, seq) order, as `u32` indices: 4 bytes a flow,
    // alive for the whole loop.
    let mut order: Vec<u32> = (0..u32::try_from(n).expect("flow count fits in u32")).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        flows
            .start_s(a)
            .total_cmp(&flows.start_s(b))
            .then(flows.seq(a).cmp(&flows.seq(b)))
    });

    let mut finish: Vec<Option<f64>> = vec![None; n];
    let mut stats = FlowStats::default();
    // Flows in flight live in `pool`, a slab whose entries stay put from
    // admission to retirement so member lists can name them; `active`
    // lists them in admission order.
    let mut pool: Vec<Active> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut active: Vec<u32> = Vec::new();
    let mut links = LinkSlots::default();
    let mut fill = Waterfill::default();
    let mut next = 0usize; // cursor into `order`
    let mut t = 0.0f64;

    loop {
        if active.is_empty() {
            // Jump straight to the next arrival batch.
            let Some(&first) = order.get(next) else { break };
            t = t.max(flows.start_s(first as usize));
            if t >= end_s {
                break;
            }
        } else {
            // Next event: earliest completion, next arrival, or the end
            // of time — whichever comes first.
            let mut dt_done = f64::INFINITY;
            for &k in &active {
                let f = &pool[k as usize];
                if f.rate > 0.0 {
                    dt_done = dt_done.min(f.time_left());
                }
            }
            let t_arrival = order
                .get(next)
                .map_or(f64::INFINITY, |&i| flows.start_s(i as usize).max(t));
            let t_next = (t + dt_done).min(t_arrival).min(end_s);
            let dt = t_next - t;
            if dt > 0.0 {
                // Eager on purpose: settling `remaining` lazily would
                // reassociate this arithmetic and move bytes.
                for &k in &active {
                    let f = &mut pool[k as usize];
                    f.remaining -= f.rate * dt;
                }
            } else {
                // The next arrival and `end_s` are both strictly ahead,
                // so `dt == 0` means `t + dt_done == t`: the earliest
                // completion is closer than `t`'s resolution. Nothing
                // would ever change again — retire the flow(s) due then.
                for &k in &active {
                    let f = &mut pool[k as usize];
                    if f.rate > 0.0 && f.time_left() == dt_done {
                        f.remaining = 0.0;
                    }
                }
            }
            t = t_next;
            // Retire completions. They all finish at `t`, so their
            // relative order is unobservable.
            active.retain(|&k| {
                let f = &pool[k as usize];
                if f.remaining > EPS_BYTES {
                    return true;
                }
                finish[f.idx] = Some(t);
                stats.completed += 1;
                links.retire(&mut pool, k);
                free.push(k);
                false
            });
            if t >= end_s {
                break;
            }
        }
        // Admit every flow that has arrived by now, in (start, seq) order.
        while let Some(&i) = order.get(next) {
            let i = i as usize;
            if flows.start_s(i) > t {
                break;
            }
            next += 1;
            path.clear();
            flows.path(i, &mut path);
            if path.is_empty() {
                // Zero-cost loopback: transfers instantly.
                finish[i] = Some(t);
                stats.completed += 1;
                continue;
            }
            let k = free.pop().unwrap_or_else(|| {
                pool.push(Active::default());
                (pool.len() - 1) as u32
            });
            let f = &mut pool[k as usize];
            f.idx = i;
            f.remaining = (flows.size_bytes(i) as f64).max(EPS_BYTES * 2.0);
            f.rate = 0.0;
            f.slots.clear();
            links.admit(net, &path, k, &mut f.slots);
            active.push(k);
            stats.arrivals += 1;
        }
        // Recompute every active flow's max-min fair rate.
        if !active.is_empty() {
            fill.run(&mut links, &mut pool, active.len(), &mut stats);
        }
        stats.events += 1;
    }
    stats.censored += active.len() as u64;
    stats.censored += (n - next) as u64;
    (
        finish
            .into_iter()
            .map(|f| FlowResult { finish_s: f })
            .collect(),
        stats,
    )
}

/// Per-slot state of one progressive-filling run. It starts lazily: the
/// first time a run pops the slot or freezes a flow through it, [`fill`]
/// resets it from the slot's [`LinkSlot`].
#[derive(Default)]
struct SlotFill {
    /// The run this state belongs to; any other value means stale.
    run: u64,
    /// Capacity not yet handed to frozen flows.
    rem: f64,
    /// Path hops of still-unfrozen flows.
    cnt: u32,
    /// Last filling round (1-based) that changed `rem`/`cnt`.
    touched_in: u32,
    /// Share bits of the slot's one designated candidate: the opening
    /// key in `LinkSlots::order` or an entry in the heap. It is never
    /// above the current share while the slot is live.
    queued: u64,
}

impl SlotFill {
    fn share(&self) -> f64 {
        self.rem / self.cnt as f64
    }
}

/// Slot `s`'s state in run `run`, reset on first use to what the run
/// opens with: the link's whole capacity, every hop on it, and its
/// opening key as the designated candidate.
fn fill<'a>(fills: &'a mut [SlotFill], run: u64, links: &LinkSlots, s: u32) -> &'a mut SlotFill {
    let f = &mut fills[s as usize];
    if f.run != run {
        let l = &links.slots[s as usize];
        *f = SlotFill {
            run,
            rem: l.cap,
            cnt: l.count(),
            touched_in: 0,
            queued: (l.key.expect("a synced counted slot is keyed") >> 64) as u64,
        };
    }
    f
}

/// A bottleneck candidate packed as `share bits << 64 | link id << 32 |
/// slot`, so it orders like the tuple. Shares are non-negative, so their
/// bit patterns order like their values; the link id breaks ties the way
/// an ascending-id scan with a strict `<` does. The slot only rides
/// along.
fn key(share_bits: u64, id: u32, slot: u32) -> u128 {
    (share_bits as u128) << 64 | (id as u128) << 32 | slot as u128
}

/// Progressive filling, with scratch buffers that outlive the event so
/// an allocation allocates nothing once they have grown.
///
/// Nothing here is laid out per run: members come from the slab's
/// persistent lists, a flow's frozen mark is a run stamp on it, and a
/// slot's [`SlotFill`] starts on first use. A run therefore costs the
/// marks it syncs, the candidates it takes and the hops it freezes.
#[derive(Default)]
struct Waterfill {
    /// One per slab slot, grown with the slab.
    slots: Vec<SlotFill>,
    /// Runs so far; the current run's stamp.
    run: u64,
    /// Candidates re-keyed by this run, as a min-heap.
    heap: BinaryHeap<Reverse<u128>>,
    touched: Vec<u32>,
}

impl Waterfill {
    /// Repeatedly saturate the most contended link — minimum fair share,
    /// ties to the lowest link id — and freeze the `n` active flows.
    ///
    /// Candidates come from two ascending streams: the opening keys in
    /// `links.order` and a lazy heap of slots a round re-keyed. A slot
    /// re-enters the heap only when its share falls below the key it has
    /// queued, or when that key is popped stale. So each live slot keeps
    /// one candidate at or below its share, and the first live pop is
    /// the minimum `(share, link id)`: the rounds run in the order a heap
    /// of every slot at its exact share would give.
    fn run(&mut self, links: &mut LinkSlots, pool: &mut [Active], n: usize, stats: &mut FlowStats) {
        links.sync();
        let links = &*links;
        self.run += 1;
        let run = self.run;
        if self.slots.len() < links.slots.len() {
            self.slots.resize_with(links.slots.len(), SlotFill::default);
        }

        self.heap.clear();
        let mut opening = links.order.iter().copied().peekable();
        let mut unfrozen = n;
        let mut round = 0u32;
        while unfrozen > 0 {
            let top = self.heap.peek().map(|e| e.0);
            let k = match opening.peek() {
                Some(&o) if top.is_none_or(|h| o < h) => {
                    opening.next();
                    o
                }
                _ => {
                    let e = self.heap.pop();
                    e.expect("every unfrozen flow keeps a candidate").0
                }
            };
            let (bits, b) = ((k >> 64) as u64, k as u32);
            // Entries are never removed when a slot changes; one is live
            // iff it still states the slot's current share.
            let f = fill(&mut self.slots, run, links, b);
            if f.cnt == 0 {
                continue;
            }
            let now = f.share().to_bits();
            if now != bits {
                // Stale. If it was the slot's designated candidate, the
                // share has risen past it: queue the slot at its share.
                if bits == f.queued {
                    f.queued = now;
                    let id = links.slots[b as usize].id;
                    self.heap.push(Reverse(key(now, id, b)));
                    tally(Branch::RekeyedAtPop);
                }
                continue;
            }
            let share = f64::from_bits(bits);
            round += 1;
            for m in &links.slots[b as usize].members {
                let a = &mut pool[m.flow as usize];
                if a.frozen_in == run {
                    continue;
                }
                a.frozen_in = run;
                unfrozen -= 1;
                a.rate = share;
                // Every flow frozen this round subtracts the same
                // `share`, so the order they freeze in cannot change a
                // bit of `rem`.
                for h in &a.slots {
                    let f = fill(&mut self.slots, run, links, h.slot);
                    f.rem = (f.rem - share).max(0.0);
                    f.cnt -= 1;
                    if f.touched_in != round {
                        f.touched_in = round;
                        self.touched.push(h.slot);
                    }
                }
            }
            // The bottleneck is exactly saturated; pin it against rounding.
            let f = &mut self.slots[b as usize];
            f.rem = 0.0;
            f.cnt = 0;
            // A touched share almost always rises, and then the slot's
            // queued candidate still lies at or below it. It falls only
            // through rounding: a share that tied this round's and was
            // rounded up loses `share` and can round below its key
            // (`fl(100/3) > fl((100 - fl(100/3)) / 2)`), and a subnormal
            // share can round down to zero (`fl(5e-324 / 2) == 0`).
            for s in self.touched.drain(..) {
                let f = &mut self.slots[s as usize];
                if f.cnt == 0 {
                    continue;
                }
                let now = f.share().to_bits();
                if now < f.queued {
                    f.queued = now;
                    let id = links.slots[s as usize].id;
                    self.heap.push(Reverse(key(now, id, s)));
                    tally(Branch::FellBelowQueued);
                }
            }
        }
        stats.waterfill_rounds += round as u64;
    }
}

/// A branch of the allocator whose coverage the property tests assert.
/// Outside tests [`tally`] ignores it.
enum Branch {
    /// A slot's designated candidate popped stale and was re-keyed.
    RekeyedAtPop,
    /// A touched slot's share fell below its queued key.
    FellBelowQueued,
}

#[cfg(not(test))]
fn tally(_: Branch) {}

/// One-shot allocation over `paths` (none empty), for the allocator's
/// property tests.
#[cfg(test)]
fn rates(net: &FlowNet, paths: &[Vec<LinkId>]) -> Vec<f64> {
    let mut links = LinkSlots::default();
    let mut pool: Vec<Active> = Vec::new();
    for (idx, path) in paths.iter().enumerate() {
        let mut f = Active {
            idx,
            remaining: 1.0,
            ..Active::default()
        };
        links.admit(net, path, idx as u32, &mut f.slots);
        pool.push(f);
    }
    let n = pool.len();
    Waterfill::default().run(&mut links, &mut pool, n, &mut FlowStats::default());
    pool.iter().map(|f| f.rate).collect()
}

/// How often this thread's allocations took each [`Branch`].
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    rekeyed_at_pop: u32,
    fell_below_queued: u32,
}

#[cfg(test)]
thread_local! {
    static TALLY: std::cell::Cell<Tally> = std::cell::Cell::default();
}

#[cfg(test)]
fn tally(branch: Branch) {
    let mut t = TALLY.get();
    match branch {
        Branch::RekeyedAtPop => t.rekeyed_at_pop += 1,
        Branch::FellBelowQueued => t.fell_below_queued += 1,
    }
    TALLY.set(t);
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn one_link_net(cap: f64) -> (FlowNet, LinkId) {
        let mut net = FlowNet::new();
        let l = net.add_link(cap);
        (net, l)
    }

    fn flow(seq: u64, size: u64, start: f64, path: Vec<LinkId>) -> FlowDef {
        FlowDef {
            seq,
            size_bytes: size,
            start_s: start,
            path,
        }
    }

    #[test]
    fn lone_flow_runs_at_link_capacity() {
        let (net, l) = one_link_net(100.0);
        let (res, stats) = simulate(&net, &[flow(0, 250, 0.5, vec![l])], 10.0);
        assert_eq!(res[0].finish_s, Some(3.0));
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.censored, 0);
        assert_eq!(stats.waterfill_rounds, 1, "one flow, one round");
    }

    #[test]
    fn equal_share_then_residual_speedup() {
        // f1=150B and f2=50B split 100B/s evenly; f2 finishes at t=1,
        // then f1 runs alone at full rate: 100 bytes left -> t=2.
        let (net, l) = one_link_net(100.0);
        let defs = [flow(0, 150, 0.0, vec![l]), flow(1, 50, 0.0, vec![l])];
        let (res, stats) = simulate(&net, &defs, 10.0);
        assert_eq!(res[1].finish_s, Some(1.0));
        assert_eq!(res[0].finish_s, Some(2.0));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.arrivals, 2);
    }

    #[test]
    fn water_filling_matches_the_textbook_example() {
        // A on link1 (cap 100), C on link2 (cap 60), B crosses both.
        // Max-min: link2's share 30 freezes B and C, link1's residual 70
        // goes to A. Sizes chosen so all three finish exactly at t=1.
        let mut net = FlowNet::new();
        let l1 = net.add_link(100.0);
        let l2 = net.add_link(60.0);
        let defs = [
            flow(0, 70, 0.0, vec![l1]),
            flow(1, 30, 0.0, vec![l1, l2]),
            flow(2, 30, 0.0, vec![l2]),
        ];
        let (res, stats) = simulate(&net, &defs, 10.0);
        for r in &res {
            assert_eq!(r.finish_s, Some(1.0), "all rates must be max-min exact");
        }
        assert!(stats.waterfill_rounds >= 2, "two filling rounds expected");
    }

    #[test]
    fn incast_splits_the_shared_downlink_equally() {
        // Incast shape: many flows share one downlink; per-flow uplinks
        // are never binding. Progressive filling saturates the downlink
        // in its first round and freezes everyone at cap/n.
        let mut net = FlowNet::new();
        let down = net.add_link(80.0);
        let ups: Vec<LinkId> = (0..4).map(|_| net.add_link(100.0)).collect();
        let defs: Vec<FlowDef> = ups
            .iter()
            .enumerate()
            .map(|(i, &up)| flow(i as u64, 40, 0.0, vec![up, down]))
            .collect();
        let (res, stats) = assert_matches_reference(&net, &defs, 10.0);
        // 4 flows at 80/4 = 20 B/s, 40 bytes each -> t=2.
        for r in &res {
            assert_eq!(r.finish_s, Some(2.0));
        }
        assert_eq!(stats.waterfill_rounds, 1, "the downlink alone binds");
    }

    #[test]
    fn staggered_arrivals_reallocate() {
        // f0 alone at 100B/s for 1s (100B done), then shares 50/50.
        // f0's remaining 100B takes 2s more -> finishes t=3. f1 (300B)
        // then runs alone from t=3 with 200B left -> t=5.
        let (net, l) = one_link_net(100.0);
        let defs = [flow(0, 200, 0.0, vec![l]), flow(1, 300, 1.0, vec![l])];
        let (res, _) = simulate(&net, &defs, 10.0);
        assert_eq!(res[0].finish_s, Some(3.0));
        assert_eq!(res[1].finish_s, Some(5.0));
    }

    #[test]
    fn end_of_time_censors_in_flight_and_unstarted_flows() {
        let (net, l) = one_link_net(100.0);
        let defs = [
            flow(0, 50, 0.0, vec![l]),
            flow(1, 1_000_000, 0.0, vec![l]),
            flow(2, 10, 99.0, vec![l]),
        ];
        let (res, stats) = simulate(&net, &defs, 2.0);
        assert_eq!(res[0].finish_s, Some(1.0), "50B at a 50B/s split");
        assert_eq!(res[1].finish_s, None);
        assert_eq!(res[2].finish_s, None, "starts after the end of time");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.censored, 2);
    }

    #[test]
    fn empty_path_transfers_instantly() {
        let (net, _l) = one_link_net(100.0);
        let (res, stats) = simulate(&net, &[flow(0, 1 << 30, 0.25, vec![])], 1.0);
        assert_eq!(res[0].finish_s, Some(0.25));
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn simultaneous_events_tie_break_by_seq_and_repeat_bitwise() {
        let (net, l) = one_link_net(100.0);
        // Input deliberately out of seq order; same start instant.
        let defs = [
            flow(3, 100, 0.0, vec![l]),
            flow(1, 100, 0.0, vec![l]),
            flow(2, 100, 0.0, vec![l]),
        ];
        let (a, sa) = simulate(&net, &defs, 10.0);
        let (b, sb) = simulate(&net, &defs, 10.0);
        assert_eq!(a, b, "bit-identical across runs");
        assert_eq!(sa, sb);
        for r in &a {
            assert_eq!(r.finish_s, Some(3.0), "3 equal flows at 100/3 B/s");
        }
    }

    #[test]
    fn results_align_with_input_order_not_arrival_order() {
        let (net, l) = one_link_net(100.0);
        let defs = [flow(0, 100, 5.0, vec![l]), flow(1, 100, 0.0, vec![l])];
        let (res, _) = simulate(&net, &defs, 20.0);
        assert_eq!(res[1].finish_s, Some(1.0), "earlier arrival, later index");
        assert_eq!(res[0].finish_s, Some(6.0));
    }

    #[test]
    fn zero_progress_completion_step_retires_the_flow() {
        // A zero-byte flow (2e-6 B after the admission floor) on the
        // fat-tree's 2×100G rack aggregate is 8e-17 s from done at t=1:
        // `t + dt_done == t`, so without the guard nothing ever advances.
        let (net, l) = one_link_net(25e9);
        let (res, stats) = simulate(&net, &[flow(0, 0, 1.0, vec![l])], 10.0);
        assert_eq!(res[0].finish_s, Some(1.0));
        assert_eq!((stats.completed, stats.censored), (1, 0));
        assert!(stats.events <= 3, "bounded event count: {}", stats.events);
        // Only the flow attaining the step retires; its neighbour goes on.
        let (net, l) = one_link_net(100e9);
        let defs = [
            flow(0, 0, 1.0, vec![l]),
            flow(1, 50_000_000_000, 1.0, vec![l]),
        ];
        let (res, stats) = simulate(&net, &defs, 10.0);
        assert_eq!(res[0].finish_s, Some(1.0));
        assert_eq!(res[1].finish_s, Some(1.5));
        assert!(stats.events <= 4, "bounded event count: {}", stats.events);
    }

    // ---- The allocator against its oracles ------------------------------

    use proptest::prelude::*;

    /// Capacities that make equal shares likely (100/1 = 200/2 = 300/3)
    /// plus two subnormals: `5e-324 / 2` rounds to a share of zero, and
    /// `1.5e-323` split in two is exhausted by its first two subtractions.
    const CAPS: [f64; 7] = [50.0, 100.0, 100.0, 200.0, 300.0, 5e-324, 1.5e-323];
    const SIZES: [u64; 7] = [0, 1, 50, 100, 100, 150, 1_000_000];
    const STARTS: [f64; 7] = [0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 7.0];
    const ENDS: [f64; 4] = [0.75, 3.0, 10.0, 1e6];

    fn net_of(caps: &[usize]) -> FlowNet {
        let mut net = FlowNet::new();
        for &c in caps {
            net.add_link(CAPS[c]);
        }
        net
    }

    /// A small net and a flow set over it: few links, short paths drawn
    /// *with* replacement (repeated links) or, for about half the flows,
    /// without (so a link many flows each cross once stays common), sizes and starts from small palettes (simultaneous
    /// arrivals and completions), colliding seqs.
    fn sim_case() -> impl Strategy<Value = (FlowNet, Vec<FlowDef>, f64)> {
        (1usize..=6).prop_flat_map(|nlinks| {
            let link = (0..nlinks as u32).prop_map(LinkId);
            let one_flow = (
                0u64..6,
                0..SIZES.len(),
                0..STARTS.len(),
                prop::collection::vec(link, 0..=4),
                0u32..2,
            );
            (
                prop::collection::vec(0..CAPS.len(), nlinks),
                prop::collection::vec(one_flow, 1..=24),
                0..ENDS.len(),
            )
                .prop_map(|(caps, flows, end)| {
                    let defs = flows
                        .into_iter()
                        .map(|(seq, size, start, drawn, repeats)| {
                            let mut path = Vec::new();
                            for l in drawn {
                                if repeats == 1 || !path.contains(&l) {
                                    path.push(l);
                                }
                            }
                            flow(seq, SIZES[size], STARTS[start], path)
                        })
                        .collect();
                    (net_of(&caps), defs, ENDS[end])
                })
        })
    }

    fn bits(res: &[FlowResult]) -> Vec<Option<u64>> {
        res.iter().map(|r| r.finish_s.map(f64::to_bits)).collect()
    }

    fn assert_matches_reference(
        net: &FlowNet,
        defs: &[FlowDef],
        end_s: f64,
    ) -> (Vec<FlowResult>, FlowStats) {
        let (got, got_stats) = simulate(net, defs, end_s);
        let (want, want_stats) = reference::simulate(net, defs, end_s);
        assert_eq!(bits(&got), bits(&want), "finish times, bit for bit");
        assert_eq!(got_stats, want_stats);
        (got, got_stats)
    }

    /// The new allocator is the parent's, bit for bit — and the generator
    /// provably reaches the cases the equivalence has to survive.
    #[test]
    fn simulate_matches_the_reference_bit_for_bit() {
        let strategy = sim_case();
        let mut rng = proptest::TestRng::deterministic("simulate_matches_the_reference");
        let mut seen = [0u32; 6];
        for _ in 0..400 {
            let (net, defs, end_s) = strategy.sample(&mut rng);
            TALLY.take();
            let (res, _) = assert_matches_reference(&net, &defs, end_s);
            let taken = TALLY.take();

            let on = |l: LinkId| {
                defs.iter()
                    .zip(&res)
                    .filter(move |(f, _)| f.path.contains(&l))
            };
            let repeated_link = defs
                .iter()
                .any(|f| (1..f.path.len()).any(|i| f.path[..i].contains(&f.path[i])));
            let same_start = (1..defs.len()).any(|i| {
                !defs[i].path.is_empty()
                    && defs[..i]
                        .iter()
                        .any(|g| !g.path.is_empty() && g.start_s == defs[i].start_s)
            });
            let same_finish = (1..res.len()).any(|i| {
                res[i].finish_s.is_some() && res[..i].iter().any(|r| r.finish_s == res[i].finish_s)
            });
            let censored_in_flight = defs
                .iter()
                .zip(&res)
                .any(|(f, r)| f.start_s < end_s && r.finish_s.is_none());
            // Two hops on a 5e-324 link split it into shares of zero.
            let rate_zero = (0..net.num_links() as u32).map(LinkId).any(|l| {
                net.capacity(l) == 5e-324
                    && on(l)
                        .filter(|(f, _)| f.start_s == 0.0 && 0.0 < end_s)
                        .map(|(f, _)| f.path.iter().filter(|&&h| h == l).count())
                        .sum::<usize>()
                        >= 2
            });
            // A link drained of flows and then crossed again.
            let slot_reuse = (0..net.num_links() as u32).map(LinkId).any(|l| {
                on(l).any(|(late, _)| {
                    let mut earlier = on(l).filter(|(f, _)| f.start_s < late.start_s).peekable();
                    late.start_s < end_s
                        && earlier.peek().is_some()
                        && earlier.all(|(_, r)| r.finish_s.is_some_and(|t| t < late.start_s))
                })
            });
            for (hit, n) in [
                repeated_link,
                same_start && same_finish,
                censored_in_flight,
                rate_zero,
                slot_reuse,
                taken.rekeyed_at_pop > 0,
            ]
            .into_iter()
            .zip(&mut seen)
            {
                *n += hit as u32;
            }
        }
        assert!(seen.iter().all(|&n| n >= 40), "generator coverage {seen:?}");
    }

    #[test]
    fn equal_shares_fill_the_lowest_link_id_first() {
        // Links 0 and 1 both offer 100/flow. Whichever fills first takes
        // B (on both) with it, and the other's residual share is then
        // computed from a different `rem`: the finish bits depend on the
        // tie going to link 0, as the parent's ascending scan decided.
        let net = net_of(&[3, 1, 0]); // 200, 100, 50
        let (l0, l1, l2) = (LinkId(0), LinkId(1), LinkId(2));
        let defs = [
            flow(0, 170, 0.0, vec![l0]),
            flow(1, 130, 0.0, vec![l1, l0]),
            flow(2, 70, 0.0, vec![l2]),
            flow(3, 90, 0.25, vec![l2, l2, l0]),
        ];
        let (_, stats) = assert_matches_reference(&net, &defs, 100.0);
        assert!(stats.waterfill_rounds >= 2);
    }

    #[test]
    fn a_repeated_hop_is_not_a_second_flow() {
        // Link x carries 100 B/s and y 1000 B/s; A runs on [x, x], B on
        // [y]. x has two hops for two flows, yet B never crosses it:
        // water-filling gives A 100 / 2 and B all of y, so both finish at
        // t = 1. A split read off x's hop count alone would give B 50 B/s
        // as well, and B would finish at 1.95 s.
        let mut net = FlowNet::new();
        let x = net.add_link(100.0);
        let y = net.add_link(1000.0);
        assert_eq!(rates(&net, &[vec![x, x], vec![y]]), vec![50.0, 1000.0]);
        let defs = [flow(0, 50, 0.0, vec![x, x]), flow(1, 1000, 0.0, vec![y])];
        let (res, _) = assert_matches_reference(&net, &defs, 10.0);
        assert_eq!(res[0].finish_s, Some(1.0));
        assert_eq!(res[1].finish_s, Some(1.0));
    }

    #[test]
    fn a_share_rounded_below_its_queued_key_fills_before_a_tie() {
        // Three 100 B/s links, three hops each: all open at fl(100/3),
        // which rounds up. Link 0 fills first (lowest id) and takes C off
        // link 2, whose share then rounds *below* its opening key. Link 2
        // must fill next, ahead of link 1 still at fl(100/3): if the
        // allocator left link 2 at its opening key, link 1 would win the
        // id tie and G would leave at fl(100/3).
        let s = 100.0f64 / 3.0;
        let fell = (100.0 - s) / 2.0;
        assert!(fell < s);
        let net = net_of(&[1, 1, 1]);
        let (l0, l1, l2) = (LinkId(0), LinkId(1), LinkId(2));
        let paths = [
            vec![l0],
            vec![l0],
            vec![l0, l2], // C
            vec![l1],
            vec![l1],
            vec![l1, l2], // G
            vec![l2],
        ];
        TALLY.take();
        let rates = rates(&net, &paths);
        assert!(TALLY.take().fell_below_queued > 0);
        assert_eq!(rates[2].to_bits(), s.to_bits());
        assert_eq!(rates[5].to_bits(), fell.to_bits());
        assert_eq!(rates[6].to_bits(), fell.to_bits());
        let defs: Vec<FlowDef> = (0..paths.len() as u64)
            .map(|i| flow(i, 100 + 10 * i, 0.0, paths[i as usize].clone()))
            .collect();
        assert_matches_reference(&net, &defs, 100.0);
    }

    /// After any admit/retire sequence, the persistent state equals a
    /// rebuild from the live paths: each slot's member list is the live
    /// hops on it, every back-pointer names its own entry, and `sync`
    /// leaves `order` as sorting every counted slot's opening key would,
    /// with no mark left standing.
    #[test]
    fn synced_order_is_a_sorted_rebuild_of_the_live_paths() {
        // An op is (kind, path, pick): kinds 0–4 admit `path`, 5–8 retire
        // live flow `pick`, 9 syncs. The last op is always followed by a
        // sync.
        let case = (1usize..=5).prop_flat_map(|nlinks| {
            let link = (0..nlinks as u32).prop_map(LinkId);
            let op = (0u32..10, prop::collection::vec(link, 1..=4), 0usize..64);
            (
                prop::collection::vec(0usize..5, nlinks),
                prop::collection::vec(op, 1..=48),
            )
        });
        let mut rng = proptest::TestRng::deterministic("synced_order_is_a_sorted_rebuild");
        let mut seen = [0u32; 4];
        for _ in 0..400 {
            let (caps, ops) = case.sample(&mut rng);
            let net = net_of(&caps);
            let mut links = LinkSlots::default();
            let mut pool: Vec<Active> = Vec::new();
            let mut live: Vec<u32> = Vec::new();
            // Per slot, the link it counted at the last sync.
            let mut counted_at_sync: Vec<Option<u32>> = Vec::new();
            let mut unsynced = 0;
            let mut hit = [false; 4];
            let last = ops.len() - 1;
            for (i, (kind, path, pick)) in ops.into_iter().enumerate() {
                match kind {
                    0..=4 => {
                        hit[0] |= (1..path.len()).any(|i| path[..i].contains(&path[i]));
                        let me = pool.len() as u32;
                        let mut f = Active::default();
                        links.admit(&net, &path, me, &mut f.slots);
                        pool.push(f);
                        live.push(me);
                        unsynced += 1;
                    }
                    5..=8 if !live.is_empty() => {
                        let me = live.swap_remove(pick % live.len());
                        let hops = &pool[me as usize].slots;
                        // A retire that moves this flow's own later entry.
                        hit[3] |= (1..hops.len())
                            .any(|i| hops[..i].iter().any(|h| h.slot == hops[i].slot));
                        links.retire(&mut pool, me);
                        unsynced += 1;
                    }
                    _ => {}
                }
                if kind != 9 && i != last {
                    continue;
                }
                // The rebuild: per slot, the live hops.
                let mut members = vec![Vec::new(); links.slots.len()];
                for &me in &live {
                    let hops = &pool[me as usize].slots;
                    for (hop, h) in hops.iter().enumerate() {
                        members[h.slot as usize].push(Member {
                            flow: me,
                            hop: hop as u32,
                        });
                        assert_eq!(
                            links.slots[h.slot as usize].members[h.at as usize],
                            Member {
                                flow: me,
                                hop: hop as u32
                            },
                            "a back-pointer names its own entry"
                        );
                    }
                }
                for (l, want) in links.slots.iter().zip(&mut members) {
                    let mut got = l.members.clone();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(&got, want, "member list of link {}", l.id);
                }
                let count: Vec<u32> = members.iter().map(|m| m.len() as u32).collect();
                // A slot freed and re-admitted for another link.
                hit[1] |= (counted_at_sync.iter().zip(&links.slots).zip(&count))
                    .any(|((was, l), &n)| n > 0 && was.is_some_and(|id| id != l.id));
                hit[2] |= unsynced >= 12;
                links.sync();
                let want: Vec<Option<u128>> = (links.slots.iter().zip(&count).enumerate())
                    .map(|(s, (l, &n))| {
                        (n > 0).then(|| key((l.cap / n as f64).to_bits(), l.id, s as u32))
                    })
                    .collect();
                assert!(links.slots.iter().zip(&want).all(|(l, w)| l.key == *w));
                let mut want: Vec<u128> = want.into_iter().flatten().collect();
                want.sort_unstable();
                assert_eq!(links.order, want);
                assert!(links.marked.is_empty() && links.slots.iter().all(|l| !l.marked));
                counted_at_sync = (links.slots.iter().zip(&count))
                    .map(|(l, &n)| (n > 0).then_some(l.id))
                    .collect();
                unsynced = 0;
            }
            for (hit, n) in hit.into_iter().zip(&mut seen) {
                *n += hit as u32;
            }
        }
        assert!(seen.iter().all(|&n| n >= 40), "generator coverage {seen:?}");
    }

    /// Per-link load of an allocation, counting a repeated hop each time.
    fn link_load(net: &FlowNet, paths: &[Vec<LinkId>], rates: &[f64]) -> Vec<f64> {
        let mut load = vec![0.0; net.num_links()];
        for (path, rate) in paths.iter().zip(rates) {
            for l in path {
                load[l.0 as usize] += rate;
            }
        }
        load
    }

    /// Nets without the subnormal capacities, every path non-empty.
    fn rates_case() -> impl Strategy<Value = (FlowNet, Vec<Vec<LinkId>>)> {
        (1usize..=8).prop_flat_map(|nlinks| {
            let link = (0..nlinks as u32).prop_map(LinkId);
            (
                prop::collection::vec(0usize..5, nlinks),
                prop::collection::vec(prop::collection::vec(link, 1..=4), 1..=32),
            )
                .prop_map(|(caps, paths)| (net_of(&caps), paths))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The max-min certificate: the allocation is feasible, and every
        /// flow crosses a saturated link on which no flow is faster — so
        /// no rate can rise without lowering a smaller-or-equal one.
        #[test]
        fn water_filling_is_max_min_fair((net, paths) in rates_case()) {
            let rates = rates(&net, &paths);
            let load = link_load(&net, &paths, &rates);
            for (l, &used) in load.iter().enumerate() {
                let cap = net.capacity(LinkId(l as u32));
                prop_assert!(used <= cap * (1.0 + 1e-9), "link {l} over capacity");
            }
            for (path, &rate) in paths.iter().zip(&rates) {
                let bottlenecked = path.iter().any(|l| {
                    load[l.0 as usize] >= net.capacity(*l) * (1.0 - 1e-9)
                        && paths.iter().zip(&rates).all(|(p, &r)| {
                            !p.contains(l) || r <= rate * (1.0 + 1e-9)
                        })
                });
                prop_assert!(bottlenecked, "flow at {rate} on {path:?} has no bottleneck");
            }
        }
    }

    // ---- Capacity runs against a dense model -----------------------------

    /// Capacities for the run-length property: equal neighbours extend a
    /// run only when their bits match, so `0.1 + 0.2` and `0.3` (equal to
    /// the eye, one ulp apart) must land in two runs.
    const RUN_CAPS: [f64; 6] = [
        3_125_000_000.0,
        25_000_000_000.0,
        0.1 + 0.2,
        0.3,
        5e-324,
        1.5e-323,
    ];

    /// Check `net` against `model`, the capacities it was built from:
    /// every link reads back its own bits, the link count agrees, and
    /// there is one run per change of bits.
    fn assert_runs_match(net: &FlowNet, model: &[f64]) {
        assert_eq!(net.num_links(), model.len());
        for (l, cap) in model.iter().enumerate() {
            let got = net.capacity(LinkId(l as u32));
            assert_eq!(got.to_bits(), cap.to_bits(), "link {l}");
        }
        let changes = model
            .windows(2)
            .filter(|w| w[0].to_bits() != w[1].to_bits());
        assert_eq!(net.runs.len(), model.len().min(1) + changes.count());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Any `add_link` sequence — long runs, alternating values, equal
        /// values built differently — reads back as a plain `Vec<f64>`.
        #[test]
        fn capacity_runs_agree_with_a_dense_vec(
            blocks in prop::collection::vec((0..RUN_CAPS.len(), 0u32..4, 1usize..=40), 0..=24)
        ) {
            let (mut net, mut model) = (FlowNet::new(), Vec::new());
            for (cap, shape, len) in blocks {
                // Shape 0 alternates the palette entry with its neighbour;
                // the rest repeat it, shape 3 for a long run.
                let len = if shape == 3 { len * 50 } else { len };
                for i in 0..len {
                    let c = if shape == 0 && i % 2 == 1 {
                        RUN_CAPS[(cap + 1) % RUN_CAPS.len()]
                    } else {
                        RUN_CAPS[cap]
                    };
                    prop_assert_eq!(net.add_link(c), LinkId(model.len() as u32));
                    model.push(c);
                }
            }
            assert_runs_match(&net, &model);
        }
    }

    /// The `fattree-100k` shape: 200,000 host links at 25 Gb/s, then 8
    /// ToR uplinks and 8 downlinks at 200 Gb/s — two runs, each checked
    /// at both ends.
    #[test]
    fn a_fattree_100k_net_is_two_runs() {
        let (host, rack) = (3_125_000_000.0, 25_000_000_000.0);
        let model: Vec<f64> = [(host, 200_000), (rack, 16)]
            .into_iter()
            .flat_map(|(cap, n)| std::iter::repeat_n(cap, n))
            .collect();
        let mut net = FlowNet::new();
        for &cap in &model {
            net.add_link(cap);
        }
        assert_eq!(net.runs, [(0, host), (200_000, rack)]);
        for (l, want) in [(0, host), (199_999, host), (200_000, rack), (200_015, rack)] {
            assert_eq!(
                net.capacity(LinkId(l)).to_bits(),
                f64::to_bits(want),
                "link {l}"
            );
        }
        assert_runs_match(&net, &model);
    }

    #[test]
    #[should_panic(expected = "unknown link 200016")]
    fn an_unknown_link_panics_naming_it() {
        let mut net = FlowNet::new();
        for _ in 0..200_000 {
            net.add_link(3_125_000_000.0);
        }
        for _ in 0..16 {
            net.add_link(25_000_000_000.0);
        }
        net.capacity(LinkId(200_016));
    }
}
