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
//! recurse on the rest. When all active flows share one global
//! bottleneck — the full-mesh/incast shape — a fast path allocates
//! `capacity / n` to everyone in a single scan.
//!
//! The engine is exactly deterministic: events are processed in
//! `(time, seq)` order (same tie-breaking contract as the packet
//! engine's calendar queue), the allocator fills links in ascending
//! `(fair share, link id)` order, and the whole loop is sequential
//! floating-point arithmetic — identical inputs produce bit-identical
//! outputs on any thread or process layout.
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
pub const FLOW_ENGINE_VERSION: &str = "flow-engine-v1";

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
#[derive(Clone, Debug, Default)]
pub struct FlowNet {
    caps: Vec<f64>,
}

impl FlowNet {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a link with the given capacity in bytes per second.
    ///
    /// # Panics
    /// If the capacity is not strictly positive and finite.
    pub fn add_link(&mut self, bytes_per_sec: f64) -> LinkId {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "link capacity must be positive and finite, got {bytes_per_sec}"
        );
        let id = LinkId(self.caps.len() as u32);
        self.caps.push(bytes_per_sec);
        id
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.caps.len()
    }

    /// Capacity of a link in bytes per second.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.caps[link.0 as usize]
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

/// Per-flow outcome, aligned with the input slice by index.
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
    /// Progressive-filling rounds across all general allocations.
    pub waterfill_rounds: u64,
    /// Allocations served by the single-bottleneck fast path.
    pub fastpath_allocs: u64,
}

/// One active flow inside the event loop.
#[derive(Debug)]
struct Active {
    /// Index into the caller's `flows` slice.
    idx: usize,
    remaining: f64,
    rate: f64,
    /// The flow's path as [`LinkSlots`] slots — same order and
    /// multiplicity as `FlowDef::path`, resolved once at admission so the
    /// per-event allocator never searches for a link.
    slots: Vec<u32>,
}

impl Active {
    /// Seconds to completion at the current (positive) rate.
    fn time_left(&self) -> f64 {
        (self.remaining / self.rate).max(0.0)
    }
}

/// One contended link: a stable slot in [`LinkSlots`].
struct LinkSlot {
    id: u32,
    cap: f64,
    /// Path hops of active flows on this link (a path listing the link
    /// twice counts twice). Zero marks a free slot.
    count: u32,
    /// `count` changed since the last [`LinkSlots::sync`], so the slot's
    /// key in `order`, if it has one, is stale.
    marked: bool,
}

/// The allocator's persistent view of contended links: a slab whose
/// slots stay put while a link has active flows, so each flow can carry
/// its path as slot numbers. Sized by the links under contention, never
/// by the network.
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
    /// `sync`'s scratch: the marked slots' new keys.
    fresh: Vec<u128>,
}

impl LinkSlots {
    /// Count `path`'s hops in and append their slots to `out`.
    fn admit(&mut self, net: &FlowNet, path: &[LinkId], out: &mut Vec<u32>) {
        for l in path {
            let s = match self.index.binary_search_by_key(&l.0, |&(id, _)| id) {
                Ok(p) => self.index[p].1,
                Err(p) => {
                    let cap = net.caps[l.0 as usize];
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
                                count: 0,
                                marked: false,
                            });
                            (self.slots.len() - 1) as u32
                        }
                    };
                    self.index.insert(p, (l.0, s));
                    s
                }
            };
            self.slots[s as usize].count += 1;
            self.mark(s);
            out.push(s);
        }
    }

    /// Count a retiring flow's hops out, freeing slots that empty.
    fn retire(&mut self, path: &[u32]) {
        for &s in path {
            let slot = &mut self.slots[s as usize];
            slot.count -= 1;
            if slot.count == 0 {
                let p = self
                    .index
                    .binary_search_by_key(&slot.id, |&(id, _)| id)
                    .expect("a live slot is indexed");
                self.index.remove(p);
                self.free.push(s);
            }
            self.mark(s);
        }
    }

    fn mark(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        if !slot.marked {
            slot.marked = true;
            self.marked.push(s);
        }
    }

    /// Bring `order` up to date: keep the unmarked slots' keys, sort the
    /// marked slots' new ones and merge the two. O(L + D log D) for D
    /// marks, however many events left them.
    fn sync(&mut self) {
        let slots = &mut self.slots;
        self.order.retain(|&k| !slots[k as u32 as usize].marked);
        self.fresh.clear();
        for s in self.marked.drain(..) {
            let l = &mut slots[s as usize];
            l.marked = false;
            if l.count > 0 {
                let share = l.cap / l.count as f64;
                self.fresh.push(key(share.to_bits(), l.id, s));
            }
        }
        self.fresh.sort_unstable();
        // Merge from the back, so no key moves twice. Keys are distinct:
        // each names its slot.
        let (mut i, mut j) = (self.order.len(), self.fresh.len());
        self.order.resize(i + j, 0);
        while j > 0 {
            if i > 0 && self.order[i - 1] > self.fresh[j - 1] {
                self.order[i + j - 1] = self.order[i - 1];
                i -= 1;
            } else {
                self.order[i + j - 1] = self.fresh[j - 1];
                j -= 1;
            }
        }
    }
}

/// Simulate the offered flows over the link set until `end_s`.
///
/// Returns one [`FlowResult`] per input flow (same order) and the
/// engine counters. Flows still unfinished at `end_s` — including flows
/// whose `start_s` is at or beyond it — come back censored
/// (`finish_s == None`).
///
/// # Panics
/// If a flow references a link outside `net`, or a start time is not
/// finite.
pub fn simulate(net: &FlowNet, flows: &[FlowDef], end_s: f64) -> (Vec<FlowResult>, FlowStats) {
    for f in flows {
        assert!(f.start_s.is_finite(), "flow start must be finite");
        for l in &f.path {
            assert!(
                (l.0 as usize) < net.num_links(),
                "flow path references unknown link {}",
                l.0
            );
        }
    }
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by(|&a, &b| {
        flows[a]
            .start_s
            .total_cmp(&flows[b].start_s)
            .then(flows[a].seq.cmp(&flows[b].seq))
    });

    let mut finish: Vec<Option<f64>> = vec![None; flows.len()];
    let mut stats = FlowStats::default();
    let mut active: Vec<Active> = Vec::new();
    let mut links = LinkSlots::default();
    let mut fill = Waterfill::default();
    let mut spare: Vec<Vec<u32>> = Vec::new(); // retired slot paths, reused on admit
    let mut next = 0usize; // cursor into `order`
    let mut t = 0.0f64;

    loop {
        if active.is_empty() {
            // Jump straight to the next arrival batch.
            let Some(&first) = order.get(next) else { break };
            t = t.max(flows[first].start_s);
            if t >= end_s {
                break;
            }
        } else {
            // Next event: earliest completion, next arrival, or the end
            // of time — whichever comes first.
            let mut dt_done = f64::INFINITY;
            for f in &active {
                if f.rate > 0.0 {
                    dt_done = dt_done.min(f.time_left());
                }
            }
            let t_arrival = order
                .get(next)
                .map_or(f64::INFINITY, |&i| flows[i].start_s.max(t));
            let t_next = (t + dt_done).min(t_arrival).min(end_s);
            let dt = t_next - t;
            if dt > 0.0 {
                // Eager on purpose: settling `remaining` lazily would
                // reassociate this arithmetic and move bytes.
                for f in &mut active {
                    f.remaining -= f.rate * dt;
                }
            } else {
                // The next arrival and `end_s` are both strictly ahead,
                // so `dt == 0` means `t + dt_done == t`: the earliest
                // completion is closer than `t`'s resolution. Nothing
                // would ever change again — retire the flow(s) due then.
                for f in &mut active {
                    if f.rate > 0.0 && f.time_left() == dt_done {
                        f.remaining = 0.0;
                    }
                }
            }
            t = t_next;
            // Retire completions. They all finish at `t`, so their
            // relative order is unobservable.
            let mut k = 0;
            while k < active.len() {
                if active[k].remaining <= EPS_BYTES {
                    let done = active.remove(k);
                    finish[done.idx] = Some(t);
                    stats.completed += 1;
                    links.retire(&done.slots);
                    spare.push(done.slots);
                } else {
                    k += 1;
                }
            }
            if t >= end_s {
                break;
            }
        }
        // Admit every flow that has arrived by now, in (start, seq) order.
        while let Some(&i) = order.get(next) {
            if flows[i].start_s > t {
                break;
            }
            next += 1;
            if flows[i].path.is_empty() {
                // Zero-cost loopback: transfers instantly.
                finish[i] = Some(t);
                stats.completed += 1;
                continue;
            }
            let mut slots = spare.pop().unwrap_or_default();
            slots.clear();
            links.admit(net, &flows[i].path, &mut slots);
            active.push(Active {
                idx: i,
                remaining: (flows[i].size_bytes as f64).max(EPS_BYTES * 2.0),
                rate: 0.0,
                slots,
            });
            stats.arrivals += 1;
        }
        // Recompute every active flow's max-min fair rate.
        if !active.is_empty() && !try_single_bottleneck(&links, &mut active, &mut stats) {
            fill.run(&mut links, &mut active, &mut stats);
        }
        stats.events += 1;
    }
    stats.censored += active.len() as u64;
    stats.censored += (flows.len() - next) as u64;
    (
        finish
            .into_iter()
            .map(|f| FlowResult { finish_s: f })
            .collect(),
        stats,
    )
}

/// Fast path: when one link is crossed by *every* active flow and its
/// equal split is feasible on all other links, the max-min allocation
/// is the uniform rate `cap / n`. Detects the full-mesh / incast shape
/// in one scan instead of a filling loop. Only the minimum share's
/// *value* is used, so the slab's slot order cannot show in a rate.
fn try_single_bottleneck(links: &LinkSlots, active: &mut [Active], stats: &mut FlowStats) -> bool {
    let n = active.len() as u32;
    let share = links
        .slots
        .iter()
        .filter(|l| l.count == n)
        .map(|l| l.cap / n as f64)
        .min_by(f64::total_cmp);
    let Some(share) = share else {
        return false;
    };
    for l in links.slots.iter().filter(|l| l.count > 0) {
        if l.cap / l.count as f64 + 1e-15 < share {
            return false;
        }
    }
    for f in active.iter_mut() {
        f.rate = share;
    }
    stats.fastpath_allocs += 1;
    tally(Branch::FastPath);
    true
}

/// Per-slot state of one progressive-filling run.
struct SlotFill {
    /// Capacity not yet handed to frozen flows.
    rem: f64,
    /// Path hops of still-unfrozen flows.
    cnt: u32,
    /// One past the slot's last entry in `Waterfill::members`; the
    /// slot's members are the `LinkSlot::count` entries before it.
    end: u32,
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
#[derive(Default)]
struct Waterfill {
    slots: Vec<SlotFill>,
    /// Slot → active-flow indices, CSR body (one entry per path hop).
    members: Vec<u32>,
    frozen: Vec<bool>,
    /// Candidates re-keyed by this run, as a min-heap.
    heap: BinaryHeap<Reverse<u128>>,
    touched: Vec<u32>,
}

impl Waterfill {
    /// Repeatedly saturate the most contended link — minimum fair share,
    /// ties to the lowest link id — and freeze the flows crossing it.
    ///
    /// Candidates come from two ascending streams: the opening keys in
    /// `links.order` and a lazy heap of slots a round re-keyed. A slot
    /// re-enters the heap only when its share falls below the key it has
    /// queued, or when that key is popped stale. So each live slot keeps
    /// one candidate at or below its share, and the first live pop is
    /// the minimum `(share, link id)`: the rounds run in the order a heap
    /// of every slot at its exact share would give.
    fn run(&mut self, links: &mut LinkSlots, active: &mut [Active], stats: &mut FlowStats) {
        tally(Branch::Sync);
        links.sync();
        // Lay the slot → members table out from the hop counts.
        self.slots.clear();
        let mut end = 0u32;
        for l in &links.slots {
            self.slots.push(SlotFill {
                rem: l.cap,
                cnt: l.count,
                end,
                touched_in: 0,
                queued: 0,
            });
            end += l.count;
        }
        for &k in &links.order {
            self.slots[k as u32 as usize].queued = (k >> 64) as u64;
        }
        self.members.clear();
        self.members.resize(end as usize, 0);
        for (k, f) in active.iter().enumerate() {
            for &s in &f.slots {
                let at = &mut self.slots[s as usize].end;
                self.members[*at as usize] = k as u32;
                *at += 1;
            }
        }
        self.frozen.clear();
        self.frozen.resize(active.len(), false);

        self.heap.clear();
        let mut opening = links.order.iter().copied().peekable();
        let mut unfrozen = active.len();
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
            let (bits, b) = ((k >> 64) as u64, k as u32 as usize);
            // Entries are never removed when a slot changes; one is live
            // iff it still states the slot's current share.
            let f = &mut self.slots[b];
            if f.cnt == 0 {
                continue;
            }
            let now = f.share().to_bits();
            if now != bits {
                // Stale. If it was the slot's designated candidate, the
                // share has risen past it: queue the slot at its share.
                if bits == f.queued {
                    f.queued = now;
                    let id = links.slots[b].id;
                    self.heap.push(Reverse(key(now, id, b as u32)));
                    tally(Branch::RekeyedAtPop);
                }
                continue;
            }
            let share = f64::from_bits(bits);
            round += 1;
            let members =
                (self.slots[b].end - links.slots[b].count) as usize..self.slots[b].end as usize;
            for &k in &self.members[members] {
                let k = k as usize;
                if self.frozen[k] {
                    continue;
                }
                self.frozen[k] = true;
                unfrozen -= 1;
                active[k].rate = share;
                // Every flow frozen this round subtracts the same
                // `share`, so the order they freeze in cannot change a
                // bit of `rem`.
                for &s in &active[k].slots {
                    let f = &mut self.slots[s as usize];
                    f.rem = (f.rem - share).max(0.0);
                    f.cnt -= 1;
                    if f.touched_in != round {
                        f.touched_in = round;
                        self.touched.push(s);
                    }
                }
            }
            // The bottleneck is exactly saturated; pin it against rounding.
            self.slots[b].rem = 0.0;
            self.slots[b].cnt = 0;
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
    /// The fast path served an event.
    FastPath,
    /// A general run synced the marks.
    Sync,
    /// A slot's designated candidate popped stale and was re-keyed.
    RekeyedAtPop,
    /// A touched slot's share fell below its queued key.
    FellBelowQueued,
}

#[cfg(not(test))]
fn tally(_: Branch) {}

/// One-shot allocation over `paths` (none empty), for the allocator's
/// property tests: the rates, and whether the fast path produced them.
/// `fast_path = false` forces progressive filling.
#[cfg(test)]
fn rates(net: &FlowNet, paths: &[Vec<LinkId>], fast_path: bool) -> (Vec<f64>, bool) {
    let mut links = LinkSlots::default();
    let mut active: Vec<Active> = paths
        .iter()
        .enumerate()
        .map(|(idx, path)| {
            let mut slots = Vec::new();
            links.admit(net, path, &mut slots);
            Active {
                idx,
                remaining: 1.0,
                rate: 0.0,
                slots,
            }
        })
        .collect();
    let mut stats = FlowStats::default();
    let fast = fast_path && try_single_bottleneck(&links, &mut active, &mut stats);
    if !fast {
        Waterfill::default().run(&mut links, &mut active, &mut stats);
    }
    (active.iter().map(|f| f.rate).collect(), fast)
}

/// How often this thread's allocations took each [`Branch`].
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    rekeyed_at_pop: u32,
    fell_below_queued: u32,
    /// Syncs of marks that ≥ 2 fast-path events left.
    synced_after_fast_paths: u32,
    /// Fast-path events since the last sync.
    fast_since_sync: u32,
}

#[cfg(test)]
thread_local! {
    static TALLY: std::cell::Cell<Tally> = std::cell::Cell::default();
}

#[cfg(test)]
fn tally(branch: Branch) {
    let mut t = TALLY.get();
    match branch {
        Branch::FastPath => t.fast_since_sync += 1,
        Branch::Sync => {
            t.synced_after_fast_paths += (t.fast_since_sync >= 2) as u32;
            t.fast_since_sync = 0;
        }
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
        // A single flow trivially satisfies the shared-bottleneck shape.
        assert!(stats.fastpath_allocs > 0);
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
        assert_eq!(stats.fastpath_allocs, 0, "no link is crossed by all flows");
    }

    #[test]
    fn fast_path_agrees_with_general_water_filling() {
        // Incast shape: many flows share one downlink; per-flow uplinks
        // are never binding. The fast path must produce the same rates
        // (observable through finish times) as progressive filling
        // would: cap/n each.
        let mut net = FlowNet::new();
        let down = net.add_link(80.0);
        let ups: Vec<LinkId> = (0..4).map(|_| net.add_link(100.0)).collect();
        let defs: Vec<FlowDef> = ups
            .iter()
            .enumerate()
            .map(|(i, &up)| flow(i as u64, 40, 0.0, vec![up, down]))
            .collect();
        let (res, stats) = simulate(&net, &defs, 10.0);
        // 4 flows at 80/4 = 20 B/s, 40 bytes each -> t=2.
        for r in &res {
            assert_eq!(r.finish_s, Some(2.0));
        }
        assert!(stats.fastpath_allocs > 0);
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
    /// *with* replacement (repeated links), sizes and starts from small
    /// palettes (simultaneous arrivals and completions), colliding seqs.
    fn sim_case() -> impl Strategy<Value = (FlowNet, Vec<FlowDef>, f64)> {
        (1usize..=6).prop_flat_map(|nlinks| {
            let link = (0..nlinks as u32).prop_map(LinkId);
            let one_flow = (
                0u64..6,
                0..SIZES.len(),
                0..STARTS.len(),
                prop::collection::vec(link, 0..=4),
            );
            (
                prop::collection::vec(0..CAPS.len(), nlinks),
                prop::collection::vec(one_flow, 1..=24),
                0..ENDS.len(),
            )
                .prop_map(|(caps, flows, end)| {
                    let defs = flows
                        .into_iter()
                        .map(|(seq, size, start, path)| flow(seq, SIZES[size], STARTS[start], path))
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
        let mut seen = [0u32; 8];
        for _ in 0..400 {
            let (net, defs, end_s) = strategy.sample(&mut rng);
            TALLY.take();
            let (res, stats) = assert_matches_reference(&net, &defs, end_s);
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
                stats.waterfill_rounds > 0 && stats.fastpath_allocs > 0,
                taken.rekeyed_at_pop > 0,
                taken.synced_after_fast_paths > 0,
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
        let (rates, _) = rates(&net, &paths, false);
        assert!(TALLY.take().fell_below_queued > 0);
        assert_eq!(rates[2].to_bits(), s.to_bits());
        assert_eq!(rates[5].to_bits(), fell.to_bits());
        assert_eq!(rates[6].to_bits(), fell.to_bits());
        let defs: Vec<FlowDef> = (0..paths.len() as u64)
            .map(|i| flow(i, 100 + 10 * i, 0.0, paths[i as usize].clone()))
            .collect();
        assert_matches_reference(&net, &defs, 100.0);
    }

    /// After any admit/retire sequence, `sync` leaves `order` exactly as
    /// rebuilding it from the live paths and sorting would: one opening
    /// key per counted slot, and no mark left standing.
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
        let mut seen = [0u32; 3];
        for _ in 0..400 {
            let (caps, ops) = case.sample(&mut rng);
            let net = net_of(&caps);
            let mut links = LinkSlots::default();
            let mut live: Vec<Vec<u32>> = Vec::new();
            // Per slot, the link it counted at the last sync.
            let mut counted_at_sync: Vec<Option<u32>> = Vec::new();
            let mut unsynced = 0;
            let mut hit = [false; 3];
            let last = ops.len() - 1;
            for (i, (kind, path, pick)) in ops.into_iter().enumerate() {
                match kind {
                    0..=4 => {
                        hit[0] |= (1..path.len()).any(|i| path[..i].contains(&path[i]));
                        let mut slots = Vec::new();
                        links.admit(&net, &path, &mut slots);
                        live.push(slots);
                        unsynced += 1;
                    }
                    5..=8 if !live.is_empty() => {
                        links.retire(&live.swap_remove(pick % live.len()));
                        unsynced += 1;
                    }
                    _ => {}
                }
                if kind != 9 && i != last {
                    continue;
                }
                let mut count = vec![0u32; links.slots.len()];
                for s in live.iter().flatten() {
                    count[*s as usize] += 1;
                }
                // A slot freed and re-admitted for another link.
                hit[1] |= (counted_at_sync.iter().zip(&links.slots).zip(&count))
                    .any(|((was, l), &n)| n > 0 && was.is_some_and(|id| id != l.id));
                hit[2] |= unsynced >= 12;
                links.sync();
                let mut want: Vec<u128> = (links.slots.iter().zip(&count).enumerate())
                    .filter(|(_, (_, &n))| n > 0)
                    .map(|(s, (l, &n))| key((l.cap / n as f64).to_bits(), l.id, s as u32))
                    .collect();
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
            let (rates, _) = rates(&net, &paths, false);
            let load = link_load(&net, &paths, &rates);
            for (l, &used) in load.iter().enumerate() {
                prop_assert!(used <= net.caps[l] * (1.0 + 1e-9), "link {l} over capacity");
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

        /// Where the single-bottleneck fast path applies, it hands out the
        /// rates progressive filling would.
        #[test]
        fn fast_path_rates_equal_water_filling((net, mut paths) in rates_case()) {
            // Route every flow over link 0 so the shape applies often, and
            // drop repeated hops: the fast path counts hops, not flows, so
            // a link listed twice can pass for one every flow crosses.
            for p in &mut paths {
                p.push(LinkId(0));
                p.sort();
                p.dedup();
            }
            let (fast, applied) = rates(&net, &paths, true);
            let (general, _) = rates(&net, &paths, false);
            if applied {
                for (f, g) in fast.iter().zip(&general) {
                    prop_assert!((f - g).abs() <= g * 1e-9, "fast {f} vs general {g}");
                }
            } else {
                prop_assert_eq!(fast, general);
            }
        }
    }
}
