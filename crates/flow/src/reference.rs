//! The pre-slab allocator and event loop, kept verbatim as the test
//! oracle: `simulate` must equal [`simulate`](self::simulate) here bit
//! for bit — every `finish_s` and every [`FlowStats`] counter.
//!
//! This is the O(rounds × (L + A·p·log L)) design the production code
//! replaced: a sorted-and-compacted link-id vector binary-searched per
//! path hop, a per-round scan of every contended link for the minimum
//! share, and a per-round `any()` probe of every active flow's path.
//! Its round order — minimum share, ties to the lowest link id — is the
//! contract the production heap key `(share bits, link id)` reproduces.
//!
//! Two deviations from the code as it shipped: the zero-progress guard
//! in the event loop, marked below, without which the inputs that guard
//! exists for never terminate, here or there; and no single-bottleneck
//! fast path, so every allocation is the progressive filling below.

use super::{FlowDef, FlowNet, FlowResult, FlowStats, LinkId, EPS_BYTES};

/// One active flow inside the event loop.
#[derive(Clone, Debug)]
struct Active {
    /// Index into the caller's `flows` slice.
    idx: usize,
    seq: u64,
    remaining: f64,
    rate: f64,
}

/// The allocator's persistent view of contended links: sorted link ids
/// with the number of active flows crossing each. Maintained
/// incrementally on admit/retire so a re-allocation never rebuilds it.
#[derive(Default)]
struct LinkLoad {
    ids: Vec<u32>,
    counts: Vec<u32>,
}

impl LinkLoad {
    fn admit(&mut self, path: &[LinkId]) {
        for l in path {
            match self.ids.binary_search(&l.0) {
                Ok(p) => self.counts[p] += 1,
                Err(p) => {
                    self.ids.insert(p, l.0);
                    self.counts.insert(p, 1);
                }
            }
        }
    }

    fn retire(&mut self, path: &[LinkId]) {
        for l in path {
            let p = self
                .ids
                .binary_search(&l.0)
                .expect("retired flow crosses an untracked link");
            self.counts[p] -= 1;
            if self.counts[p] == 0 {
                self.ids.remove(p);
                self.counts.remove(p);
            }
        }
    }

    fn dense(&self, link: LinkId) -> usize {
        self.ids
            .binary_search(&link.0)
            .expect("active flow crosses an untracked link")
    }
}

/// The parent's `simulate`: same contract as the production one.
pub(crate) fn simulate(
    net: &FlowNet,
    flows: &[FlowDef],
    end_s: f64,
) -> (Vec<FlowResult>, FlowStats) {
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
    let mut load = LinkLoad::default();
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
                    dt_done = dt_done.min((f.remaining / f.rate).max(0.0));
                }
            }
            let t_arrival = order
                .get(next)
                .map_or(f64::INFINITY, |&i| flows[i].start_s.max(t));
            let t_next = (t + dt_done).min(t_arrival).min(end_s);
            let dt = t_next - t;
            if dt > 0.0 {
                for f in &mut active {
                    f.remaining -= f.rate * dt;
                }
            } else {
                // Deviation from the shipped parent: the zero-progress
                // guard, identical to production's.
                for f in &mut active {
                    if f.rate > 0.0 && (f.remaining / f.rate).max(0.0) == dt_done {
                        f.remaining = 0.0;
                    }
                }
            }
            t = t_next;
            // Retire completions in (time, seq) order.
            let mut done: Vec<usize> = (0..active.len())
                .filter(|&k| active[k].remaining <= EPS_BYTES)
                .collect();
            done.sort_by_key(|&k| active[k].seq);
            for &k in done.iter().rev() {
                // Reverse index order keeps earlier swap_remove targets
                // stable; completion bookkeeping below is index-free.
                load.retire(&flows[active[k].idx].path);
            }
            for &k in &done {
                finish[active[k].idx] = Some(t);
                stats.completed += 1;
            }
            let mut k = 0;
            while k < active.len() {
                if active[k].remaining <= EPS_BYTES {
                    active.remove(k);
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
            load.admit(&flows[i].path);
            active.push(Active {
                idx: i,
                seq: flows[i].seq,
                remaining: (flows[i].size_bytes as f64).max(EPS_BYTES * 2.0),
                rate: 0.0,
            });
            stats.arrivals += 1;
        }
        if !active.is_empty() {
            allocate(net, &mut active, &load, flows, &mut stats);
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

/// Recompute every active flow's max-min fair rate.
fn allocate(
    net: &FlowNet,
    active: &mut [Active],
    load: &LinkLoad,
    flows: &[FlowDef],
    stats: &mut FlowStats,
) {
    // Progressive filling: repeatedly saturate the most contended link.
    let nlinks = load.ids.len();
    let mut rem: Vec<f64> = load.ids.iter().map(|&id| net.caps[id as usize]).collect();
    let mut cnt: Vec<u32> = load.counts.clone();
    let mut frozen = vec![false; active.len()];
    let mut unfrozen = active.len();
    while unfrozen > 0 {
        let mut best: Option<(usize, f64)> = None;
        for l in 0..nlinks {
            if cnt[l] > 0 {
                let share = rem[l] / cnt[l] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((l, share));
                }
            }
        }
        let Some((bottleneck, share)) = best else {
            // Unreachable while every active flow has a non-empty path;
            // guard against a stall anyway.
            for (k, f) in active.iter_mut().enumerate() {
                if !frozen[k] {
                    f.rate = f64::INFINITY;
                }
            }
            break;
        };
        for (k, f) in active.iter_mut().enumerate() {
            if frozen[k]
                || !flows[f.idx]
                    .path
                    .iter()
                    .any(|l| load.dense(*l) == bottleneck)
            {
                continue;
            }
            frozen[k] = true;
            unfrozen -= 1;
            f.rate = share;
            for l in &flows[f.idx].path {
                let d = load.dense(*l);
                rem[d] = (rem[d] - share).max(0.0);
                cnt[d] -= 1;
            }
        }
        // The bottleneck is exactly saturated; pin it against rounding.
        rem[bottleneck] = 0.0;
        cnt[bottleneck] = 0;
        stats.waterfill_rounds += 1;
    }
}
