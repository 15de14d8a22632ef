//! [`FlowTable`] — a dense slot-indexed map over [`FlowId`] keys.
//!
//! Workload generation assigns flow ids sequentially, so per-flow state
//! lookups (transport sender/receiver records, the metrics hub) do not
//! need an ordered tree: a `Vec` slab indexed by the id itself turns the
//! `O(log n)` comparisons every data packet and every ACK used to pay
//! into one bounds check and an index. Two properties keep the swap
//! invisible to every byte-pinned report:
//!
//! - **Total semantics.** Ids are *not* required to be dense. Ids beyond
//!   the bounded dense growth rule land in a `BTreeMap` spillover, so
//!   any id sequence behaves exactly like the plain ordered map it
//!   replaces. The invariant is strict: every spilled key is `>=` the
//!   dense region's length, so each id has exactly one possible home and
//!   lookups stay a single branch.
//! - **Ordered iteration.** [`FlowTable::iter`] yields entries in
//!   ascending [`FlowId`] order — dense slots first (slot index == id),
//!   then the spillover (already sorted, and entirely above the dense
//!   region by the invariant). `MetricsHub::records` and every report
//!   derived from it see the same order a `BTreeMap` produced.
//!
//! - **Memory follows the live entries.** The slab may grow to cover an
//!   id only while that id is below twice the live entry count plus a
//!   small slack, so its length stays within `2 * (most entries ever
//!   live) + DENSE_SLACK`. The global metrics table, filled with ids
//!   `0, 1, 2, …` in order, ends fully dense; a host's table, keyed by
//!   the *global* ids of its own few flows (an incast sender of 128
//!   holds ids `i`, `128 + i`, `256 + i`), keeps them in the spillover
//!   and costs O(own flows), not O(largest global id).
//!
//! Completion does not shrink anything: [`FlowTable::remove`] vacates
//! the slot in place and a later insert of the same id reuses it (the
//! slab is its own free list — no indirection table, no reallocation in
//! the hot path).

use crate::ids::FlowId;
use std::collections::BTreeMap;

/// An id below `2 * self.len() + DENSE_SLACK` (live entries, not slots)
/// may grow the dense region to cover it; any other id not already
/// covered spills to the ordered map. Ids inserted in sequence (the
/// metrics hub's registration) therefore always stay dense, while a
/// table holding a few far-apart ids (a host's own flows) or an
/// adversarially sparse one (say `1 << 60`) costs `BTreeMap` nodes
/// sized by its entries instead of a slab sized by its largest id.
const DENSE_SLACK: u64 = 16;

/// A map from [`FlowId`] to `T`, `Vec`-backed for dense ids with an
/// ordered spillover for sparse ones. See the module docs for the
/// invariants; see `crates/sim/tests/flow_table_props.rs` for the
/// property test pinning it against a `BTreeMap` model.
#[derive(Clone, Debug)]
pub struct FlowTable<T> {
    /// Slot `i` holds the entry for `FlowId(i)`, if present.
    dense: Vec<Option<T>>,
    /// Sparse entries; invariant: every key's index is `>= dense.len()`.
    spill: BTreeMap<FlowId, T>,
    /// Occupied dense slots (so `len` is O(1)).
    dense_live: usize,
}

// Manual impl: an empty table needs no `T: Default`.
impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        FlowTable::new()
    }
}

impl<T> FlowTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable {
            dense: Vec::new(),
            spill: BTreeMap::new(),
            dense_live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.dense_live + self.spill.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` would live in the dense region as sized right now.
    fn is_dense(&self, id: FlowId) -> bool {
        (id.0 as usize) < self.dense.len()
    }

    /// Whether the dense region may grow to cover `id`: only while `id`
    /// is below twice the live entries plus slack, so the slab never
    /// outgrows what the table holds.
    fn may_grow_to(&self, id: FlowId) -> bool {
        id.0 < 2 * self.len() as u64 + DENSE_SLACK
    }

    /// Grow the dense region to cover `id`, migrating any spilled
    /// entries the larger region now covers (preserving the invariant
    /// that spilled keys are `>=` the dense length).
    fn grow_to(&mut self, id: FlowId) {
        let new_len = id.0 as usize + 1;
        self.dense.resize_with(new_len, || None);
        while let Some(entry) = self.spill.first_entry() {
            if entry.key().0 as usize >= new_len {
                break;
            }
            let (k, v) = entry.remove_entry();
            self.dense[k.0 as usize] = Some(v);
            self.dense_live += 1;
        }
    }

    /// Insert `value` under `id`, returning the previous entry if any.
    pub fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
        if !self.is_dense(id) {
            if self.may_grow_to(id) {
                self.grow_to(id);
            } else {
                return self.spill.insert(id, value);
            }
        }
        let prev = self.dense[id.0 as usize].replace(value);
        if prev.is_none() {
            self.dense_live += 1;
        }
        prev
    }

    /// Shared reference to the entry under `id`.
    pub fn get(&self, id: FlowId) -> Option<&T> {
        if self.is_dense(id) {
            self.dense[id.0 as usize].as_ref()
        } else {
            self.spill.get(&id)
        }
    }

    /// Mutable reference to the entry under `id`.
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        if self.is_dense(id) {
            self.dense[id.0 as usize].as_mut()
        } else {
            self.spill.get_mut(&id)
        }
    }

    /// Whether an entry is live under `id`.
    pub fn contains_key(&self, id: FlowId) -> bool {
        self.get(id).is_some()
    }

    /// Remove and return the entry under `id`. The dense slot stays
    /// allocated and is reused in place by a later insert of the same
    /// id.
    pub fn remove(&mut self, id: FlowId) -> Option<T> {
        if self.is_dense(id) {
            let prev = self.dense[id.0 as usize].take();
            if prev.is_some() {
                self.dense_live -= 1;
            }
            prev
        } else {
            self.spill.remove(&id)
        }
    }

    /// Mutable reference to the entry under `id`, inserting
    /// `default()` first if absent (the `BTreeMap` `entry().or_insert_with`
    /// idiom), in one lookup. The id is placed where [`FlowTable::insert`]
    /// would place it: an id the slab may grow to cover is moved into it
    /// even when it is already spilled.
    pub fn get_or_insert_with(&mut self, id: FlowId, default: impl FnOnce() -> T) -> &mut T {
        if !self.is_dense(id) {
            if !self.may_grow_to(id) {
                return self.spill.entry(id).or_insert_with(default);
            }
            self.grow_to(id);
        }
        let slot = &mut self.dense[id.0 as usize];
        if slot.is_none() {
            self.dense_live += 1;
        }
        slot.get_or_insert_with(default)
    }

    /// Entries in ascending [`FlowId`] order — the dense region (slot
    /// index == id) followed by the spillover, which the invariant keeps
    /// strictly above it. Byte-pinned reports iterate through this.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (FlowId(i as u64), v)))
            .chain(self.spill.iter().map(|(k, v)| (*k, v)))
    }

    /// Values in ascending [`FlowId`] order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Allocated dense slots (testing/diagnostics: pins the bounded
    /// growth rule).
    pub fn dense_slots(&self) -> usize {
        self.dense.len()
    }

    /// Entries currently living in the sparse spillover
    /// (testing/diagnostics).
    pub fn spilled(&self) -> usize {
        self.spill.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_stay_dense() {
        let mut t = FlowTable::new();
        for i in 0..100u64 {
            assert_eq!(t.insert(FlowId(i), i * 10), None);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.spilled(), 0);
        assert_eq!(t.get(FlowId(42)), Some(&420));
        assert!(t.contains_key(FlowId(99)));
        assert!(!t.contains_key(FlowId(100)));
    }

    #[test]
    fn sparse_ids_spill_and_semantics_stay_total() {
        let mut t = FlowTable::new();
        t.insert(FlowId(0), "a");
        let huge = FlowId(1 << 60);
        assert_eq!(t.insert(huge, "z"), None);
        assert_eq!(t.spilled(), 1);
        assert!(t.dense_slots() < 2048, "sparse id must not grow the slab");
        assert_eq!(t.get(huge), Some(&"z"));
        assert_eq!(t.insert(huge, "z2"), Some("z"));
        assert_eq!(t.remove(huge), Some("z2"));
        assert_eq!(t.get(huge), None);
    }

    /// The pattern every host sees: its table is keyed by *global* flow
    /// ids, so the few flows that reach it arrive with ids far apart and
    /// past any slab a host that small would size. They live in the
    /// spillover, and iteration stays ordered.
    #[test]
    fn a_hosts_share_of_global_ids_lives_in_the_spillover() {
        let mut t = FlowTable::new();
        for id in [5003, 9001, 5000] {
            t.insert(FlowId(id), id);
        }
        assert_eq!((t.dense_slots(), t.spilled()), (0, 3));
        let keys: Vec<u64> = t.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, [5000, 5003, 9001]);
        assert_eq!(t.get_mut(FlowId(5003)), Some(&mut 5003));
    }

    #[test]
    fn growth_migrates_spilled_entries_below_the_new_length() {
        let mut t = FlowTable::new();
        // Within slack of an empty table (10 < 2*0+16), so this grows the slab.
        t.insert(FlowId(10), 10);
        assert_eq!(t.dense_slots(), 11);
        // Beyond 2*1+16 = 18: spills.
        t.insert(FlowId(40), 40);
        assert_eq!(t.spilled(), 1);
        // Within the rule (17 < 2*2+16): grows, 40 stays spilled.
        t.insert(FlowId(17), 17);
        assert_eq!((t.dense_slots(), t.spilled()), (18, 1));
        // Ten more live entries, all inside the slab, raise the bound to
        // 2*13+16 = 42 without growing it ...
        for i in 0..10 {
            t.insert(FlowId(i), i);
        }
        assert_eq!((t.dense_slots(), t.spilled()), (18, 1));
        // ... so growing to 41 pulls 40 into the slab.
        t.insert(FlowId(41), 41);
        assert_eq!((t.dense_slots(), t.spilled()), (42, 0));
        assert_eq!(t.get(FlowId(40)), Some(&40));
        assert_eq!(t.len(), 14);
    }

    /// The incast pattern: 128 senders, each keyed by the global ids of
    /// its 3 flows `{i, 128+i, 256+i}`. A slab sized by the largest id
    /// would hold ≈ 128 × 320 slots in all; sized by its own entries a
    /// table holds at most `2*3+16`, and only the first 16 senders (whose
    /// first id is inside the slack) hold any.
    #[test]
    fn incast_senders_tables_cost_their_own_flows() {
        let tables: Vec<FlowTable<u64>> = (0..128u64)
            .map(|i| {
                let mut t = FlowTable::new();
                for id in [i, 128 + i, 256 + i] {
                    t.insert(FlowId(id), id);
                }
                t
            })
            .collect();
        let slots: usize = tables.iter().map(FlowTable::dense_slots).sum();
        assert!(slots <= 128 * (2 * 3 + 16), "{slots} dense slots");
        assert_eq!(slots, (1..=16).sum::<usize>());
        for (i, t) in (0..128u64).zip(&tables) {
            let keys: Vec<u64> = t.iter().map(|(k, _)| k.0).collect();
            assert_eq!(keys, [i, 128 + i, 256 + i]);
            assert_eq!(t.get(FlowId(256 + i)), Some(&(256 + i)));
        }
    }

    #[test]
    fn removal_vacates_in_place_and_reinsert_reuses_the_slot() {
        let mut t = FlowTable::new();
        for i in 0..10u64 {
            t.insert(FlowId(i), i);
        }
        assert_eq!(t.remove(FlowId(3)), Some(3));
        assert_eq!(t.remove(FlowId(3)), None);
        assert_eq!(t.len(), 9);
        let slots = t.dense_slots();
        t.insert(FlowId(3), 33);
        assert_eq!(t.dense_slots(), slots, "reinsert reuses the vacated slot");
        assert_eq!(t.get(FlowId(3)), Some(&33));
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn iteration_is_in_flow_id_order_across_dense_and_spill() {
        let mut t = FlowTable::new();
        t.insert(FlowId(7), "d7");
        t.insert(FlowId(2), "d2");
        t.insert(FlowId(1 << 40), "s-hi");
        t.insert(FlowId(1 << 30), "s-lo");
        let keys: Vec<u64> = t.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![2, 7, 1 << 30, 1 << 40]);
        let vals: Vec<&str> = t.values().copied().collect();
        assert_eq!(vals, vec!["d2", "d7", "s-lo", "s-hi"]);
    }

    #[test]
    fn get_or_insert_with_matches_the_entry_idiom() {
        let mut t: FlowTable<Vec<u32>> = FlowTable::new();
        t.get_or_insert_with(FlowId(4), Vec::new).push(1);
        t.get_or_insert_with(FlowId(4), || panic!("present"))
            .push(2);
        assert_eq!(t.get(FlowId(4)), Some(&vec![1, 2]));
    }
}
