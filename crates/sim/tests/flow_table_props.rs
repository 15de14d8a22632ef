//! Property test: [`FlowTable`] is observationally a `BTreeMap<FlowId, T>`.
//!
//! The dense slab + ordered spillover is a pure representation change —
//! every byte-pinned report iterates flow records in `FlowId` order, so
//! the table must match the plain ordered map it replaced on *every*
//! operation and on iteration order, for arbitrary id sequences
//! (sequential, clustered, and adversarially sparse ids that exercise
//! the spillover and the growth/migration rule), while its slab stays
//! sized by the entries it has held, not by the ids it was given.

use dcn_sim::{FlowId, FlowTable};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `flow_table.rs`'s slack: an id below `2 * len() + DENSE_SLACK` may
/// grow the slab.
const DENSE_SLACK: usize = 16;

/// Decode a raw draw into an id from the regimes that matter: small
/// clustered ids (grow the slab and migrate spilled entries into it),
/// mid-range ids (spill until enough entries are live), far ids (past
/// bounded growth), and fully adversarial sparse ids (must spill
/// forever).
fn decode_id(sel: u8, raw: u64) -> FlowId {
    FlowId(match sel % 10 {
        0..=3 => raw % 64,
        4..=6 => raw % 8_192,
        7..=8 => raw % 1_000_000,
        _ => raw,
    })
}

/// One scripted operation against both the table and the model, decoded
/// from a raw `(op, id_regime, id, value)` tuple (the shim has no
/// `prop_oneof!`, so selection happens here).
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, u64, u32)>> {
    prop::collection::vec(
        (0u8..=255, 0u8..=255, 0u64..u64::MAX, 0u32..u32::MAX),
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every operation returns what the `BTreeMap` model returns, and
    /// iteration yields the identical ordered `(id, value)` stream. After
    /// every operation the slab holds at most `2 * (most entries ever
    /// live) + DENSE_SLACK` slots.
    #[test]
    fn flow_table_matches_btreemap_model(ops in ops_strategy()) {
        let mut table: FlowTable<u32> = FlowTable::new();
        let mut model: BTreeMap<FlowId, u32> = BTreeMap::new();
        let mut most_live = 0;
        for (op, sel, raw, v) in ops {
            let id = decode_id(sel, raw);
            match op % 14 {
                0..=4 => {
                    prop_assert_eq!(table.insert(id, v), model.insert(id, v));
                }
                5..=7 => {
                    prop_assert_eq!(table.remove(id), model.remove(&id));
                }
                8..=10 => {
                    prop_assert_eq!(table.get(id), model.get(&id));
                    prop_assert_eq!(table.contains_key(id), model.contains_key(&id));
                }
                11 | 12 => {
                    let got = *table.get_or_insert_with(id, || v);
                    let want = *model.entry(id).or_insert(v);
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let got: Vec<(FlowId, u32)> =
                        table.iter().map(|(id, v)| (id, *v)).collect();
                    let want: Vec<(FlowId, u32)> =
                        model.iter().map(|(id, v)| (*id, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            most_live = most_live.max(table.len());
            prop_assert!(
                table.dense_slots() <= 2 * most_live + DENSE_SLACK,
                "{} slots, at most {} entries ever live",
                table.dense_slots(),
                most_live
            );
        }
        // Final full sweep: ordered iteration and values() agree.
        let got: Vec<(FlowId, u32)> = table.iter().map(|(id, v)| (id, *v)).collect();
        let want: Vec<(FlowId, u32)> = model.iter().map(|(id, v)| (*id, *v)).collect();
        prop_assert_eq!(got, want);
        let got_vals: Vec<u32> = table.values().copied().collect();
        let want_vals: Vec<u32> = model.values().copied().collect();
        prop_assert_eq!(got_vals, want_vals);
    }

    /// Removing and re-inserting dense ids reuses slots in place: the
    /// dense capacity never grows while ids stay below the high-water
    /// mark, and semantics still track the model throughout. The ids are
    /// `0..n` shuffled so that no id lands 16 or more places before its
    /// own value (sorted by `i + jitter`, jitter below 16), so each one is
    /// below `2 * len() + DENSE_SLACK` when it is inserted.
    #[test]
    fn removal_then_reinsert_reuses_dense_slots(
        jitter in prop::collection::vec(0u64..DENSE_SLACK as u64, 1..200),
    ) {
        let n = jitter.len() as u64;
        let mut ids: Vec<u64> = (0..n).collect();
        ids.sort_by_key(|&i| (i + jitter[i as usize], i));
        let mut table: FlowTable<u64> = FlowTable::new();
        let mut model: BTreeMap<FlowId, u64> = BTreeMap::new();
        for &id in &ids {
            table.insert(FlowId(id), id);
            model.insert(FlowId(id), id);
            prop_assert_eq!(table.spilled(), 0, "ids dense under the rule must never spill");
        }
        let slots_after_fill = table.dense_slots();
        prop_assert_eq!(slots_after_fill, n as usize);
        // Churn: remove then re-insert every id, the second time in the
        // reverse order; capacity must not move.
        for &id in &ids {
            prop_assert_eq!(table.remove(FlowId(id)), model.remove(&FlowId(id)));
        }
        prop_assert!(table.is_empty());
        for &id in ids.iter().rev() {
            table.insert(FlowId(id), id + 1);
            model.insert(FlowId(id), id + 1);
        }
        prop_assert_eq!(table.spilled(), 0, "ids dense under the rule must never spill");
        prop_assert_eq!(table.dense_slots(), slots_after_fill);
        let got: Vec<(FlowId, u64)> = table.iter().map(|(id, v)| (id, *v)).collect();
        let want: Vec<(FlowId, u64)> = model.iter().map(|(id, v)| (*id, *v)).collect();
        prop_assert_eq!(got, want);
    }
}
