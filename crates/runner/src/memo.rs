//! The daemon's in-memory tier in front of its [`crate::ResultCache`].
//!
//! `xp serve` re-runs the same points cycle after cycle (a grid edited
//! one knob at a time), and a disk hit costs a file read and a decode of
//! the entry every time. A [`Memo`] keeps decoded outcomes for the
//! daemon's whole life, so a warm point costs a map lookup and a clone.
//!
//! * An outcome enters only when it is read back from disk, i.e. on its
//!   second use: a point computed once and never asked for again (a
//!   fresh seed) takes no room.
//! * Entries are keyed by [`CacheKey::hash`] and served only when their
//!   stored canon is byte-equal to the key's, the rule
//!   [`crate::ResultCache::load`] keeps on disk.
//! * The memo holds at most `MEMO_BUDGET` (320 KiB) of entries, each
//!   charged its cache file's length, and drops the least recently used
//!   entry first. An entry over a quarter of the budget is never kept, so
//!   one large trace entry cannot evict a whole sweep.
//!
//! Entries are content-addressed, so a memoized outcome is the outcome of
//! its key whatever has happened to the file since: `xp cache clear` and
//! a corrupted file leave the memo serving the right bytes.

use crate::codec::Outcome;
use crate::key::CacheKey;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cache-file bytes a [`Memo`] may hold: one 96-point sweep job's entries
/// total ≈ 0.23 MB, and this keeps one such job with room to spare.
const MEMO_BUDGET: u64 = 320 * 1024;

/// A bounded, least-recently-used map of decoded outcomes, shared by the
/// daemon's workers. A poisoned lock bypasses it: the disk tier still
/// serves.
#[derive(Debug, Default)]
pub struct Memo(Mutex<Kept>);

#[derive(Debug, Default)]
struct Kept {
    entries: BTreeMap<u64, Entry>,
    /// Sum of the entries' `bytes`; never above [`MEMO_BUDGET`].
    bytes: u64,
    /// Use counter: an entry's `used` is its last lookup or insertion.
    clock: u64,
}

#[derive(Debug)]
struct Entry {
    canon: String,
    outcome: Outcome,
    bytes: u64,
    used: u64,
}

impl Memo {
    /// The outcome memoized under `key`, if its canon matches byte for
    /// byte; a hit becomes the most recently used entry.
    pub fn get(&self, key: &CacheKey) -> Option<Outcome> {
        let mut kept = self.0.lock().ok()?;
        kept.clock += 1;
        let now = kept.clock;
        let entry = kept
            .entries
            .get_mut(&key.hash)
            .filter(|e| e.canon == key.canon)?;
        entry.used = now;
        Some(entry.outcome.clone())
    }

    /// Keep `outcome`, read back from a cache file of `bytes` bytes under
    /// `key`, evicting the least recently used entries until the budget
    /// holds. An entry over a quarter of the budget is not kept.
    pub fn keep(&self, key: &CacheKey, outcome: &Outcome, bytes: u64) {
        if bytes > MEMO_BUDGET / 4 {
            return;
        }
        let mut entry = Entry {
            canon: key.canon.clone(),
            outcome: outcome.clone(),
            bytes,
            used: 0,
        };
        let Ok(mut kept) = self.0.lock() else {
            return;
        };
        kept.clock += 1;
        entry.used = kept.clock;
        if let Some(old) = kept.entries.insert(key.hash, entry) {
            kept.bytes -= old.bytes;
        }
        kept.bytes += bytes;
        while kept.bytes > MEMO_BUDGET {
            let oldest = kept
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(&hash, _)| hash)
                .expect("bytes over budget means an entry is kept");
            let gone = kept.entries.remove(&oldest).expect("found above");
            kept.bytes -= gone.bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::key::item_key;
    use dcn_scenarios::{builtin, compute, work_items};

    /// A key whose canon and hash are `n`'s own.
    fn key(n: u64) -> CacheKey {
        CacheKey {
            hash: n,
            canon: format!("canon {n}"),
        }
    }

    fn outcome() -> Outcome {
        let spec = builtin("theorems").unwrap();
        compute(&spec, &work_items(&spec)[..1]).remove(0).0
    }

    fn len(memo: &Memo) -> (usize, u64) {
        let kept = memo.0.lock().unwrap();
        (kept.entries.len(), kept.bytes)
    }

    #[test]
    fn a_hit_equals_the_disk_decode() {
        let dir = std::env::temp_dir().join(format!("xp-memo-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = builtin("fig6-small").unwrap();
        let items = work_items(&spec);
        let (computed, _) = compute(&spec, &items[..1]).remove(0);
        let key = item_key(&spec, &items[0]);
        let cache = ResultCache::new(&dir);
        cache.store(&key, &computed).unwrap();
        let (disk, bytes) = cache.read_back(&key).unwrap();
        assert_eq!(
            bytes,
            std::fs::metadata(dir.join(key.file_name())).unwrap().len()
        );
        let memo = Memo::default();
        assert_eq!(memo.get(&key), None);
        memo.keep(&key, &disk, bytes);
        assert_eq!(memo.get(&key), Some(disk));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_forged_key_with_the_same_hash_misses() {
        let memo = Memo::default();
        let real = key(7);
        memo.keep(&real, &outcome(), 100);
        let forged = CacheKey {
            hash: real.hash,
            canon: format!("{}x", real.canon),
        };
        assert_eq!(memo.get(&forged), None);
        assert!(memo.get(&real).is_some());
    }

    #[test]
    fn the_budget_holds_and_the_least_recently_used_goes_first() {
        let memo = Memo::default();
        let out = outcome();
        // Eight entries of this size fill the budget exactly.
        let size = MEMO_BUDGET / 8;
        for n in 0..1_000 {
            memo.keep(&key(n), &out, size);
            assert!(len(&memo).1 <= MEMO_BUDGET, "after {n}");
            // Looked up after every insertion, key 0 is never the least
            // recently used, so it outlives every other key.
            assert!(memo.get(&key(0)).is_some(), "after {n}");
        }
        assert_eq!(len(&memo), (8, MEMO_BUDGET));
        assert_eq!(memo.get(&key(992)), None);
        // These lookups leave key 0 the least recently used.
        assert!((993..1_000).all(|n| memo.get(&key(n)).is_some()));
        memo.keep(&key(1_000), &out, size);
        assert_eq!(memo.get(&key(0)), None);
        assert!((993..=1_000).all(|n| memo.get(&key(n)).is_some()));
    }

    #[test]
    fn an_entry_over_a_quarter_of_the_budget_is_never_kept() {
        let memo = Memo::default();
        memo.keep(&key(1), &outcome(), MEMO_BUDGET / 4 + 1);
        assert_eq!(memo.get(&key(1)), None);
        assert_eq!(len(&memo), (0, 0));
        memo.keep(&key(2), &outcome(), MEMO_BUDGET / 4);
        assert!(memo.get(&key(2)).is_some());
    }
}
