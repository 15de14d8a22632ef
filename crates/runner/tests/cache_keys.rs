//! Every work item's cache key, pinned by hash: the key canon's point
//! half (`kind=`, `label=`, `algo=`, `prebuffer-ps=`, `seed=`) has no
//! other byte pin, and a moved hash orphans a `.xp-cache` on disk.

#[path = "../../scenarios/tests/support/mod.rs"]
mod support;

use dcn_runner::{fnv1a64, item_key, SpecKeys};
use dcn_scenarios::{work_items, ScenarioSpec};
use proptest::prelude::*;

/// `name index hash` for every work item of every builtin and of the
/// shapes no builtin has, derived as a run derives them: one
/// [`SpecKeys`] per spec (the `CachingSource` path), each key equal to
/// the one-call [`item_key`], and each hash, continued from the spec
/// preamble's, equal to FNV-1a over the whole canon. The file was
/// generated at the commit before the scenario kinds came to own their
/// fields; regenerate deliberately (a `KEY_FORMAT` or `*_VERSION` bump)
/// with `GOLDEN_REGEN=1 cargo test -p dcn-runner --test cache_keys`.
#[test]
fn every_work_item_key_is_pinned() {
    const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/cache_keys.golden");
    let mut text = String::new();
    for spec in support::corpus() {
        let keys = SpecKeys::new(&spec);
        for item in work_items(&spec) {
            let key = keys.item(&item);
            assert_eq!(
                key,
                item_key(&spec, &item),
                "{} {}",
                spec.name,
                item.index()
            );
            assert_eq!(
                key.hash,
                fnv1a64(key.canon.as_bytes()),
                "{} {}",
                spec.name,
                item.index()
            );
            text.push_str(&format!(
                "{} {} {:016x}\n",
                spec.name,
                item.index(),
                key.hash
            ));
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "GOLDEN_REGEN is the golden-regen toggle: it picks write-then-compare, never a result"
    )]
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    if regen {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        text, want,
        "a work item's cache key moved: every cache written before this change misses"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The runner's half of `spec_roundtrip.rs`'s never-panic property:
    /// whatever the reader still accepts after up to three hostile edits
    /// expands to work items, and the first has a key.
    #[test]
    fn an_accepted_spec_always_has_a_first_key(
        which in 0usize..64,
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
    ) {
        let specs = support::corpus();
        let mut text = specs[which % specs.len()].to_toml();
        for (a, b, c) in edits {
            text = support::mutate(&text, &[a, b, c]);
            let Ok(spec) = ScenarioSpec::from_toml(&text) else {
                break;
            };
            let items = work_items(&spec);
            let key = item_key(&spec, &items[0]);
            prop_assert_eq!(key.hash, fnv1a64(key.canon.as_bytes()), "{}", text);
        }
    }
}
