//! A cache written by an earlier `xp` stays readable. `tests/parent_cache/`
//! holds two entries that the `xp` which moved `KEY_FORMAT` to 3 (the
//! child of commit `545517a`; a sweep payload is one `flows` list) wrote
//! — `xp run tests/parent_cache/tiny.toml --cache-dir D` (one
//! packet-engine sweep point) and the first of `xp run theorems
//! --cache-dir D` (an analytic entry; its `canon` and file name were
//! re-keyed when `[analytic]` lost the fluid constants no builtin
//! turned, its payload bytes kept). Each must load as a hit and equal
//! what `compute` yields now, bit for bit: a reader change that misses on
//! old entries, or decodes them to something else, fails here. The sweep
//! entry `KEY_FORMAT` 2 wrote is kept in `tests/key_format_2/`, where
//! `hostile_bytes.rs` holds it to a miss.

use dcn_runner::codec::encode;
use dcn_runner::{item_key, ResultCache};
use dcn_scenarios::json::parse_json;
use dcn_scenarios::{builtin, compute, work_items, ScenarioSpec};

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/parent_cache");

/// The canonical keys the committed entries carry.
fn committed_canons() -> Vec<String> {
    let mut canons = Vec::new();
    for entry in std::fs::read_dir(DIR).expect("fixture directory") {
        let path = entry.expect("fixture entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("fixture entry reads");
            let doc = parse_json(&text).expect("fixture entry parses");
            canons.push(
                doc.field("canon", |c| c.as_str().map(str::to_string))
                    .expect("canon"),
            );
        }
    }
    canons
}

/// A canonical key's salt line (line 2) and the lines around it.
fn split_salt(canon: &str) -> (&str, Vec<&str>) {
    let mut lines: Vec<&str> = canon.lines().collect();
    let salt = if lines.len() > 1 { lines.remove(1) } else { "" };
    (salt, lines)
}

/// Why no committed entry answers `canon`: the salt line that moved,
/// or else that the rest of the key did.
fn why_missing(canon: &str) -> String {
    let (salt, rest) = split_salt(canon);
    for old in committed_canons() {
        let (old_salt, old_rest) = split_salt(&old);
        if old_rest == rest {
            return format!("the salt moved: `{old_salt}` -> `{salt}`");
        }
    }
    format!("the key moved (its salt is `{salt}`)")
}

#[test]
fn a_parent_written_cache_is_served_bit_for_bit() {
    let tiny = std::fs::read_to_string(format!("{DIR}/tiny.toml")).expect("tiny.toml");
    let specs = [
        ScenarioSpec::from_toml(&tiny).expect("tiny.toml parses"),
        builtin("theorems").expect("a builtin"),
    ];
    #[expect(
        clippy::disallowed_methods,
        reason = "GOLDEN_REGEN is the golden-regen toggle: it picks write-then-compare, never a result"
    )]
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    let cache = ResultCache::new(DIR);
    if regen {
        cache.clear().expect("clear the fixture");
    }
    for spec in &specs {
        let item = &work_items(spec)[0];
        let key = item_key(spec, item);
        let (computed, _) = compute(spec, std::slice::from_ref(item)).remove(0);
        if regen {
            cache.store(&key, &computed).expect("write the fixture");
        }
        let Some(loaded) = cache.load(&key) else {
            panic!(
                "{}: no committed entry answers its key {}: {}. Every cache written \
                 before this change now misses; if that is meant, regenerate with \
                 GOLDEN_REGEN=1 cargo test -p dcn-runner --test parent_cache",
                spec.name,
                key.file_name(),
                why_missing(&key.canon)
            );
        };
        assert_eq!(
            encode(&loaded),
            encode(&computed),
            "{}: the committed entry is served, but not as what compute yields now",
            spec.name
        );
    }
}
