//! The on-disk content-addressed result cache.
//!
//! One point outcome is one file, `.xp-cache/<fnv64-hash>.json`:
//!
//! ```json
//! {"format": 1, "canon": "<canonical key encoding>", "payload": {...}}
//! ```
//!
//! A load reads the file in one pass with `dcn_scenarios::json::Parser`:
//! `format`, then `canon` compared **byte-for-byte** against the
//! recomputed canonical encoding as it is scanned, then the payload
//! decoded in place by [`codec`] — the members in exactly this order, and
//! nothing after the closing `}`. Anything that fails to read, parse,
//! validate, or decode is a miss (the point recomputes and the entry is
//! overwritten). Writes go through a per-process temp file
//! plus atomic rename, so concurrently-running workers (or sweeps) never
//! observe half-written entries.

use crate::codec::{self, Outcome};
use crate::key::CacheKey;
use dcn_scenarios::json::Parser;
use dcn_telemetry::jstr;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Version of the cache-entry envelope (the payload encoding is pinned
/// separately through the canonical key's `key-format`).
pub const CACHE_FORMAT: u32 = 1;

/// Aggregate statistics of a cache directory (`xp cache stat`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStat {
    /// Cache entry files.
    pub entries: usize,
    /// Total bytes across entries.
    pub bytes: u64,
}

/// [`CacheStat`] plus a per-engine entry breakdown, classified by each
/// entry's canonical-key salt line (`xp cache stat --json`, and the
/// serve daemon's `GET /cache`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStatDetail {
    /// The cache directory surveyed (as given, `/`-separated).
    pub dir: String,
    /// Entry count and total bytes.
    pub stat: CacheStat,
    /// Entries salted by the packet engine (`engine-version=`).
    pub packet: usize,
    /// Entries salted by the flow engine (`flow-engine-version=`).
    pub flow: usize,
    /// Entries salted by the analytic model (`fluid-model-version=`).
    pub analytic: usize,
    /// Entries whose canonical key could not be read or classified
    /// (corrupt or foreign files — they load as misses anyway).
    pub other: usize,
}

impl CacheStatDetail {
    /// The NDJSON record, in the span-record grammar family:
    /// `{"record":"cache","dir":...,"entries":...,"bytes":...,
    /// "packet":...,"flow":...,"analytic":...,"other":...}` (one line,
    /// no trailing newline).
    pub fn to_ndjson(&self) -> String {
        format!(
            "{{\"record\":\"cache\",\"dir\":{},\"entries\":{},\"bytes\":{},\
             \"packet\":{},\"flow\":{},\"analytic\":{},\"other\":{}}}",
            jstr(&self.dir),
            self.stat.entries,
            self.stat.bytes,
            self.packet,
            self.flow,
            self.analytic,
            self.other
        )
    }
}

/// A content-addressed result cache rooted at one directory.
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// The conventional cache location, relative to the working
    /// directory.
    pub const DEFAULT_DIR: &'static str = ".xp-cache";

    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Load and validate the outcome stored under `key`. Any failure —
    /// missing file, malformed JSON, format or canonical-key mismatch,
    /// undecodable payload, a member out of place — is `None` (a miss),
    /// never an error.
    pub fn load(&self, key: &CacheKey) -> Option<Outcome> {
        self.read_back(key).map(|(outcome, _)| outcome)
    }

    /// [`ResultCache::load`], with the entry file's length in bytes (what
    /// the daemon's [`crate::memo::Memo`] charges for keeping it).
    pub(crate) fn read_back(&self, key: &CacheKey) -> Option<(Outcome, u64)> {
        let bytes = fs::read(self.dir.join(key.file_name())).ok()?;
        let mut p = Parser::new(&bytes);
        open_envelope(&mut p).ok()?;
        // Byte-for-byte key validation: a colliding or stale entry must
        // not be served.
        if !p.str_eq(&key.canon).ok()? {
            return None;
        }
        p.key("payload").ok()?;
        let outcome = codec::read(&mut p).ok()?;
        p.close_obj().ok()?;
        p.finish().ok()?;
        Some((outcome, bytes.len() as u64))
    }

    /// Persist `outcome` under `key` (atomic rename; concurrent writers
    /// of the same key race benignly — both write identical bytes).
    pub fn store(&self, key: &CacheKey, outcome: &Outcome) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let body = format!(
            "{{\"format\": {CACHE_FORMAT}, \"canon\": {}, \"payload\": {}}}\n",
            jstr(&key.canon),
            codec::encode(outcome)
        );
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", key.file_name(), std::process::id()));
        fs::write(&tmp, body)?;
        fs::rename(tmp, self.dir.join(key.file_name()))
    }

    /// Entry count and total size.
    pub fn stat(&self) -> CacheStat {
        let mut stat = CacheStat::default();
        for path in self.entry_paths() {
            stat.entries += 1;
            stat.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        stat
    }

    /// [`ResultCache::stat`] plus the per-engine breakdown: each entry's
    /// canonical key is read back and classified by its salt line (line
    /// 2 of the canon — see `crates/runner/src/key.rs`).
    pub fn stat_detailed(&self) -> CacheStatDetail {
        let mut detail = CacheStatDetail {
            dir: self.dir.display().to_string().replace('\\', "/"),
            ..CacheStatDetail::default()
        };
        for path in self.entry_paths() {
            detail.stat.entries += 1;
            detail.stat.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            match Self::entry_salt(&path).as_deref() {
                // `engine-version=` is a suffix of `flow-engine-version=`;
                // match the longer salts first.
                Some(s) if s.starts_with("flow-engine-version=") => detail.flow += 1,
                Some(s) if s.starts_with("fluid-model-version=") => detail.analytic += 1,
                Some(s) if s.starts_with("engine-version=") => detail.packet += 1,
                _ => detail.other += 1,
            }
        }
        detail
    }

    /// Delete every cache entry (plus any `*.json.tmp.*` files orphaned
    /// by a writer that crashed before its atomic rename); returns how
    /// many entries were removed.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        for path in self.entry_paths() {
            fs::remove_file(path)?;
            removed += 1;
        }
        if let Ok(dir) = fs::read_dir(&self.dir) {
            for entry in dir.filter_map(|e| e.ok()) {
                let path = entry.path();
                if path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.contains(".json.tmp."))
                {
                    fs::remove_file(path)?;
                }
            }
        }
        Ok(removed)
    }

    /// The salt line (line 2 of the canonical key) of the entry at
    /// `path`; `None` when the file cannot be read or its envelope is
    /// malformed up to and including `canon` (the payload is not read).
    fn entry_salt(path: &Path) -> Option<String> {
        let bytes = fs::read(path).ok()?;
        let mut p = Parser::new(&bytes);
        open_envelope(&mut p).ok()?;
        let canon = p.str().ok()?;
        canon.lines().nth(1).map(str::to_string)
    }

    /// All `<16-hex>.json` entry files, sorted for deterministic output.
    fn entry_paths(&self) -> Vec<PathBuf> {
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = dir
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                    n.len() == 16 + 5
                        && n.ends_with(".json")
                        && n[..16].bytes().all(|b| b.is_ascii_hexdigit())
                })
            })
            .collect();
        paths.sort();
        paths
    }
}

/// An entry's envelope up to its canonical key: `{`, `"format"` equal to
/// [`CACHE_FORMAT`], then `"canon":`, leaving `p` at the key's string.
fn open_envelope(p: &mut Parser) -> Result<(), String> {
    p.open_obj()?;
    if p.field("format", Parser::u64)? != u64::from(CACHE_FORMAT) {
        return Err("another cache format".into());
    }
    p.key("canon")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::point_key;
    use dcn_scenarios::{builtin, run_sweep_point_observed, sweep_points};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xp-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (CacheKey, Outcome) {
        let spec = builtin("fig6-small").unwrap();
        let p = sweep_points(&spec)[0];
        let (out, _) = run_sweep_point_observed(&spec, &p);
        (point_key(&spec, &p), Outcome::Sweep(Box::new(out)))
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("roundtrip");
        let cache = ResultCache::new(&dir);
        let (key, out) = sample();
        assert!(cache.load(&key).is_none(), "cold cache must miss");
        cache.store(&key, &out).unwrap();
        assert_eq!(cache.load(&key), Some(out));
        let stat = cache.stat();
        assert_eq!(stat.entries, 1);
        assert!(stat.bytes > 0);
        // An orphaned temp file (crashed writer) is swept by clear().
        let orphan = dir.join(format!("{}.tmp.999", key.file_name()));
        fs::write(&orphan, "half-written").unwrap();
        assert_eq!(cache.clear().unwrap(), 1);
        assert!(!orphan.exists(), "clear must sweep orphaned temp files");
        assert!(cache.load(&key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_entries_miss() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::new(&dir);
        let (key, out) = sample();
        cache.store(&key, &out).unwrap();
        let path = dir.join(key.file_name());

        // Truncated file: unparseable, must miss.
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none());

        // Valid JSON with the wrong canonical key (a simulated hash
        // collision / stale-format entry): must miss.
        let foreign = full.replace("kind=sweep", "kind=sweep-other");
        assert_ne!(foreign, full);
        fs::write(&path, foreign).unwrap();
        assert!(cache.load(&key).is_none());

        // Restoring the real bytes hits again.
        fs::write(&path, full).unwrap();
        assert_eq!(cache.load(&key), Some(out));
        let _ = fs::remove_dir_all(&dir);
    }
}
