//! No input breaks the readers: arbitrary bytes and hostile edits of
//! valid documents end as `Err` / a cache miss, never as a panic, a stack
//! overflow, or a silently different number.
//!
//! Six readers take bytes from outside the process — `parse_json` (`xp
//! diff` operands, and under everything below), `codec::decode_str`
//! (cache payloads, worker outcomes), `worker::parse_result_line` (a
//! child's stdout), `worker::parse_manifest` (a worker's stdin),
//! `ResultCache::load` (files anyone can overwrite) and
//! `dcn_serve::http::parse_request` (a socket anyone can connect to).
//! Each gets the same two generators: raw and JSON-shaped noise, and up
//! to three [`mutate`] edits of a document the matching writer produced.

use dcn_runner::codec::{decode_str, encode, Outcome};
use dcn_runner::worker::{manifest_json, parse_manifest, parse_result_line, result_line};
use dcn_runner::{entry_key, run, ResultCache, RunConfig};
use dcn_scenarios::diff::parse_json;
use dcn_scenarios::{
    builtin, compute, diff_reports, work_items, Algo, ParamSpec, PointOutcome, SIZE_BUCKETS,
};
use dcn_serve::http::{parse_request, MAX_HEAD};
use proptest::prelude::*;
use std::path::PathBuf;

/// 200 000 unclosed brackets: 400 KB that used to overflow the parser's
/// stack (SIGABRT — no `Err`, nothing `catch_unwind` can catch).
fn deep() -> String {
    "[".repeat(200_000)
}

/// One hostile edit of a valid document, drawn from `r`: a bit flipped,
/// the tail cut off, a byte overwritten with punctuation, an integer
/// swapped for one no range check should let through, a slice doubled,
/// or a deep nest spliced in.
fn mutate(text: &str, r: (u64, u64, u64)) -> String {
    const NUMBERS: [&str; 6] = [
        "-1",
        "18446744073709551616", // 2^64: wraps to 0 under `as usize`
        "340282366920938463463374607431768211456", // 2^128: past i128
        "1e999",
        "0.5",
        "null",
    ];
    let mut bytes = text.as_bytes().to_vec();
    let at = (r.1 as usize) % bytes.len().max(1);
    match r.0 % 6 {
        0 => bytes[at] ^= 1 << (r.2 % 8),
        1 => bytes.truncate(at),
        2 => bytes[at] = b"[]{}\",:\\"[(r.2 as usize) % 8],
        3 => {
            // The first integer token at or after `at`.
            let start = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit());
            if let Some(start) = start {
                let end = (start..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                let number = NUMBERS[(r.2 as usize) % NUMBERS.len()];
                bytes.splice(start..end, number.bytes());
            }
        }
        4 => {
            let end = (at + (r.2 as usize) % 64).min(bytes.len());
            let chunk = bytes[at..end].to_vec();
            bytes.splice(at..at, chunk);
        }
        _ => {
            bytes.splice(at..at, deep().into_bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Noise over the alphabet JSON is made of.
fn shaped(indices: &[usize]) -> String {
    const ALPHABET: &[u8] = b"[]{}\":,.-+eE0123456789 tfnalsru\\\n";
    indices
        .iter()
        .map(|&i| ALPHABET[i % ALPHABET.len()] as char)
        .collect()
}

/// A small sweep outcome (built by hand: no simulation needed to have
/// every field populated, infinities and signed zero included — a NaN
/// sample is refused, see [`a_nan_sample_is_refused_by_both_outcome_readers`]).
fn sweep_outcome() -> Outcome {
    let mut buckets = vec![Vec::new(); SIZE_BUCKETS.len()];
    buckets[0] = vec![1.25, 2.5];
    Outcome::Sweep(Box::new(PointOutcome {
        algo: Algo::Homa(3),
        param: ParamSpec::parse("gamma=0.5").unwrap(),
        load: 0.6,
        seed: 42,
        buckets,
        short: vec![1.25, 2.5],
        medium: vec![f64::NEG_INFINITY],
        long: vec![-0.0, f64::INFINITY],
        all: vec![1.25, 2.5, 7.0],
        buffer: vec![0.0, 54_000.0],
        completed: 3,
        offered: 4,
        drops: 1,
    }))
}

/// A real trace outcome: the first `theorems` entry (analytic, instant).
fn trace_outcome() -> Outcome {
    let spec = builtin("theorems").unwrap();
    compute(&spec, &work_items(&spec)[0]).0
}

/// Valid documents of every shape the readers meet.
fn documents() -> Vec<String> {
    let spec = builtin("theorems").unwrap();
    let report = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../scenarios/tests/fig6_small_baseline.json"
    );
    vec![
        std::fs::read_to_string(report).expect("committed baseline"),
        encode(&sweep_outcome()),
        encode(&trace_outcome()),
        result_line(2, false, 12.345, None, &sweep_outcome()),
        result_line(0, true, 0.0, None, &trace_outcome()),
        manifest_json(&spec.to_toml(), &[0, 2], Some(".xp-cache".as_ref()), 1, 2),
        manifest_json(&spec.to_toml(), &[1], None, 0, 1),
    ]
}

/// What each reader returning `Ok` promises, checked on any text.
fn assert_sound(text: &str) {
    if parse_json(text).is_ok() {
        let same = diff_reports(text, text, 0.0).expect("parsed once, parses twice");
        assert!(same.is_match(), "a document differs from itself: {text}");
    }
    if let Ok(outcome) = decode_str(text) {
        // Floats travel as bit patterns: NaN != NaN, so compare encodings.
        let again = decode_str(&encode(&outcome)).expect("own encoding decodes");
        assert_eq!(encode(&again), encode(&outcome), "{text}");
    }
    if let Ok(r) = parse_result_line(text) {
        let line = result_line(r.index, r.cached, r.wall_ms, r.sim.as_ref(), &r.outcome);
        let back = parse_result_line(&line).expect("own rendering parses");
        assert_eq!((back.index, back.cached), (r.index, r.cached), "{text}");
    }
    if let Ok(m) = parse_manifest(text) {
        assert_eq!(m.spec.validate(), Ok(()), "{text}");
    }
}

/// What `parse_request` promises on any bytes: it returns; a request it
/// accepts ends exactly where its declared body does, so nothing after
/// it is consumed; a refusal is a 400 or a 413 and, once the head is
/// complete, reads past it only to find the declared body cut short. A
/// head that does not end within the cap is given up on at the cap.
fn assert_http_sound(bytes: &[u8]) {
    let mut input = std::io::Cursor::new(bytes);
    let result = parse_request(&mut input);
    let read = input.position() as usize;
    let capped = &bytes[..bytes.len().min(MAX_HEAD + 1)];
    let head_end = capped.windows(4).position(|w| w == b"\r\n\r\n");
    match (result, head_end.map(|at| at + 4)) {
        (Ok(req), Some(head)) => assert_eq!(read, head + req.body.len()),
        (Ok(_), None) => panic!("accepted a request with no head terminator"),
        (Err((status, why)), head) => {
            assert!(matches!(status, 400 | 413), "{status}: {why}");
            let cut_short = read == bytes.len() && why.starts_with("short body");
            let expected = head.unwrap_or(capped.len());
            assert!(read == expected || (head.is_some() && cut_short), "{why}");
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn arbitrary_bytes_never_panic_a_reader(
        bytes in prop::collection::vec(0u8..=255, 0usize..200),
        indices in prop::collection::vec(0usize..64, 0usize..160),
    ) {
        assert_sound(&String::from_utf8_lossy(&bytes));
        assert_sound(&shaped(&indices));
        assert_http_sound(&bytes);
    }

    /// A `POST /jobs` as `dcn_serve::client` frames it, with bytes after
    /// its body that a sound parse must leave unread.
    #[test]
    fn mutated_requests_never_panic_parse_request(
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
    ) {
        let body = builtin("fig6-small").unwrap().to_toml();
        let mut text = format!(
            "POST /jobs?pretty=1 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}GET / HTTP/1.1\r\n\r\n",
            body.len()
        );
        assert_http_sound(text.as_bytes());
        for edit in edits {
            text = mutate(&text, edit);
            assert_http_sound(text.as_bytes());
        }
    }

    #[test]
    fn mutated_json_documents_never_panic_parse_json(
        which in 0usize..64,
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
    ) {
        let docs = documents();
        let mut text = docs[which % docs.len()].clone();
        for edit in edits {
            text = mutate(&text, edit);
            let _ = parse_json(&text);
        }
    }

    #[test]
    fn mutated_outcomes_never_panic_decode_str(
        trace in 0usize..2,
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
    ) {
        let mut text = encode(&if trace == 1 { trace_outcome() } else { sweep_outcome() });
        for edit in edits {
            text = mutate(&text, edit);
            assert_sound(&text);
        }
    }

    #[test]
    fn mutated_worker_lines_never_panic_parse_result_line(
        trace in 0usize..2,
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
    ) {
        let outcome = if trace == 1 { trace_outcome() } else { sweep_outcome() };
        let mut text = result_line(1, trace == 1, 3.5, None, &outcome);
        for edit in edits {
            text = mutate(&text, edit);
            assert_sound(&text);
        }
    }

    #[test]
    fn mutated_manifests_never_panic_parse_manifest(
        cached in 0usize..2,
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
    ) {
        let toml = builtin("fig6-small").unwrap().to_toml();
        let dir = (cached == 1).then_some(".xp-cache".as_ref());
        let mut text = manifest_json(&toml, &[0, 1], dir, 0, 2);
        for edit in edits {
            text = mutate(&text, edit);
            assert_sound(&text);
        }
    }

    /// A damaged entry is a miss or, at worst, still the entry: an edit
    /// of the envelope (`format`, `canon`) can never make `load` serve a
    /// *different* outcome, and nothing makes it panic. (An edit inside
    /// the payload's digits that leaves a valid encoding is served as
    /// written — the envelope carries no checksum; see ROADMAP 2a.)
    #[test]
    fn damaged_cache_entries_miss_and_never_panic(
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
        cut in 0u64..u64::MAX,
    ) {
        let spec = builtin("theorems").unwrap();
        let dir = scratch("load");
        let cache = ResultCache::new(&dir);
        let dcn_scenarios::WorkItem::Entry(entry) = &work_items(&spec)[0] else {
            panic!("theorems expands to entries");
        };
        let key = entry_key(&spec, entry);
        let good = trace_outcome();
        cache.store(&key, &good).unwrap();
        let path = dir.join(key.file_name());
        let full = std::fs::read_to_string(&path).unwrap();
        let envelope = full.find("\"payload\"").expect("envelope precedes the payload");

        // Truncated anywhere inside the document: a miss.
        let keep = (cut as usize) % (full.len() - 2);
        std::fs::write(&path, &full.as_bytes()[..keep]).unwrap();
        assert_eq!(cache.load(&key), None, "cut at {keep}");
        // Overwritten with the deep nest: a miss, not an abort.
        std::fs::write(&path, deep()).unwrap();
        assert_eq!(cache.load(&key), None);
        // Hostile edits of the envelope alone, then of anything.
        let mut head = full[..envelope].to_string();
        let mut text = full.clone();
        for edit in edits {
            head = mutate(&head, edit);
            std::fs::write(&path, format!("{head}{}", &full[envelope..])).unwrap();
            let loaded = cache.load(&key);
            assert!(loaded.is_none() || loaded.as_ref() == Some(&good), "{head}");
            text = mutate(&text, edit);
            std::fs::write(&path, &text).unwrap();
            let _ = cache.load(&key);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The report sorts every sweep sample vector and NaN has no rank, so a
/// NaN that reaches decoding — from a cache file or a worker's stdout —
/// is an `Err` there: a miss, or the in-process fallback.
#[test]
fn a_nan_sample_is_refused_by_both_outcome_readers() {
    let good = sweep_outcome();
    let Outcome::Sweep(o) = &good else {
        unreachable!()
    };
    assert!(decode_str(&encode(&good)).is_ok());
    let mut bad = o.clone();
    bad.medium = vec![f64::NAN];
    let bad = Outcome::Sweep(bad);
    assert!(decode_str(&encode(&bad)).is_err());
    assert!(parse_result_line(&result_line(0, true, 1.0, None, &bad)).is_err());
}

/// A NaN written into one sample of one warm entry used to abort `xp run`
/// in the percentile sort (exit 101). Now the entry misses, the point is
/// recomputed to the uncached bytes, and the rewrite heals the cache.
#[test]
fn a_nan_poisoned_cache_entry_is_recomputed_through_the_cli() {
    let dir = scratch("nan");
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let xp = |tag: &str, cached: bool| {
        let json = dir.join(format!("{tag}.json"));
        let meta = dir.join(format!("{tag}.meta.json"));
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_xp"));
        cmd.args(["run", "fig6-small", "--json", json.to_str().unwrap()]);
        cmd.args(["--meta", meta.to_str().unwrap()]);
        if cached {
            cmd.args(["--cache-dir", cache.to_str().unwrap()]);
        }
        let out = cmd.output().expect("spawn xp");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let meta = std::fs::read_to_string(meta).unwrap();
        let counts = ["hits", "misses"].map(|what| {
            let key = format!("\"cache_{what}\": ");
            let at = meta.find(&key).expect("meta counts the cache") + key.len();
            let digits = meta[at..].bytes().take_while(u8::is_ascii_digit).count();
            meta[at..at + digits].parse::<u64>().unwrap()
        });
        (std::fs::read_to_string(json).unwrap(), counts)
    };
    let (plain, _) = xp("plain", false);
    let (cold, counts) = xp("cold", true);
    assert_eq!((cold == plain, counts), (true, [0, 2]));

    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    let text = std::fs::read_to_string(&entries[0]).unwrap();
    let at = text.find("\"all\":[").expect("a sweep payload") + "\"all\":[".len();
    let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
    assert!(digits > 0, "the point completed flows");
    let nan = f64::NAN.to_bits().to_string();
    std::fs::write(
        &entries[0],
        format!("{}{nan}{}", &text[..at], &text[at + digits..]),
    )
    .unwrap();

    let (poisoned, counts) = xp("poisoned", true);
    assert_eq!((poisoned == plain, counts), (true, [1, 1]));
    assert_eq!(
        std::fs::read_to_string(&entries[0]).unwrap(),
        text,
        "healed"
    );
    let (healed, counts) = xp("healed", true);
    assert_eq!((healed == plain, counts), (true, [2, 0]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance shape, end to end: every entry of a warm cache damaged
/// a different way (deep nest, truncation, a flipped bit in the key), and
/// the run that follows recomputes to the uncached bytes and heals the
/// cache.
#[test]
fn a_run_over_a_damaged_cache_is_byte_identical_to_an_uncached_run() {
    let spec = builtin("theorems").unwrap();
    let dir = scratch("run");
    let cfg = RunConfig {
        cache_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let (plain, _) = run(&spec, &RunConfig::default()).unwrap();
    let (cold, _) = run(&spec, &cfg).unwrap();
    assert_eq!(cold.to_json(), plain.to_json());

    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 3);
    let text = |p: &PathBuf| std::fs::read_to_string(p).unwrap();
    std::fs::write(&entries[0], deep()).unwrap();
    let cut = text(&entries[1]);
    std::fs::write(&entries[1], &cut[..cut.len() / 2]).unwrap();
    let flipped = text(&entries[2]).replacen("kind=analytic", "kind=analytik", 1);
    assert_ne!(flipped, text(&entries[2]));
    std::fs::write(&entries[2], flipped).unwrap();

    let (redone, stats) = run(&spec, &cfg).unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 3));
    assert_eq!(redone.to_json(), plain.to_json());
    assert_eq!(redone.to_csv(), plain.to_csv());
    let (_, healed) = run(&spec, &cfg).unwrap();
    assert_eq!((healed.cache_hits, healed.cache_misses), (3, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
