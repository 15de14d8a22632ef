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
use dcn_runner::{item_key, run, ResultCache, RunConfig};
use dcn_scenarios::json::parse_json;
use dcn_scenarios::{builtin, compute, diff_reports, work_items, Algo, ParamSpec, PointOutcome};
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
    Outcome::Sweep(Box::new(PointOutcome {
        algo: Algo::Homa(3),
        param: ParamSpec::parse("gamma=0.5").unwrap(),
        load: 0.6,
        seed: 42,
        flows: vec![
            (1_000, 1.25),
            (4_000, 2.5),
            (200_000, f64::NEG_INFINITY),
            (2_000_000, -0.0),
            (30_000_001, f64::INFINITY),
            (50_000, 7.0),
        ],
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
        let key = item_key(&spec, &work_items(&spec)[0]);
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
    bad.flows[2].1 = f64::NAN;
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
    // The slowdown of the first flow: past `"flows":[[`, its size and `,`.
    let flows = text.find("\"flows\":[[").expect("a sweep payload") + "\"flows\":[[".len();
    let at = flows + text[flows..].find(',').expect("a [size,slowdown] pair") + 1;
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

// ---------------------------------------------------------------------
// The pull decode is never more accepting than the tree decode it
// replaced, and a worker line cannot put a non-number into the stream.
// ---------------------------------------------------------------------

use dcn_runner::worker::WorkerResult;
use dcn_runner::{CacheKey, CACHE_FORMAT};
use dcn_scenarios::json::Json;
use dcn_scenarios::sim_stats_from_json;
use dcn_telemetry::{ChannelTrace, Sample, TraceEntry};

/// The oracle: the tree decode as it stood before the pull reader —
/// parse the whole document, then look each member up — reading the
/// sweep payload's members as `encode` writes them now.
mod tree {
    use super::*;

    fn float_bits(j: &Json) -> Option<f64> {
        j.as_u64().map(f64::from_bits)
    }

    fn sample(j: &Json) -> Option<f64> {
        float_bits(j).filter(|x| !x.is_nan())
    }

    fn sample_vec(j: &Json) -> Option<Vec<f64>> {
        j.as_arr()?.iter().map(sample).collect()
    }

    fn pair<'a, A, B>(
        first: impl Fn(&'a Json) -> Option<A>,
        second: impl Fn(&'a Json) -> Option<B>,
    ) -> impl Fn(&'a Json) -> Option<(A, B)> {
        move |j| match j.as_arr()? {
            [a, b] => Some((first(a)?, second(b)?)),
            _ => None,
        }
    }

    pub fn decode(j: &Json) -> Result<Outcome, String> {
        let text = |j: &Json, key| j.field(key, Json::as_str).map(str::to_string);
        match j.field("kind", Json::as_str)? {
            "sweep" => Ok(Outcome::Sweep(Box::new(PointOutcome {
                algo: Algo::parse(j.field("algo", Json::as_str)?)?,
                param: dcn_scenarios::ParamSpec::parse(j.field("param", Json::as_str)?)?,
                load: j.field("load", float_bits)?,
                seed: j.field("seed", Json::as_u64)?,
                flows: j.field("flows", |f| {
                    f.as_arr()?.iter().map(pair(Json::as_u64, sample)).collect()
                })?,
                buffer: j.field("buffer", sample_vec)?,
                completed: j.field("completed", Json::as_usize)?,
                offered: j.field("offered", Json::as_usize)?,
                drops: j.field("drops", Json::as_u64)?,
            }))),
            "trace" => {
                let stat = pair(|k| k.as_str().map(str::to_string), float_bits);
                let sample = pair(float_bits, float_bits);
                let channels = j
                    .field("channels", Json::as_arr)?
                    .iter()
                    .map(|c| {
                        Ok(ChannelTrace {
                            name: text(c, "name")?,
                            unit: text(c, "unit")?,
                            x_unit: text(c, "x_unit")?,
                            total_samples: c.field("total_samples", Json::as_u64)?,
                            evicted: c.field("evicted", Json::as_u64)?,
                            samples: c.field("samples", |s| {
                                let xy = s.as_arr()?.iter().map(&sample);
                                xy.map(|p| p.map(|(x, y)| Sample { x, y })).collect()
                            })?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Outcome::Trace(Box::new(TraceEntry {
                    label: text(j, "label")?,
                    stats: j.field("stats", |s| s.as_arr()?.iter().map(&stat).collect())?,
                    channels,
                })))
            }
            other => Err(format!("unknown outcome kind {other:?}")),
        }
    }

    pub fn decode_str(s: &str) -> Result<Outcome, String> {
        decode(&parse_json(s)?)
    }

    pub fn parse_result_line(line: &str) -> Result<WorkerResult, String> {
        let r = parse_json(line.trim())?;
        let sim = match r.field("sim", Some)? {
            Json::Null => None,
            j => Some(sim_stats_from_json(j).ok_or("sim must be a stats object or null")?),
        };
        Ok(WorkerResult {
            index: r.field("index", Json::as_usize)?,
            cached: r.field("cached", Json::as_bool)?,
            wall_ms: r.field("wall_ms", Json::as_f64)?,
            sim,
            outcome: decode(r.field("outcome", Some)?)?,
        })
    }

    /// `ResultCache::load` on a file holding `text`.
    pub fn load(text: &str, key: &CacheKey) -> Option<Outcome> {
        let entry = parse_json(text).ok()?;
        if entry.get("format")?.as_u64()? != u64::from(CACHE_FORMAT) {
            return None;
        }
        if entry.get("canon")?.as_str()? != key.canon {
            return None;
        }
        decode(entry.get("payload")?).ok()
    }
}

/// Characters a label may need escaped (`"`, `\`, controls as `\u00XX`),
/// plus plain and multi-byte ones.
const LABEL_CHARS: &[char] = &[
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '🦀',
];

fn label(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| LABEL_CHARS[i % LABEL_CHARS.len()])
        .collect()
}

/// A float drawn to hit the bit patterns a decimal reader would lose:
/// ±inf, ±0, NaN payloads (where the codec lets NaN through) and raw bits.
fn float((pick, bits): (usize, u64), nan_ok: bool) -> f64 {
    match pick % 8 {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => -0.0,
        3 => 0.0,
        4 => 1.25,
        5 if nan_ok => f64::from_bits(0x7ff8_0000_0000_0000 | bits >> 13),
        _ => Some(f64::from_bits(bits))
            .filter(|x| !x.is_nan())
            .unwrap_or(0.5),
    }
}

type FloatDraw = (usize, u64);
type SweepDraw = (
    (usize, usize, FloatDraw, u64),
    (Vec<(u64, FloatDraw)>, Vec<FloatDraw>),
    (usize, usize, u64),
);
type ChannelDraw = (
    (Vec<usize>, Vec<usize>, Vec<usize>),
    (u64, u64),
    Vec<(FloatDraw, FloatDraw)>,
);
type TraceDraw = (Vec<usize>, Vec<(Vec<usize>, FloatDraw)>, Vec<ChannelDraw>);

fn float_draw() -> impl Strategy<Value = FloatDraw> {
    (0usize..8, 0u64..u64::MAX)
}

fn label_draw() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, 0usize..6)
}

/// 0–12 `(size, slowdown)` flows and 0–5 buffer samples.
fn sweep_draw() -> impl Strategy<Value = SweepDraw> {
    (
        (
            0usize..Algo::all().len(),
            0usize..3,
            float_draw(),
            0u64..u64::MAX,
        ),
        (
            prop::collection::vec((0u64..u64::MAX, float_draw()), 0usize..13),
            prop::collection::vec(float_draw(), 0usize..6),
        ),
        (0usize..usize::MAX, 0usize..1000, 0u64..u64::MAX),
    )
}

fn trace_draw() -> impl Strategy<Value = TraceDraw> {
    let channel = (
        (label_draw(), label_draw(), label_draw()),
        (0u64..u64::MAX, 0u64..u64::MAX),
        prop::collection::vec((float_draw(), float_draw()), 0usize..5),
    );
    (
        label_draw(),
        prop::collection::vec((label_draw(), float_draw()), 0usize..4),
        prop::collection::vec(channel, 0usize..3),
    )
}

fn sweep_of(
    ((algo, param, load, seed), (flows, buffer), (completed, offered, drops)): SweepDraw,
) -> Outcome {
    Outcome::Sweep(Box::new(PointOutcome {
        algo: Algo::all()[algo],
        param: ParamSpec::parse(["", "gamma=0.5", "gamma=0.25"][param])
            .expect("a valid param label"),
        load: float(load, true),
        seed,
        flows: (flows.into_iter())
            .map(|(size, s)| (size, float(s, false)))
            .collect(),
        buffer: buffer.into_iter().map(|d| float(d, false)).collect(),
        completed,
        offered,
        drops,
    }))
}

fn trace_of((name, stats, channels): TraceDraw) -> Outcome {
    Outcome::Trace(Box::new(TraceEntry {
        label: label(&name),
        stats: stats
            .into_iter()
            .map(|(k, v)| (label(&k), float(v, true)))
            .collect(),
        channels: channels
            .into_iter()
            .map(
                |((name, unit, x_unit), (total_samples, evicted), samples)| ChannelTrace {
                    name: label(&name),
                    unit: label(&unit),
                    x_unit: label(&x_unit),
                    total_samples,
                    evicted,
                    samples: samples
                        .into_iter()
                        .map(|(x, y)| Sample {
                            x: float(x, true),
                            y: float(y, true),
                        })
                        .collect(),
                },
            )
            .collect(),
    }))
}

/// Whatever the new reader accepts, the tree oracle accepts as the same
/// outcome (compared through `encode`, which writes every float's bits).
fn assert_no_more_accepting(text: &str, key: &CacheKey, dir: &std::path::Path) {
    if let Ok(new) = decode_str(text) {
        let old = tree::decode_str(text).expect("the tree decode accepts it too");
        assert_eq!(encode(&new), encode(&old), "{text}");
    }
    if let Ok(new) = parse_result_line(text) {
        let old = tree::parse_result_line(text).expect("the tree reader accepts it too");
        let render = |r: &WorkerResult| {
            result_line(r.index, r.cached, r.wall_ms, r.sim.as_ref(), &r.outcome)
        };
        assert_eq!(render(&new), render(&old), "{text}");
    }
    std::fs::write(dir.join(key.file_name()), text).unwrap();
    if let Some(new) = ResultCache::new(dir).load(key) {
        let old = tree::load(text, key).expect("the tree load hits too");
        assert_eq!(encode(&new), encode(&old), "{text}");
    }
}

fn theorems_key() -> CacheKey {
    let spec = builtin("theorems").unwrap();
    item_key(&spec, &work_items(&spec)[0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Random outcomes: the pull decode and the tree oracle both return
    /// exactly what was encoded.
    #[test]
    fn pull_and_tree_decodes_agree_to_the_bit(
        sweep in sweep_draw(),
        trace in trace_draw(),
    ) {
        for outcome in [sweep_of(sweep), trace_of(trace)] {
            let text = encode(&outcome);
            let new = decode_str(&text).expect("own encoding decodes");
            let old = tree::decode_str(&text).expect("the oracle decodes it");
            prop_assert_eq!(encode(&new), text.clone());
            prop_assert_eq!(encode(&old), text);
        }
    }

    /// Up to three hostile edits of an encoding, a worker line or a cache
    /// entry: the pull readers never accept what the tree readers refuse,
    /// nor read it differently.
    #[test]
    fn mutated_documents_are_never_accepted_beyond_the_tree_oracle(
        sweep in sweep_draw(),
        trace in trace_draw(),
        shape in 0usize..6,
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
    ) {
        let outcome = if shape % 2 == 0 { sweep_of(sweep) } else { trace_of(trace) };
        let key = theorems_key();
        let dir = scratch("oracle");
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = match shape / 2 {
            0 => encode(&outcome),
            1 => result_line(3, shape == 3, 1.5, None, &outcome),
            _ => {
                ResultCache::new(&dir).store(&key, &outcome).unwrap();
                std::fs::read_to_string(dir.join(key.file_name())).unwrap()
            }
        };
        assert_no_more_accepting(&text, &key, &dir);
        for edit in edits {
            if text.is_empty() {
                break; // `mutate` needs a byte to edit
            }
            text = mutate(&text, edit);
            assert_no_more_accepting(&text, &key, &dir);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The tree reader looked members up by name; the pull reader reads them
/// where `encode` and `store` write them. A member moved, repeated or
/// added, and bytes after the envelope, are each a refusal — a miss.
#[test]
fn a_member_out_of_place_is_a_miss() {
    let good = encode(&sweep_outcome());
    let payload = [
        (
            "reordered",
            good.replacen(
                "\"algo\":\"homa:3\",\"param\":\"gamma=0.5\"",
                "\"param\":\"gamma=0.5\",\"algo\":\"homa:3\"",
                1,
            ),
        ),
        (
            "duplicated",
            good.replacen("\"seed\":42,", "\"seed\":42,\"seed\":42,", 1),
        ),
        (
            "unknown",
            good.replacen("\"seed\":42,", "\"seed\":42,\"note\":0,", 1),
        ),
        ("trailing", format!("{good} {{}}")),
    ];
    for (case, text) in &payload {
        assert_ne!(text, &good, "{case}");
        assert!(decode_str(text).is_err(), "{case}");
    }
    // The tree reader took the first three as the same outcome.
    for (case, text) in &payload[..3] {
        assert!(tree::decode_str(text).is_ok(), "{case}");
    }

    let key = theorems_key();
    let dir = scratch("members");
    let cache = ResultCache::new(&dir);
    cache.store(&key, &trace_outcome()).unwrap();
    let path = dir.join(key.file_name());
    let full = std::fs::read_to_string(&path).unwrap();
    let (head, payload) = full.split_at(full.find(", \"payload\"").unwrap());
    let (format, canon) = head.split_at(head.find(", \"canon\"").unwrap());
    let format = format.trim_start_matches('{');
    let canon = canon.trim_start_matches(", ");
    let envelope = [
        ("reordered", format!("{{{canon}, {format}{payload}")),
        (
            "duplicated",
            format!("{{{format}, {format}, {canon}{payload}"),
        ),
        (
            "unknown",
            format!("{{{format}, \"note\": 0, {canon}{payload}"),
        ),
        ("trailing", format!("{full}{{}}\n")),
    ];
    for (case, text) in &envelope {
        assert_ne!(text, &full, "{case}");
        std::fs::write(&path, text).unwrap();
        assert_eq!(cache.load(&key), None, "{case}");
    }
    std::fs::write(&path, &full).unwrap();
    assert_eq!(cache.load(&key), Some(trace_outcome()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep entry the `xp` before `KEY_FORMAT` 3 wrote, for the point of
/// `parent_cache/tiny.toml`: its payload holds per-bucket and per-class
/// vectors where a `flows` list now goes. Both readers refuse the
/// payload, and the entry misses even under the current key's file name,
/// so an old entry is never served as a new outcome.
#[test]
fn a_key_format_2_sweep_entry_is_refused() {
    let text = include_str!("key_format_2/f6cba9182206c818.json");
    let at = text.find("\"payload\": ").expect("an entry") + "\"payload\": ".len();
    let payload = text[at..]
        .trim_end()
        .strip_suffix('}')
        .expect("the envelope closes");
    assert!(payload.contains("\"buckets\":[["), "the old layout");
    let err = decode_str(payload).unwrap_err();
    assert!(err.contains("\"flows\""), "{err}");
    assert!(tree::decode_str(payload).is_err());

    let tiny = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/parent_cache/tiny.toml");
    let spec = dcn_scenarios::ScenarioSpec::from_toml(&std::fs::read_to_string(tiny).unwrap())
        .expect("tiny.toml parses");
    let key = dcn_runner::item_key(&spec, &work_items(&spec)[0]);
    let dir = scratch("key-format-2");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(key.file_name()), text).unwrap();
    assert_eq!(ResultCache::new(&dir).load(&key), None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `"wall_ms": 3.1e999` read as `inf`, and the rendering of that `inf`
/// was not JSON: the parent refused its own line, and `--log-json` /
/// `--meta` carried it. The reader now refuses a non-finite or negative
/// wall clock, on the line and inside `sim`.
#[test]
fn a_worker_line_cannot_carry_a_wall_clock_json_cannot_write() {
    let line = result_line(1, false, 3.5, None, &sweep_outcome());
    for bad in ["3.1e999", "-3.1e999", "-1.5"] {
        let text = line.replacen("\"wall_ms\": 3.500", &format!("\"wall_ms\": {bad}"), 1);
        assert_ne!(text, line);
        let err = parse_result_line(&text).unwrap_err();
        assert_eq!(err, "\"wall_ms\" has the wrong type or is out of range");
        assert_sound(&text);
    }
    assert!(parse_result_line(&line.replacen("3.500", "0", 1)).is_ok());

    let stats = dcn_sim::SimStats {
        events_processed: 1_000,
        wall_ms: 2.0,
        ..Default::default()
    };
    let line = result_line(1, false, 3.5, Some(&stats), &sweep_outcome());
    assert!(parse_result_line(&line).is_ok());
    for bad in ["3.1e999", "-2.0", "1e-320"] {
        let text = line.replacen("\"wall_ms\":2.000", &format!("\"wall_ms\":{bad}"), 1);
        assert_ne!(text, line);
        assert!(parse_result_line(&text).is_err(), "{bad}");
        assert_sound(&text);
    }
}
