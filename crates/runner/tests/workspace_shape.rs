//! The workspace's shape: the rules no compiler lint sees, because they
//! need the whole file set rather than one crate's AST. Each failure reads
//! `file:line: rule[RXX] message` (a path that does not exist has no line).
//!
//! Most rules are source bans, one row each of [`RULES`]: none of a list
//! of needles appears on a line of a file under some paths. One
//! matcher, [`banned`], applies every row; a path a row names that does not
//! exist fails too, so a renamed file cannot leave a rule reading nothing.
//! The rules of another form are functions: R5, R6, R8 and R9 below, and
//! the few in [`CHECKS`]. This file spells out every needle, so no rule
//! reads it. [`PLANTED`] holds a hazard for every rule from R10 on (R5,
//! R6, R8 and R9 have tests of their own), and each must fail naming its
//! rule.
//!
//! | Rule | What fails |
//! |------|------------|
//! | R5 | a `pub const *_VERSION` under a non-runner `crates/*/src/` that `runner/src/key.rs` does not name outside a `//` comment: an unsalted engine serves stale cache entries after a physics change |
//! | R6 | a `source =` line in `Cargo.lock` or `benchmark/Cargo.lock`: a package resolved from a registry or git, not a path |
//! | R8 | a member, or the root package, without `[lints]` `workspace = true`: it opts out of `[workspace.lints]` and the clippy determinism rules |
//! | R9 | a root `default-members` that is not `"."` plus `members`: plain `cargo test` skips the missing member's tests |
//! | R10 | `lint:allow(` or `allow(clippy::disallowed_` anywhere: an exempt site carries one `#[expect]` |
//! | R11 | `forbid(unsafe_code)` anywhere: the root `[workspace.lints]` sets it once |
//! | R12 | `pop_now_if` or `set_batching` under `crates/`, tests included: the engine has one dispatcher |
//! | R13 | a link table, an action list or a hand-built `CustomCtx` under `sim` or `rdcn` |
//! | R14 | a placeholder topology or sweep, or a hand-written section walk, under `scenarios/src` |
//! | R15 | `expect("timeseries")` in `trace_engine.rs`: an engine takes its kind's body |
//! | R16 | `ScenarioKind::` inside `ScenarioSpec::from_toml`'s body: it is one call on `schema::ROOT` |
//! | R17 | a spec constructor in `library.rs` other than `ScenarioSpec::from_toml(`: a builtin is a TOML file |
//! | R18 | one of the deleted spec builders (`fn describe(`, `fn paper_set(`, …) under `scenarios/src` |
//! | R19 | `parse_json` or `Json` in `runner/src/codec.rs` or `cache.rs`: a cache hit builds no tree |
//! | R20 | `fn skip_ws` or `u escape` in a file under `crates/` other than `scenarios/src/json.rs`: one JSON tokenizer |
//! | R21 | the Figure 6/7 cuts (`SIZE_BUCKETS`, `size_class`, `"buckets"`) in `scenarios/src/engine.rs` or `runner/src/codec.rs` |
//! | R22 | `snd_una`, or `snd_nxt` on a line that does not end with the `AckInfo` field, in `transport/src/host.rs`: `SendSeq` owns the sequence |
//! | R23 | `base_rtt / 2` under `scenarios/src`: `FctReduction::ideal_rtt` is the ideal FCT's RTT |
//! | R24 | `CTRL_PKT_BYTES` on more than one non-`use` line of `sim/src/topology.rs`: `path_rtt` is the one hop sum |
//! | R25 | a `struct *Config`, `UpdateInterval` or `_override` under `core/src` or `baselines/src`: a law has only γ or η |
//! | R26 | a fat-tree shape or fixed-delay field in `sim/src/topology.rs` |
//! | R27 | a fixed rate, delay or switch-config field in `rdcn/src/topology.rs` |
//! | R28 | `HomaConfig` in any file under `crates/`, `src/`, `tests/` or `examples/`: HOMA derives its constants |
//! | R29 | an optional VOQ gauge or latency sink under `rdcn/src` |
//! | R30 | `switch_config(SwitchConfig::default()` under `scenarios/src`: the switch starts from the default itself |
//! | R31 | `partial_cmp` above the tests of `stats/src/percentile.rs`: `Sorted` sorts on an integer key |
//! | R32 | a second `jsummary`, `jopt`, `jtail`, `csv_escape` or `fmt` in `scenarios/src/report.rs` |
//! | R33 | a `seeds` or `drain_ms` key, or a top-level `horizon_ms`, in a timeseries builtin (or no timeseries builtin at all) |
//! | R34 | `seeds` inside `LineupSpec`'s body in `scenarios/src/spec.rs` |
//! | R35 | a binary other than `crates/runner/src/bin/xp.rs`: a `src/bin/*.rs` or a `main.rs` |
//! | R36 | `crates/serve/src/html.rs` exists: the daemon's NDJSON records are its one rendering |
//! | R37 | `text/html`, `JobQueue` or `struct QueueInner` under `serve/src` |
//! | R38 | `heap.extend(` or `BinaryHeap::from` in `flow/src/lib.rs`: no per-run heapify |
//! | R39 | `members.resize(`, `frozen.resize(` or `order.retain(` in `flow/src/lib.rs`: nothing laid out per event |
//! | R40 | `try_single_bottleneck` or `fastpath` in `flow/src/lib.rs` or `reference.rs`: one allocator |
//! | R41 | `caps: Vec<f64>` in `flow/src/lib.rs`: capacities are runs |
//! | R42 | a `let up` / `let down` `Vec<LinkId>` table in `scenarios/src/flow_engine.rs`: host links are arithmetic |
//! | R43 | a `crates/scenarios/tests/*_baseline.json` that is no operand of a `cmp` line of `.github/workflows/ci.yml`, or a line there that holds `--tol`: a report is pinned byte for byte |
//! | R44 | a `PR <n>` token in DESIGN.md: it states the system as it is, and a PR's history is CHANGES.md's |
//! | R45 | a `pub` / `pub(crate)` fn above the tests of a product file that no product or `benchmark/src` code above its tests names (a `pub use` re-export names nothing), unless a [`CALLED_OUTSIDE`] row names its caller; or a stale row |
//! | R46 | a `.cargo/config.toml` without `lto = "fat"` under `[profile.release]`, or an `lto` or `codegen-units` key in any `Cargo.toml` (root, member or `benchmark/`): release codegen has one statement, read by `xp` and the ledger alike |
//!
//! R6's other half is the offline resolve itself, which refuses a registry
//! dependency before this test compiles. DESIGN.md "Static analysis" has
//! the rules the compiler enforces; `scripts/lint_canaries.sh` plants an
//! R5, R6 and R8 hazard in a copy of the tree and needs each named.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

/// Workspace-relative path → text, for every file a rule reads.
type Tree = BTreeMap<String, String>;

const KEY_RS: &str = "crates/runner/src/key.rs";
const LOCKS: [&str; 2] = ["Cargo.lock", "benchmark/Cargo.lock"];
const SALTS: [&str; 3] = ["ENGINE_VERSION", "FLOW_ENGINE_VERSION", "MODEL_VERSION"];
/// This file: it lists the needles, so every rule leaves it out.
const SELF: &str = "crates/runner/tests/workspace_shape.rs";
/// Every directory of Rust sources.
const RUST: [&str; 4] = ["crates", "src", "tests", "examples"];
const BUILTINS: &str = "crates/scenarios/builtins";
const SPEC_RS: &str = "crates/scenarios/src/spec.rs";
const TOPOLOGY_RS: &str = "crates/sim/src/topology.rs";
const TOKENIZER: &str = "crates/scenarios/src/json.rs";
const XP: &str = "crates/runner/src/bin/xp.rs";
const HTML_RS: &str = "crates/serve/src/html.rs";
const CI_YML: &str = ".github/workflows/ci.yml";
/// Cargo's configuration for every build started in the tree.
const CARGO_CONFIG: &str = ".cargo/config.toml";
/// The ledger's manifest: a workspace of its own, outside `members`.
const LEDGER_MANIFEST: &str = "benchmark/Cargo.toml";
const DESIGN_MD: &str = "DESIGN.md";
/// Where the committed `*_baseline.json` reports live.
const BASELINES: &str = "crates/scenarios/tests/";
/// The benchmark harness: it builds against the crates' public names, so
/// R45 counts what it names.
const HARNESS: &str = "benchmark/src";
/// Product files that are test code all the same: their parents declare
/// them under `#[cfg(test)]`.
const TEST_MODULES: [&str; 2] = ["crates/rdcn/src/bed.rs", "crates/flow/src/reference.rs"];

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The tree on disk, read once per test binary: the root manifest, the CI
/// workflow, DESIGN.md, every member's manifest, the ledger's, both lock
/// files, [`CARGO_CONFIG`] if it exists (R46 fails its absence) and every
/// file under [`RUST`] (builtins and test data included) and [`HARNESS`].
fn on_disk() -> Tree {
    disk().clone()
}

/// [`on_disk`], borrowed.
fn disk() -> &'static Tree {
    static DISK: OnceLock<Tree> = OnceLock::new();
    DISK.get_or_init(|| {
        let mut tree = Tree::new();
        for rel in ["Cargo.toml", CI_YML, DESIGN_MD, LEDGER_MANIFEST]
            .into_iter()
            .chain(LOCKS)
        {
            tree.insert(rel.to_string(), read(rel));
        }
        if let Ok(config) = std::fs::read_to_string(root().join(CARGO_CONFIG)) {
            tree.insert(CARGO_CONFIG.to_string(), config);
        }
        for member in list(&tree["Cargo.toml"], "members").1 {
            let rel = format!("{member}/Cargo.toml");
            tree.insert(rel.clone(), read(&rel));
        }
        for dir in RUST.into_iter().chain([HARNESS]) {
            add_files(&mut tree, dir);
        }
        tree
    })
}

/// Every file under `dir`, its bytes read as UTF-8 (lossily). A missing
/// directory adds nothing, and the rules that read it fail naming it.
fn add_files(tree: &mut Tree, dir: &str) {
    let Ok(entries) = std::fs::read_dir(root().join(dir)) else {
        return;
    };
    for entry in entries {
        let rel = format!("{dir}/{}", entry.expect(dir).file_name().to_string_lossy());
        let path = root().join(&rel);
        if path.is_dir() {
            add_files(tree, &rel);
        } else {
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            tree.insert(rel, String::from_utf8_lossy(&bytes).into_owned());
        }
    }
}

/// Every rule over `tree`: empty when the workspace has its shape.
fn failures(tree: &Tree) -> Vec<String> {
    failures_reading(tree, |_| true)
}

/// Every rule over `tree`, where the rows, R5 and R20 read the text of
/// only the files `fresh` picks (the rows still see every path, so a
/// missing one fails). On a tree that differs from the disk's only in
/// those files this is all of `failures`: every other file passes on disk.
fn failures_reading(tree: &Tree, fresh: impl Fn(&str) -> bool) -> Vec<String> {
    let manifest = &tree["Cargo.toml"];
    let mut out = default_members(manifest);
    out.extend(lints_inherited("Cargo.toml", manifest));
    for member in list(manifest, "members").1 {
        let rel = format!("{member}/Cargo.toml");
        out.extend(lints_inherited(&rel, &tree[&rel]));
    }
    for lock in LOCKS {
        out.extend(path_only(lock, &tree[lock]));
    }
    out.extend(salts_keyed(tree, &fresh));
    for rule in RULES {
        out.extend(banned(tree, rule, &fresh));
    }
    for (id, check) in CHECKS {
        out.extend(check(tree, id, &fresh));
    }
    out
}

/// A source ban: no line of a file under `paths` holds one of `forbids`.
struct Rule {
    id: &'static str,
    /// Files, or directories read recursively; each must exist.
    paths: &'static [&'static str],
    /// The needles, each as [`holds`] reads it.
    forbids: &'static [&'static str],
    /// A line that holds one of these is not read; one that ends in `$`
    /// exempts only a line that ends with the rest (as in grep).
    exempt: &'static [&'static str],
    /// Whether a file is read only above its first `#[cfg(test)]`.
    above_tests: bool,
    /// Why the rule exists.
    why: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        id: "R10",
        paths: &RUST,
        forbids: &["lint:allow(", "allow(clippy::disallowed_"],
        exempt: &[],
        above_tests: false,
        why: "an exempt read carries one `#[expect(.., reason = \"..\")]`, on its statement",
    },
    Rule {
        id: "R11",
        paths: &RUST,
        forbids: &["forbid(unsafe_code)"],
        exempt: &[],
        above_tests: false,
        why: "`unsafe_code = \"forbid\"` is set once, in the root `[workspace.lints]`",
    },
    Rule {
        id: "R12",
        paths: &["crates"],
        forbids: &["pop_now_if", "set_batching"],
        exempt: &[],
        above_tests: false,
        why: "the engine has one dispatcher: no batching hook, not even behind a test",
    },
    // `dcn_flow::LinkId` is the flow engine's own type; `crates/flow` and
    // `scenarios/src/flow_engine.rs` are outside these paths.
    Rule {
        id: "R13",
        paths: &["crates/sim", "crates/rdcn"],
        forbids: &[
            r"\bLinks\b",
            r"\bLinkId\b",
            "PortView",
            "RawPort",
            "EndpointAction",
            "scratch_endpoint",
            "scratch_views",
            "with_pool",
            r"connect_host\b",
            r"connect_switches\b",
            r"connect_customs\b",
            r"connect_custom_to_switch\b",
            r"connect_host_to_custom\b",
            "CustomAction",
            "scratch_custom",
            "CustomCtx::new",
        ],
        exempt: &[],
        above_tests: false,
        why: "one port model and one way to wire it: no link table, no action list, no context \
            built outside the engine",
    },
    // `fn walk(&self` is the spec's section walk; `diff.rs`'s JSON
    // `walk(a, b, ..)` is not it.
    Rule {
        id: "R14",
        paths: &["crates/scenarios/src"],
        forbids: &[
            "analytic_topology",
            "analytic_sweep",
            "implied_topology",
            "fn walk(&self",
        ],
        exempt: &[],
        above_tests: false,
        why: "a scenario holds only what its kind has: no placeholder field, no hand-written \
            section walk",
    },
    Rule {
        id: "R15",
        paths: &["crates/scenarios/src/trace_engine.rs"],
        forbids: &["expect(\"timeseries\")"],
        exempt: &[],
        above_tests: false,
        why: "an engine takes its kind's body, so it never unwraps a spec's kind",
    },
    Rule {
        id: "R17",
        paths: &["crates/scenarios/src/library.rs"],
        forbids: &[
            "ScenarioSpec::",
            "TopologySpec::",
            "TraceScenario::",
            "AnalyticScenario::",
        ],
        exempt: &["ScenarioSpec::from_toml("],
        above_tests: false,
        why: "a builtin is a TOML file, never Rust: library.rs parses its files and builds no spec",
    },
    Rule {
        id: "R18",
        paths: &["crates/scenarios/src"],
        forbids: &[
            "fn describe(",
            "fn algos(",
            "fn loads(",
            "fn params(",
            "fn engine(",
            "fn buffer_cdf(",
            "fn channels(",
            "fn incast(",
            "fn trace_scenario(",
            "fn paper_set(",
        ],
        exempt: &[],
        above_tests: false,
        why: "a builtin is a TOML file: the deleted spec builders stay deleted",
    },
    Rule {
        id: "R19",
        paths: &["crates/runner/src/codec.rs", "crates/runner/src/cache.rs"],
        forbids: &["parse_json", r"\bJson\b"],
        exempt: &[],
        above_tests: false,
        why:
            "a cache hit builds no tree: the codec and the cache envelope pull members in written \
            order",
    },
    Rule {
        id: "R21",
        paths: &[
            "crates/scenarios/src/engine.rs",
            "crates/runner/src/codec.rs",
        ],
        forbids: &["SIZE_BUCKETS", "size_class", "\"buckets\"", "\"buckets\\\""],
        exempt: &[],
        above_tests: false,
        why: "the Figure 6/7 cuts are taken once, by the report: an outcome stores each flow once",
    },
    Rule {
        id: "R22",
        paths: &["crates/transport/src/host.rs"],
        forbids: &["snd_una", "snd_nxt"],
        exempt: &["snd_nxt: f.seq.nxt(),$"],
        above_tests: false,
        why: "`SendSeq` owns go-back-N's sequence; the one `snd_nxt` left is the `AckInfo` field",
    },
    Rule {
        id: "R23",
        paths: &["crates/scenarios/src"],
        forbids: &["base_rtt / 2"],
        exempt: &[],
        above_tests: false,
        why: "`FctReduction::ideal_rtt` is the ideal FCT's RTT for both sweep engines",
    },
    Rule {
        id: "R25",
        paths: &["crates/core/src", "crates/baselines/src"],
        forbids: &["struct *Config", "UpdateInterval", "_override"],
        exempt: &[],
        above_tests: false,
        why:
            "a control law has only the knobs a spec can turn: γ and η are constructor arguments, \
            every other value is a const in its module",
    },
    // The fields of a built `FatTree` hold node ids (`cores: Vec<NodeId>`).
    Rule {
        id: "R26",
        paths: &[TOPOLOGY_RS],
        forbids: &[
            "pub pods:",
            "pub tors_per_pod:",
            "pub aggs_per_pod:",
            "pub cores: usize",
            "pub cores: Tick",
            "pub host_delay:",
            "pub fabric_delay:",
            "pub core_delay:",
            "pub bottleneck_delay:",
        ],
        exempt: &[],
        above_tests: false,
        why: "the fat-tree's shape and every fixed link delay are consts of `dcn_sim::topology`",
    },
    // An `Rdcn`'s `packet_switch` is a node id.
    Rule {
        id: "R27",
        paths: &["crates/rdcn/src/topology.rs"],
        forbids: &[
            "pub host_bw:",
            "pub circuit_bw:",
            "pub host_delay:",
            "pub packet_delay:",
            "pub circuit_delay:",
            "pub packet_switch: Bandwidth",
            "pub packet_switch: Tick",
            "pub packet_switch: SwitchConfig",
        ],
        exempt: &[],
        above_tests: false,
        why: "an RDCN's fixed rates and delays are consts, and its packet switch starts from the \
            default",
    },
    Rule {
        id: "R28",
        paths: &RUST,
        forbids: &["HomaConfig"],
        exempt: &[],
        above_tests: false,
        why: "HOMA derives RTTbytes and its resend interval in `HomaHost::new`",
    },
    Rule {
        id: "R29",
        paths: &["crates/rdcn/src"],
        forbids: &["Option<VoqGauge>", "Option<LatencySink>"],
        exempt: &[],
        above_tests: false,
        why: "`build_rdcn` always supplies a VOQ gauge and a latency sink",
    },
    Rule {
        id: "R30",
        paths: &["crates/scenarios/src"],
        forbids: &["switch_config(SwitchConfig::default()"],
        exempt: &[],
        above_tests: false,
        why: "`Algo::switch_config(host_bw)` starts from the default switch itself",
    },
    Rule {
        id: "R31",
        paths: &["crates/stats/src/percentile.rs"],
        forbids: &["partial_cmp"],
        exempt: &[],
        above_tests: true,
        why: "`Sorted` sorts once on an integer key; the stable comparison sort survives only as \
            the tests' oracle",
    },
    Rule {
        id: "R32",
        paths: &["crates/scenarios/src/report.rs"],
        forbids: &[
            r"fn jsummary\b",
            r"fn jopt\b",
            r"fn jtail\b",
            r"fn csv_escape\b",
            r"fn fmt\b",
        ],
        exempt: &[],
        above_tests: false,
        why: "the sweep writers push numbers with `dcn_telemetry::push_jf`; escaping and compact \
            floats are `dcn_telemetry::{csv_escape, fmt_compact}`",
    },
    Rule {
        id: "R37",
        paths: &["crates/serve/src"],
        forbids: &["text/html", "JobQueue", "struct QueueInner"],
        exempt: &[],
        above_tests: false,
        why: "the daemon has one rendering, its NDJSON records, and its queue is a std \
            `sync_channel`",
    },
    Rule {
        id: "R38",
        paths: &["crates/flow/src/lib.rs"],
        forbids: &["heap.extend(", "BinaryHeap::from"],
        exempt: &[],
        above_tests: false,
        why:
            "the water-fill heapifies no candidates per run: opening keys stay sorted across events",
    },
    Rule {
        id: "R39",
        paths: &["crates/flow/src/lib.rs"],
        forbids: &["members.resize(", "frozen.resize(", "order.retain("],
        exempt: &[],
        above_tests: false,
        why: "the water-fill lays nothing out per event: member lists persist, slot fills start \
            lazily, `order` is patched in place",
    },
    Rule {
        id: "R40",
        paths: &["crates/flow/src/lib.rs", "crates/flow/src/reference.rs"],
        forbids: &["try_single_bottleneck", "fastpath"],
        exempt: &[],
        above_tests: false,
        why:
            "the water-fill is the one allocator: no single-bottleneck fast path beside it, nor in \
            its oracle",
    },
    Rule {
        id: "R41",
        paths: &["crates/flow/src/lib.rs"],
        forbids: &["caps: Vec<f64>"],
        exempt: &[],
        above_tests: false,
        why: "capacities are runs of equal bits, not one `f64` per link (200,016 at 100k hosts)",
    },
    Rule {
        id: "R42",
        paths: &["crates/scenarios/src/flow_engine.rs"],
        forbids: &["let up: Vec<LinkId>", "let down: Vec<LinkId>"],
        exempt: &[],
        above_tests: false,
        why: "host `i`'s links are ids `i` and `n + i`, not an up/down table per host",
    },
];

/// The rules that are not a ban under some paths, each a function of the
/// tree, its id and what `failures_reading` calls `fresh`. Of the two
/// that read many files, R20 skips the files that are not fresh, and R45
/// reuses what it read of every file whose text is as on disk.
type Check = fn(&Tree, &str, &dyn Fn(&str) -> bool) -> Vec<String>;

const CHECKS: &[(&str, Check)] = &[
    ("R16", |tree, id, _| {
        body_lacks(
            tree,
            id,
            ("pub fn from_toml", "    }"),
            "ScenarioKind::",
            "`from_toml` is one call on `schema::ROOT`, with no per-kind match",
        )
    }),
    ("R20", one_tokenizer),
    ("R24", one_hop_sum),
    ("R33", trace_keys),
    ("R34", |tree, id, _| {
        body_lacks(
            tree,
            id,
            ("pub struct LineupSpec", "}"),
            "seeds",
            "a trace is deterministic: a timeseries lineup has no seeds",
        )
    }),
    ("R35", one_binary),
    ("R36", |tree, id, _| {
        if !tree.contains_key(HTML_RS) {
            return Vec::new();
        }
        let why = "the daemon's NDJSON records are its one rendering: no HTML";
        vec![format!("{HTML_RS}: rule[{id}] {why}")]
    }),
    ("R43", byte_pins),
    ("R44", no_pr_history),
    ("R45", every_fn_called),
    ("R46", one_codegen),
];

/// The files under `dir` (a file or a directory), this one left out.
fn sources<'t>(tree: &'t Tree, dir: &'t str) -> impl Iterator<Item = (&'t str, &'t str)> {
    tree.iter()
        .filter(move |(p, _)| p.as_str() != SELF && under(p, dir))
        .map(|(p, t)| (p.as_str(), t.as_str()))
}

/// Whether `path` is `dir` or lies under it.
fn under(path: &str, dir: &str) -> bool {
    path.strip_prefix(dir)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

fn missing(path: &str, id: &str) -> String {
    format!("{path}: rule[{id}] no such file or directory: the rule would pass reading nothing")
}

/// Every line under a row's paths that holds one of its needles, and
/// every path of the row that does not exist.
/// Only the files `fresh` picks are read.
fn banned(tree: &Tree, rule: &Rule, fresh: impl Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    for &path in rule.paths {
        let mut exists = false;
        for (file, text) in sources(tree, path) {
            exists = true;
            // Most files hold no needle: one scan of the text rules them out.
            if !fresh(file) || !rule.forbids.iter().any(|n| text.contains(stem(n))) {
                continue;
            }
            for (i, line) in text.lines().enumerate() {
                if rule.above_tests && line.contains("#[cfg(test)]") {
                    break;
                }
                let exempt = |e: &&str| match e.strip_suffix('$') {
                    Some(end) => line.ends_with(end),
                    None => line.contains(e),
                };
                if rule.exempt.iter().any(exempt) {
                    continue;
                }
                if let Some(needle) = rule.forbids.iter().find(|n| holds(line, n)) {
                    out.push(format!(
                        "{file}:{}: rule[{}] `{needle}`: {}",
                        i + 1,
                        rule.id,
                        rule.why
                    ));
                }
            }
        }
        if !exists {
            out.push(missing(path, rule.id));
        }
    }
    out
}

/// Whether `line` holds `needle`, a literal in which a leading or trailing
/// `\b` asks for a word boundary there (as in grep), and one `*` stands for
/// a run of identifier characters (`struct *Config`).
fn holds(line: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let head = stem(needle);
    let tail = needle
        .split_once('*')
        .map_or("", |(_, t)| t.trim_end_matches(r"\b"));
    line.match_indices(head).any(|(at, _)| {
        let after = &line[at + head.len()..];
        let run = if needle.contains('*') {
            after.find(|c| !is_ident(c)).unwrap_or(after.len())
        } else {
            0
        };
        let bounded = |i: usize| !after[i + tail.len()..].starts_with(is_ident);
        (!needle.starts_with(r"\b") || !line[..at].ends_with(is_ident))
            && (0..=run).any(|i| {
                after.is_char_boundary(i)
                    && after[i..].starts_with(tail)
                    && (!needle.ends_with(r"\b") || bounded(i))
            })
    })
}

/// The literal part of `needle` before any `*`, without a leading `\b`:
/// every line that holds the needle holds its stem.
fn stem(needle: &str) -> &str {
    let lit = needle.trim_start_matches(r"\b");
    lit.split_once('*')
        .map_or(lit.trim_end_matches(r"\b"), |(head, _)| head)
}

/// R16, R34: in `spec.rs`, the block from the first line that starts,
/// indentation aside, with `from` to the next line equal to `to` holds no
/// `needle`.
fn body_lacks(
    tree: &Tree,
    id: &str,
    (from, to): (&str, &str),
    needle: &str,
    why: &str,
) -> Vec<String> {
    let Some(text) = tree.get(SPEC_RS) else {
        return vec![missing(SPEC_RS, id)];
    };
    let lines: Vec<&str> = text.lines().collect();
    let Some(start) = lines.iter().position(|l| l.trim_start().starts_with(from)) else {
        return vec![format!(
            "{SPEC_RS}: rule[{id}] no line starts with `{from}`: the rule would pass reading \
             nothing"
        )];
    };
    let end = lines[start..]
        .iter()
        .position(|l| *l == to)
        .map_or(lines.len(), |n| start + n + 1);
    (start..end)
        .filter(|&i| lines[i].contains(needle))
        .map(|i| {
            format!(
                "{SPEC_RS}:{}: rule[{id}] `{needle}` in the body of `{from}`: {why}",
                i + 1
            )
        })
        .collect()
}

/// R20: the one JSON tokenizer is the one file under `crates/` that skips
/// JSON whitespace and decodes a `\u` escape. Of the others, only the
/// `fresh` ones are read.
fn one_tokenizer(tree: &Tree, id: &str, fresh: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut home = false;
    let tokenizes = |text: &str| text.contains("fn skip_ws") || text.contains("u escape");
    let read = sources(tree, "crates").filter(|&(path, _)| path == TOKENIZER || fresh(path));
    for (path, text) in read.filter(|(_, text)| tokenizes(text)) {
        if path == TOKENIZER {
            home = true;
            continue;
        }
        for (i, _) in text.lines().enumerate().filter(|(_, l)| tokenizes(l)) {
            out.push(format!(
                "{path}:{}: rule[{id}] a second JSON tokenizer: {TOKENIZER}'s `Parser` is the one",
                i + 1
            ));
        }
    }
    if !home {
        out.push(format!(
            "{TOKENIZER}: rule[{id}] no `fn skip_ws` or `u escape`: the rule would pass with no \
             tokenizer"
        ));
    }
    out
}

/// R24: `topology.rs` names `CTRL_PKT_BYTES` on at most one line that is
/// not a `use`: the one in `path_rtt`.
fn one_hop_sum(tree: &Tree, id: &str, _: &dyn Fn(&str) -> bool) -> Vec<String> {
    let Some(text) = tree.get(TOPOLOGY_RS) else {
        return vec![missing(TOPOLOGY_RS, id)];
    };
    let lines: Vec<usize> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.starts_with("use ") && l.contains("CTRL_PKT_BYTES"))
        .map(|(i, _)| i + 1)
        .collect();
    match lines[..] {
        [_, second, ..] => vec![format!(
            "{TOPOLOGY_RS}:{second}: rule[{id}] `CTRL_PKT_BYTES` on lines {lines:?}: `path_rtt` \
             is the one hop sum"
        )],
        _ => Vec::new(),
    }
}

/// R33: a timeseries builtin has no `seeds` or `drain_ms` key, and a
/// `horizon_ms` only below its first table header; and there is one.
fn trace_keys(tree: &Tree, id: &str, _: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut traces = 0;
    let builtins = tree
        .iter()
        .filter(|(p, _)| p.starts_with(BUILTINS) && p.ends_with(".toml"));
    for (path, text) in builtins {
        if !text.lines().any(|l| l.starts_with("kind = \"timeseries\"")) {
            continue;
        }
        traces += 1;
        let mut top = true;
        for (i, line) in text.lines().enumerate() {
            top &= !line.starts_with('[');
            let keys = ["seeds", "drain_ms"]
                .into_iter()
                .chain(top.then_some("horizon_ms"));
            for key in keys.filter(|k| line.starts_with(&format!("{k} = "))) {
                out.push(format!(
                    "{path}:{}: rule[{id}] `{key}` in a timeseries spec: a trace has no seeds \
                     and no drain, and a horizon only inside `[trace]`",
                    i + 1
                ));
            }
        }
    }
    if traces == 0 {
        out.push(missing(&format!("{BUILTINS}/<a timeseries builtin>"), id));
    }
    out
}

/// R35: Cargo builds every `src/bin/*.rs` and `src/main.rs` without a
/// `[[bin]]` section, so the binaries are files, and `xp` is the only one.
fn one_binary(tree: &Tree, id: &str, _: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut out: Vec<String> = tree
        .keys()
        .filter(|p| p.starts_with("crates/") || p.starts_with("src/"))
        .filter(|p| p.ends_with(".rs"))
        .filter(|p| format!("/{p}").contains("/src/bin/") || p.ends_with("/main.rs"))
        .filter(|p| *p != XP)
        .map(|p| format!("{p}: rule[{id}] a second binary: `xp` ({XP}) is the only front door"))
        .collect();
    if !tree.contains_key(XP) {
        out.push(missing(XP, id));
    }
    out
}

/// R43: every committed `*_baseline.json` is an operand of some `cmp`
/// line of `ci.yml`, and no line there holds `--tol`: a report is pinned
/// byte for byte, and `xp diff` only locates what a failing `cmp` found.
fn byte_pins(tree: &Tree, id: &str, _: &dyn Fn(&str) -> bool) -> Vec<String> {
    let Some(ci) = tree.get(CI_YML) else {
        return vec![missing(CI_YML, id)];
    };
    let operands: Vec<&str> = ci
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("cmp "))
        .flat_map(|rest| rest.split_whitespace().take(2))
        .collect();
    let mut out: Vec<String> = ci
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("--tol"))
        .map(|(i, _)| {
            format!(
                "{CI_YML}:{}: rule[{id}] `--tol`: a report is pinned with `cmp`, byte for byte",
                i + 1
            )
        })
        .collect();
    let baselines: Vec<&String> = tree
        .keys()
        .filter(|p| {
            p.strip_prefix(BASELINES)
                .is_some_and(|file| !file.contains('/') && file.ends_with("_baseline.json"))
        })
        .collect();
    for path in &baselines {
        if !operands.contains(&path.as_str()) {
            out.push(format!(
                "{CI_YML}: rule[{id}] `{path}` is the operand of no `cmp` line: a committed \
                 baseline is pinned byte for byte"
            ));
        }
    }
    if baselines.is_empty() {
        out.push(missing(&format!("{BASELINES}<a *_baseline.json>"), id));
    }
    out
}

/// R44: no line of DESIGN.md names a `PR <n>`. The document states the
/// system as it is, each fact with its reason; what a PR changed, and
/// when, is CHANGES.md's.
fn no_pr_history(tree: &Tree, id: &str, _: &dyn Fn(&str) -> bool) -> Vec<String> {
    let Some(design) = tree.get(DESIGN_MD) else {
        return vec![missing(DESIGN_MD, id)];
    };
    let names_a_pr = |line: &str| {
        line.match_indices("PR ").any(|(at, _)| {
            !line[..at].ends_with(char::is_alphanumeric)
                && line[at + 3..].starts_with(|c: char| c.is_ascii_digit())
        })
    };
    let lines = design.lines().enumerate();
    lines
        .filter(|(_, line)| names_a_pr(line))
        .map(|(i, _)| {
            format!(
                "{DESIGN_MD}:{}: rule[{id}] a `PR <n>`: state the reason, not the PR \
                 (its history is CHANGES.md's)",
                i + 1
            )
        })
        .collect()
}

/// `(0-based line, section header, key, value)` of every `key = value`
/// line of a TOML file, each cut at `#` and trimmed; a dotted key keeps
/// only its last part (`profile.release.lto` is `lto`).
fn toml_keys(text: &str) -> impl Iterator<Item = (usize, &str, &str, &str)> {
    let mut section = "";
    text.lines().enumerate().filter_map(move |(i, line)| {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line;
            return None;
        }
        let (key, value) = line.split_once('=')?;
        let key = key
            .rsplit('.')
            .next()
            .unwrap_or(key)
            .trim()
            .trim_matches('"');
        Some((i, section, key, value.trim()))
    })
}

/// R46: release code generation is stated once, as `lto = "fat"` under
/// `[profile.release]` of [`CARGO_CONFIG`]. Cargo reads that file upward
/// from the working directory, so `xp`, `--profile checked` and the ledger
/// (a workspace of its own, whose profile is a copy of the root's) all
/// build from it; an `lto` or `codegen-units` key in any manifest would
/// let one of them drift from the others.
fn one_codegen(tree: &Tree, id: &str, _: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    match tree.get(CARGO_CONFIG) {
        None => out.push(missing(CARGO_CONFIG, id)),
        Some(config) => {
            let fat = toml_keys(config).any(|(_, section, key, value)| {
                section == "[profile.release]" && key == "lto" && value == "\"fat\""
            });
            if !fat {
                out.push(format!(
                    "{CARGO_CONFIG}: rule[{id}] no `lto = \"fat\"` under `[profile.release]`: \
                     it is the one statement of release codegen"
                ));
            }
        }
    }
    if !tree.contains_key(LEDGER_MANIFEST) {
        out.push(missing(LEDGER_MANIFEST, id));
    }
    let manifests = tree
        .iter()
        .filter(|(p, _)| *p == "Cargo.toml" || p.ends_with("/Cargo.toml"));
    for (path, text) in manifests {
        for (i, _, key, _) in toml_keys(text) {
            if key == "lto" || key == "codegen-units" {
                out.push(format!(
                    "{path}:{}: rule[{id}] `{key}` in a manifest: release codegen is stated \
                     once, in {CARGO_CONFIG}, so `xp` and the ledger cannot drift",
                    i + 1
                ));
            }
        }
    }
    out
}

/// R45's exemptions: `(file, fn, caller, why)`. A `pub` fn whose callers
/// all sit outside the product code stays only with a row here that names
/// one of them: a file outside the product code that names the fn.
const CALLED_OUTSIDE: &[(&str, &str, &str, &str)] = &[
    (
        "crates/core/src/power.rs",
        "norm_power_closed_form",
        "crates/core/tests/proptests.rs",
        "the Γ property holds the estimator to the paper's closed form",
    ),
    (
        "crates/runner/src/key.rs",
        "item_key",
        "crates/runner/tests/cache_keys.rs",
        "the key golden, `cache_roundtrip.rs`, `hostile_bytes.rs` and `parent_cache.rs` key one item at a time",
    ),
    (
        "crates/sim/src/trace.rs",
        "queue_tracer",
        "crates/sim/tests/engine_e2e.rs",
        "the engine, transport and baselines end-to-end tests and `examples/quickstart.rs` trace a queue into a `Series`",
    ),
    (
        "crates/sim/src/trace.rs",
        "host_throughput_tracer",
        "examples/fairness_demo.rs",
        "the fairness demo plots each sender's rate",
    ),
    (
        "crates/sim/src/engine.rs",
        "pool_stats",
        "crates/sim/tests/engine_e2e.rs",
        "the pool property reads the recycling counters of a whole run",
    ),
    (
        "crates/sim/src/engine.rs",
        "run_until_idle",
        "crates/sim/tests/engine_e2e.rs",
        "the engine's end-to-end tests, `dispatch_golden.rs` and `sim_props.rs` run to quiescence",
    ),
    (
        "crates/sim/src/engine.rs",
        "audit_closed",
        "crates/sim/tests/dispatch_golden.rs",
        "the golden runs and `engine_e2e.rs` recycle every packet, so they audit with equality",
    ),
    (
        "crates/sim/src/event.rs",
        "peek_time",
        "crates/sim/tests/sim_props.rs",
        "the lockstep heap model checks that a peek moves nothing",
    ),
    (
        "crates/sim/src/flow_table.rs",
        "dense_slots",
        "crates/sim/tests/flow_table_props.rs",
        "the table properties check where a flow lives against a `BTreeMap` model",
    ),
    (
        "crates/sim/src/flow_table.rs",
        "spilled",
        "crates/sim/tests/flow_table_props.rs",
        "the table properties check where a flow lives against a `BTreeMap` model",
    ),
];

/// Whether `path` is product code: a Rust file under a member's or the
/// root package's `src/`, less the test-only `crates/shims` and
/// [`TEST_MODULES`].
fn product(path: &str) -> bool {
    let src = path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"));
    src && path.ends_with(".rs") && !under(path, "crates/shims") && !TEST_MODULES.contains(&path)
}

/// Whether R45 counts what `path` names: product code and the harness.
fn calls_from(path: &str) -> bool {
    product(path) || (under(path, HARNESS) && path.ends_with(".rs"))
}

/// The lines of `text` above its first `#[cfg(test)]`, each cut at `//`,
/// with their 0-based numbers: the file's non-test part, as
/// `scripts/loc.sh` counts it.
fn non_test(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
    lines.map(code).enumerate()
}

/// The identifiers the non-test part of `text` names, less each that a
/// `fn` declares and less every `pub use` re-export: a call, a path, a fn
/// pointer or an import (an alias too, `write_array as list`) names a fn;
/// its own declaration does not, and neither does handing it on to
/// another crate's callers, which must name it themselves.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    let mut in_reexport = false;
    let outside_reexports = non_test(text).filter(move |(_, line)| {
        let trimmed = line.trim_start();
        in_reexport |= trimmed.starts_with("pub use ") || trimmed.starts_with("pub(crate) use ");
        let keep = !in_reexport;
        in_reexport &= !line.contains(';');
        keep
    });
    outside_reexports.flat_map(|(_, line)| {
        let mut after_fn = false;
        line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|t| !t.is_empty())
            .filter(move |&t| !std::mem::replace(&mut after_fn, t == "fn"))
    })
}

/// The `pub` / `pub(crate)` fns the non-test part of `text` declares:
/// `(0-based line, name)`.
fn pub_fns(text: &str) -> impl Iterator<Item = (usize, &str)> {
    non_test(text).filter_map(|(i, line)| {
        let line = line.trim_start();
        let mut rest = line
            .strip_prefix("pub ")
            .or(line.strip_prefix("pub(crate) "))?;
        for qualifier in ["const ", "unsafe "] {
            rest = rest.strip_prefix(qualifier).unwrap_or(rest);
        }
        let rest = rest.strip_prefix("fn ")?;
        let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_'));
        Some((i, &rest[..end.unwrap_or(rest.len())]))
    })
}

/// What R45 read of the tree on disk, read once: every identifier that
/// the [`calls_from`] files name, with the files that name it, and each
/// product file's `pub` fns.
struct FnIndex {
    named: BTreeMap<&'static str, Vec<&'static str>>,
    decls: BTreeMap<&'static str, Vec<(usize, &'static str)>>,
}

fn fn_index() -> &'static FnIndex {
    static INDEX: OnceLock<FnIndex> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut index = FnIndex {
            named: BTreeMap::new(),
            decls: BTreeMap::new(),
        };
        for (path, text) in disk().iter().filter(|(p, _)| calls_from(p)) {
            for ident in idents(text).collect::<BTreeSet<_>>() {
                index.named.entry(ident).or_default().push(path);
            }
            if product(path) {
                index.decls.insert(path, pub_fns(text).collect());
            }
        }
        index
    })
}

/// R45: every `pub` / `pub(crate)` fn of the product code has a caller in
/// it or in the harness, or a [`CALLED_OUTSIDE`] row that names a caller
/// outside it. The rule goes by name: a fn that shares its name with one
/// that is called (`tick`, `values`) passes; one that only a `pub use`
/// re-exports does not. A file whose text is as on disk is read from
/// [`fn_index`].
fn every_fn_called(tree: &Tree, id: &str, _: &dyn Fn(&str) -> bool) -> Vec<String> {
    let index = fn_index();
    let edited: BTreeSet<&str> = tree
        .iter()
        .filter(|&(p, text)| calls_from(p) && disk().get(p) != Some(text))
        .map(|(p, _)| p.as_str())
        .collect();
    let mut namer: BTreeMap<&str, &str> = BTreeMap::new();
    for &path in &edited {
        for ident in idents(&tree[path]) {
            namer.entry(ident).or_insert(path);
        }
    }
    let caller = |name: &str| {
        namer.get(name).copied().or_else(|| {
            let files = index.named.get(name)?;
            let as_on_disk = |f: &&str| tree.contains_key(*f) && !edited.contains(f);
            files.iter().copied().find(as_on_disk)
        })
    };
    let decls = |path: &str| -> Vec<(usize, &str)> {
        if edited.contains(path) {
            pub_fns(&tree[path]).collect()
        } else {
            index.decls.get(path).cloned().unwrap_or_default()
        }
    };
    let mut out = Vec::new();
    let mut exempt = BTreeSet::new();
    for &(path, name, outside, why) in CALLED_OUTSIDE {
        exempt.insert((path, name));
        let declared = tree.contains_key(path) && decls(path).iter().any(|&(_, n)| n == name);
        let stale = if !declared {
            format!("`{name}` is no `pub` fn of it")
        } else if let Some(file) = caller(name) {
            format!("`{name}` has a caller in the product code now ({file})")
        } else if !tree
            .get(outside)
            .is_some_and(|t| !product(outside) && names(t, name))
        {
            format!("`{name}`'s row names {outside}, which is no non-product file that names it")
        } else {
            continue;
        };
        out.push(format!(
            "{path}: rule[{id}] {stale}: drop or mend its `CALLED_OUTSIDE` row ({why})"
        ));
    }
    for path in tree.keys().filter(|p| product(p)) {
        for (i, name) in decls(path) {
            if caller(name).is_none() && !exempt.contains(&(path.as_str(), name)) {
                out.push(format!(
                    "{path}:{}: rule[{id}] `{name}` has no caller in the product code or the \
                     harness: delete it, or add a `CALLED_OUTSIDE` row that names its caller",
                    i + 1
                ));
            }
        }
    }
    if !tree.keys().any(|p| under(p, HARNESS)) {
        out.push(missing(HARNESS, id));
    }
    out
}

/// The 1-based line of `key = [` in `manifest` and the quoted entries of
/// that array (`(1, [])` when the key is absent).
fn list(manifest: &str, key: &str) -> (usize, Vec<String>) {
    let lines: Vec<&str> = manifest.lines().collect();
    let Some(start) = lines
        .iter()
        .position(|l| l.split('=').next().is_some_and(|k| k.trim() == key))
    else {
        return (1, Vec::new());
    };
    let mut entries = Vec::new();
    for line in &lines[start..] {
        let code = line.split('#').next().unwrap_or("");
        entries.extend(code.split('"').skip(1).step_by(2).map(String::from));
        if code.contains(']') {
            break;
        }
    }
    (start + 1, entries)
}

/// R9: the root `default-members` holds `"."` and every `members` entry.
/// (Cargo itself refuses a default member that is not a member, so the
/// two lists are then equal.)
fn default_members(manifest: &str) -> Vec<String> {
    let (line, defaults) = list(manifest, "default-members");
    [".".to_string()]
        .into_iter()
        .chain(list(manifest, "members").1)
        .filter(|m| !defaults.contains(m))
        .map(|m| {
            format!(
                "Cargo.toml:{line}: rule[R9] `{m}` is missing from `default-members`: plain \
                 `cargo test` at the root skips its tests"
            )
        })
        .collect()
}

/// R8: the package of `manifest` inherits the workspace lints.
fn lints_inherited(path: &str, manifest: &str) -> Vec<String> {
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[lints]" && line.replace(' ', "") == "workspace=true" {
            return Vec::new();
        }
    }
    let line = manifest
        .lines()
        .position(|l| l.trim() == "[package]")
        .map_or(1, |i| i + 1);
    vec![format!(
        "{path}:{line}: rule[R8] the package does not inherit the workspace lints: add \
         `[lints]` with `workspace = true`"
    )]
}

/// R6: every package in `lock` was resolved from a path.
fn path_only(path: &str, lock: &str) -> Vec<String> {
    let mut name = "";
    let mut out = Vec::new();
    for (i, line) in lock.lines().enumerate() {
        if let Some(n) = line.strip_prefix("name = ") {
            name = n.trim_matches('"');
        } else if let Some(source) = line.strip_prefix("source = ") {
            out.push(format!(
                "{path}:{}: rule[R6] package `{name}` comes from {source}: the workspace \
                 builds offline, from path dependencies only",
                i + 1
            ));
        }
    }
    out
}

/// R5: every `pub const *_VERSION` of a non-runner `crates/*/src/` file is
/// named in `key.rs` outside a `//` comment (its module docs name every
/// salt). A file is read if it or `key.rs` is `fresh`.
fn salts_keyed(tree: &Tree, fresh: impl Fn(&str) -> bool) -> Vec<String> {
    let key: Vec<&str> = tree[KEY_RS].lines().map(code).collect();
    let mut out = Vec::new();
    for (path, text) in tree {
        let engine = path.starts_with("crates/") && path.contains("/src/");
        let runner = path.starts_with("crates/runner/");
        let read = fresh(KEY_RS) || fresh(path);
        if !path.ends_with(".rs") || !engine || runner || !read || !text.contains("_VERSION") {
            continue;
        }
        for (i, line) in text.lines().enumerate() {
            let Some(decl) = code(line).trim_start().strip_prefix("pub const ") else {
                continue;
            };
            let name = decl.split(':').next().unwrap_or("").trim();
            if name.ends_with("_VERSION") && !key.iter().any(|k| names(k, name)) {
                out.push(format!(
                    "{path}:{}: rule[R5] engine version salt `{name}` is not named in \
                     {KEY_RS}: its engine's cache entries outlive a physics change",
                    i + 1
                ));
            }
        }
    }
    out
}

/// `line` up to its first `//`. A `//` inside a string literal also cuts
/// it, which can hide a reference but never invent one.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

/// Whether `code` names `ident` as a whole identifier
/// (`FLOW_ENGINE_VERSION` does not name `ENGINE_VERSION`).
fn names(code: &str, ident: &str) -> bool {
    holds(code, &format!(r"\b{ident}\b"))
}

/// The failures of the tree on disk with `rel`'s text put through `edit`,
/// which must change it. A file the tree lacks starts empty. The rows read
/// only `rel`: the rest is as on disk, where every rule passes.
fn doctored(rel: &str, edit: impl FnOnce(&str) -> String) -> Vec<String> {
    let mut tree = on_disk();
    let text = tree.entry(rel.to_string()).or_default();
    let edited = edit(text);
    assert_ne!(&edited, text, "the edit of {rel} changed nothing");
    *text = edited;
    failures_reading(&tree, |file| file == rel)
}

/// `failures` is one failure of `rule` that names `needle`.
fn only(failures: &[String], rule: &str, needle: &str) {
    assert!(
        failures.len() == 1
            && failures[0].contains(&format!("rule[{rule}]"))
            && failures[0].contains(needle),
        "want one {rule} failure naming {needle}, got {failures:#?}"
    );
}

/// `text` with `f` applied to every line that names `salt` in code.
fn salt_lines(text: &str, salt: &str, f: impl Fn(&str) -> Option<String>) -> String {
    text.lines()
        .filter_map(|l| {
            if names(code(l), salt) {
                f(l)
            } else {
                Some(l.to_string())
            }
        })
        .map(|l| l + "\n")
        .collect()
}

/// A planted hazard's change to one file.
#[derive(Clone, Copy)]
enum Edit {
    /// Append these lines (to a new file if the tree lacks it).
    Append(&'static str),
    /// Replace the first occurrence of the first text with the second.
    Swap(&'static str, &'static str),
    /// Move the file to this path.
    Rename(&'static str),
}

use Edit::{Append, Rename, Swap};

/// Passes: a planted text the rules must accept.
const PASSES: &str = "";

/// What `SELF` may hold and every other `crates/runner/tests/*.rs` may not.
const RUNNER_TEST_NEEDLE: &str = "fn pop_now_if() {}\n";

/// One hazard per rule, and the edges of the matcher: `(rule, path,
/// edit)`, where the edit of `path` must give exactly one failure, of
/// `rule` and naming `path`, or none for [`PASSES`].
const PLANTED: &[(&str, &str, Edit)] = &[
    (
        "R10",
        "crates/stats/src/lib.rs",
        Append("// lint:allow(R2): a second annotation\n"),
    ),
    (
        "R11",
        "tests/cross_crate.rs",
        Append("#![forbid(unsafe_code)]\n"),
    ),
    // A rule that reads whole files reads a `#[cfg(test)]` tail.
    (
        "R12",
        "crates/sim/src/event.rs",
        Append("#[cfg(test)]\nmod planted {\n    fn pop_now_if() {}\n}\n"),
    ),
    (
        "R13",
        "crates/rdcn/src/voq_tor.rs",
        Append("let ctx = CustomCtx::new(now, node);\n"),
    ),
    // `\b`: a longer identifier is not the needle, the needle alone is.
    (
        PASSES,
        "crates/sim/src/link.rs",
        Append("struct PlantedLinkIds;\n"),
    ),
    (
        "R13",
        "crates/sim/src/link.rs",
        Append("pub struct Links;\n"),
    ),
    ("R14", SPEC_RS, Append("fn implied_topology() {}\n")),
    (
        "R15",
        "crates/scenarios/src/trace_engine.rs",
        Append("let body = spec.timeseries().expect(\"timeseries\");\n"),
    ),
    (
        "R16",
        SPEC_RS,
        Swap(
            "let spec = schema::ROOT.read(&root)?;",
            "let spec = match ScenarioKind::of(&root)? { _ => schema::ROOT.read(&root)? };",
        ),
    ),
    (
        "R17",
        "crates/scenarios/src/library.rs",
        Append("let s = ScenarioSpec::timeseries(\"planted\");\n"),
    ),
    (
        PASSES,
        "crates/scenarios/src/library.rs",
        Append("let s = ScenarioSpec::from_toml(text);\n"),
    ),
    (
        "R18",
        "crates/scenarios/src/library.rs",
        Append("fn paper_set() {}\n"),
    ),
    (
        "R19",
        "crates/runner/src/cache.rs",
        Append("let tree: Json = parse_json(bytes)?;\n"),
    ),
    (
        "R20",
        "crates/runner/src/worker.rs",
        Append("fn skip_ws(b: &[u8]) {}\n"),
    ),
    (
        "R21",
        "crates/runner/src/codec.rs",
        Append("w.key(\"buckets\");\n"),
    ),
    (
        "R22",
        "crates/transport/src/host.rs",
        Append("f.snd_una = ack;\n"),
    ),
    // The `AckInfo` field is exempt only where it ends its line.
    (
        "R22",
        "crates/transport/src/host.rs",
        Append("let ack = AckInfo { snd_nxt: f.seq.nxt(), una: f.snd_una };\n"),
    ),
    (
        "R23",
        "crates/scenarios/src/engine.rs",
        Append("let rtt = base_rtt / 2;\n"),
    ),
    (
        "R24",
        TOPOLOGY_RS,
        Append("pub const HEADER: u64 = CTRL_PKT_BYTES as u64;\n"),
    ),
    (
        "R25",
        "crates/baselines/src/hpcc.rs",
        Append("pub struct HpccConfig {\n    pub eta: f64,\n}\n"),
    ),
    (
        "R26",
        TOPOLOGY_RS,
        Append("pub struct Shape {\n    pub pods: usize,\n}\n"),
    ),
    (
        "R27",
        "crates/rdcn/src/topology.rs",
        Append("pub struct Delays {\n    pub circuit_delay: Tick,\n}\n"),
    ),
    (
        "R28",
        "examples/quickstart.rs",
        Append("let homa = HomaConfig::default();\n"),
    ),
    // A row reads every file under its paths, not only Rust sources.
    (
        "R28",
        "crates/scenarios/builtins/fig5.toml",
        Append("# [homa] as in HomaConfig\n"),
    ),
    (
        "R29",
        "crates/rdcn/src/voq_tor.rs",
        Append("struct Planted(Option<VoqGauge>);\n"),
    ),
    (
        "R30",
        "crates/scenarios/src/engine.rs",
        Append("let sw = algo.switch_config(SwitchConfig::default(), p);\n"),
    ),
    (
        "R31",
        "crates/stats/src/percentile.rs",
        Swap(
            "#[cfg(test)]",
            "fn order(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n#[cfg(test)]",
        ),
    ),
    // A rule that stops at `#[cfg(test)]` does not read the tail.
    (
        PASSES,
        "crates/stats/src/percentile.rs",
        Append("#[cfg(test)]\nfn order(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n"),
    ),
    (
        "R32",
        "crates/scenarios/src/report.rs",
        Append("fn jopt(v: Option<f64>) {}\n"),
    ),
    (
        "R33",
        "crates/scenarios/builtins/fig4.toml",
        Swap(
            "kind = \"timeseries\"\n",
            "kind = \"timeseries\"\nhorizon_ms = 5.0\n",
        ),
    ),
    (
        "R33",
        "crates/scenarios/builtins/fig5.toml",
        Append("seeds = [1, 2]\n"),
    ),
    (
        "R34",
        SPEC_RS,
        Swap(
            "pub struct LineupSpec {\n",
            "pub struct LineupSpec {\n    pub seeds: Vec<u64>,\n",
        ),
    ),
    (
        "R35",
        "crates/runner/src/bin/xp2.rs",
        Append("fn main() {}\n"),
    ),
    ("R35", "crates/sim/src/main.rs", Append("fn main() {}\n")),
    ("R36", HTML_RS, Append("//! The daemon's HTML page.\n")),
    (
        "R37",
        "crates/serve/src/http.rs",
        Append("const HTML: &str = \"text/html\";\n"),
    ),
    (
        "R38",
        "crates/flow/src/lib.rs",
        Append("heap.extend(candidates);\n"),
    ),
    (
        "R39",
        "crates/flow/src/lib.rs",
        Append("order.retain(|k| live(k));\n"),
    ),
    (
        "R40",
        "crates/flow/src/reference.rs",
        Append("fn try_single_bottleneck() {}\n"),
    ),
    // A rule cannot go vacuous: the file it names moved.
    (
        "R40",
        "crates/flow/src/reference.rs",
        Rename("crates/flow/src/oracle.rs"),
    ),
    ("R41", "crates/flow/src/lib.rs", Append("caps: Vec<f64>,\n")),
    (
        "R42",
        "crates/scenarios/src/flow_engine.rs",
        Append("let up: Vec<LinkId> = Vec::new();\n"),
    ),
    (
        "R43",
        CI_YML,
        Swap(
            "          cmp crates/scenarios/tests/fig3_baseline.json warm.json || { \
             ./target/release/xp diff crates/scenarios/tests/fig3_baseline.json warm.json; exit 1; }\n",
            "",
        ),
    ),
    (
        "R43",
        CI_YML,
        Append("          ./target/release/xp diff a.json b.json --tol 0\n"),
    ),
    // A pull-request number, spelt in two pieces.
    ("R44", DESIGN_MD, Append(concat!("PR", " 7\n"))),
    (
        "R45",
        "crates/stats/src/lib.rs",
        Append("pub fn planted_uncalled() {}\n"),
    ),
    (
        "R45",
        "crates/core/src/lib.rs",
        Append("pub(crate) const fn planted_uncalled() -> u8 {\n    0\n}\n"),
    ),
    // A `pub use` re-export, on one line or several, names nothing.
    (
        "R45",
        "crates/stats/src/lib.rs",
        Append(
            "mod planted {\n    pub fn planted_reexported() {}\n}\n\
             pub use planted::planted_reexported;\n",
        ),
    ),
    (
        "R45",
        "crates/stats/src/lib.rs",
        Append(
            "mod planted {\n    pub fn planted_reexported() {}\n}\n\
             pub use planted::{\n    planted_reexported,\n};\n",
        ),
    ),
    // An import under an alias names the fn.
    (
        PASSES,
        "crates/stats/src/lib.rs",
        Append("pub fn planted_aliased() {}\nuse self::planted_aliased as aliased;\n"),
    ),
    // A fn below `#[cfg(test)]` is test code.
    (
        PASSES,
        "crates/sim/src/event.rs",
        Append("pub fn planted_uncalled() {}\n"),
    ),
    // An exempt fn that gains a product caller leaves a stale row.
    (
        "R45",
        "crates/sim/src/lib.rs",
        Append("fn planted(q: &mut EventQueue) {\n    q.peek_time();\n}\n"),
    ),
    // Release codegen: weaker, or out of the release profile, or gone
    // (the legacy name `.cargo/config` is not the file the rule reads).
    ("R46", CARGO_CONFIG, Swap("lto = \"fat\"", "lto = \"thin\"")),
    (
        "R46",
        CARGO_CONFIG,
        Swap("\n[profile.release]\n", "\n[profile.checked]\n"),
    ),
    ("R46", CARGO_CONFIG, Rename(".cargo/config")),
    // A second statement, in the root's, a member's or the ledger's
    // manifest, as a plain or a dotted key.
    ("R46", "Cargo.toml", Append("codegen-units = 1\n")),
    (
        "R46",
        "crates/sim/Cargo.toml",
        Append("\n[profile.release]\nlto = true\n"),
    ),
    (
        "R46",
        LEDGER_MANIFEST,
        Append("\n[profile]\nrelease.lto = \"fat\"\n"),
    ),
    // This file lists the needles; every other runner test is read (below).
    (PASSES, SELF, Append(RUNNER_TEST_NEEDLE)),
];

#[test]
fn the_tree_has_the_workspace_shape() {
    let failures = failures(&on_disk());
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_planted_hazard_fails_naming_its_rule() {
    let ids = RULES.iter().map(|r| r.id).chain(CHECKS.iter().map(|c| c.0));
    for id in ids {
        assert!(
            PLANTED.iter().any(|p| p.0 == id),
            "{id} has no planted hazard"
        );
    }
    let runner_tests = on_disk()
        .into_keys()
        .filter(|p| p.starts_with("crates/runner/tests/") && p.ends_with(".rs") && p != SELF);
    let cases = PLANTED
        .iter()
        .map(|&(rule, rel, edit)| (rule, rel.to_string(), edit))
        .chain(runner_tests.map(|rel| ("R12", rel, Append(RUNNER_TEST_NEEDLE))));
    for (rule, rel, edit) in cases {
        let failures = match edit {
            Append(lines) => doctored(&rel, |text| format!("{text}{lines}")),
            Swap(from, to) => doctored(&rel, |text| text.replacen(from, to, 1)),
            Rename(to) => {
                let mut tree = on_disk();
                let text = tree
                    .remove(&rel)
                    .unwrap_or_else(|| panic!("{rel} is not read"));
                tree.insert(to.to_string(), text);
                failures_reading(&tree, |file| file == to)
            }
        };
        if rule == PASSES {
            assert!(failures.is_empty(), "{rel}: {failures:#?}");
        } else {
            only(&failures, rule, &rel);
        }
    }
}

#[test]
fn an_uncalled_pub_fn_fails_naming_it() {
    let failures = doctored("crates/stats/src/lib.rs", |text| {
        format!("{text}pub fn planted_uncalled() {{}}\n")
    });
    only(&failures, "R45", "`planted_uncalled`");
}

#[test]
fn an_alias_import_is_the_only_caller_of_write_array() {
    // `schema.rs` calls `toml::write_array` as `list`: without the import
    // the fn has no caller.
    let failures = doctored("crates/scenarios/src/schema.rs", |text| {
        text.replacen("write_array as list, ", "", 1)
    });
    only(&failures, "R45", "`write_array`");
    assert!(
        failures[0].starts_with("crates/scenarios/src/toml.rs:"),
        "{failures:?}"
    );
}

#[test]
fn the_check_reads_every_salt_declaration_on_disk() {
    // A read that reached no engine source would pass R5 vacuously.
    let tree = on_disk();
    for salt in SALTS {
        let decl = format!("pub const {salt}:");
        let declared = tree
            .iter()
            .any(|(path, text)| path != KEY_RS && text.lines().any(|l| code(l).starts_with(&decl)));
        assert!(declared, "no source the check reads declares {salt}");
    }
}

#[test]
fn a_salt_missing_from_key_rs_fails_naming_it() {
    for salt in SALTS {
        let failures = doctored(KEY_RS, |text| salt_lines(text, salt, |_| None));
        only(&failures, "R5", &format!("`{salt}`"));
    }
}

#[test]
fn a_salt_named_only_in_a_comment_fails() {
    for salt in SALTS {
        let failures = doctored(KEY_RS, |text| {
            salt_lines(text, salt, |l| Some(format!("// {l}")))
        });
        only(&failures, "R5", &format!("`{salt}`"));
    }
}

#[test]
fn a_member_without_lints_workspace_true_fails_naming_its_manifest() {
    let sim = "crates/sim/Cargo.toml";
    let stripped = doctored(sim, |text| text.replace("[lints]\nworkspace = true\n", ""));
    only(&stripped, "R8", sim);
}

#[test]
fn a_package_must_inherit_the_workspace_lints() {
    // A `[lints]` table of its own opts out too.
    let sim = "crates/sim/Cargo.toml";
    let own = doctored(sim, |text| {
        text.replace(
            "[lints]\nworkspace = true\n",
            "[lints.rust]\nunsafe_code = \"allow\"\n",
        )
    });
    only(&own, "R8", sim);
    // The root package is held to it like every member.
    let root = doctored("Cargo.toml", |text| {
        text.replace("[lints]\nworkspace = true\n", "")
    });
    only(&root, "R8", "Cargo.toml:");
    assert!(root[0].starts_with("Cargo.toml:"), "{root:?}");
}

#[test]
fn a_lock_with_a_registry_or_git_source_fails_naming_the_package() {
    for (name, source) in [
        (
            "serde",
            "registry+https://github.com/rust-lang/crates.io-index",
        ),
        ("rand", "git+https://example.com/rand#0123abc"),
    ] {
        for lock in LOCKS {
            let failures = doctored(lock, |text| {
                format!(
                    "{text}\n[[package]]\nname = \"{name}\"\nversion = \"1.0.0\"\n\
                     source = \"{source}\"\n"
                )
            });
            only(&failures, "R6", &format!("package `{name}`"));
            assert!(failures[0].starts_with(&format!("{lock}:")), "{failures:?}");
        }
    }
}

#[test]
fn a_default_members_list_short_one_crate_fails_naming_it() {
    // `default-members` comes first in the root manifest, so the first
    // `crates/serve` row is its.
    let failures = doctored("Cargo.toml", |text| {
        text.replacen("    \"crates/serve\",\n", "", 1)
    });
    only(
        &failures,
        "R9",
        "`crates/serve` is missing from `default-members`",
    );
}
