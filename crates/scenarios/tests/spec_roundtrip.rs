//! Spec round-trip: a scenario written as TOML parses back to the same
//! spec, and the parsed spec *runs* — producing the same results as the
//! spec built in code (TOML is a faithful interface to the engine, not
//! just to the data structure). Every builtin is a TOML file, pinned
//! here to the text its spec writes.

mod support;

use dcn_scenarios::library::BUILTINS;
use dcn_scenarios::spec::rotor_run_length;
use dcn_scenarios::{
    builtin, builtin_specs, run_sweep, work_items, Algo, EngineKind, IncastSpec, ScenarioKind,
    ScenarioSpec, SizeSpec, SweepBody, TopologySpec, TraceScenario,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use support::{corpus, mutate, EXTRAS};

/// A fig7-shaped scenario (websearch + incast on the fat-tree, PowerTCP
/// vs two baselines) trimmed to one load and a short horizon so the
/// round-trip test runs in seconds.
fn fig7_trimmed() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "fig7-trimmed",
        TopologySpec::FatTree {
            hosts_per_tor: 2,
            host_gbps: 25.0,
            fabric_gbps: 12.5,
        },
    )
    .poisson(SizeSpec::Websearch)
    .seeds([42])
    .horizon_ms(2.0)
    .drain_ms(4.0);
    spec.description = "fig7 acceptance scenario: websearch + incast, 3 protocols".into();
    let sweep = body(&mut spec);
    sweep.workload.incast = Some(IncastSpec {
        rate_per_sec: 800.0,
        request_bytes: 400_000,
        fan_in: 4,
        periodic: false,
    });
    sweep.sweep.algos = vec![Algo::PowerTcp, Algo::ThetaPowerTcp, Algo::Hpcc];
    sweep.sweep.loads = vec![0.4];
    spec
}

/// The sweep body of a sweep spec, to edit.
fn body(spec: &mut ScenarioSpec) -> &mut SweepBody {
    let ScenarioKind::Sweep(body) = &mut spec.kind else {
        unreachable!("{} is a sweep", spec.name)
    };
    body
}

#[test]
fn toml_parses_back_to_the_same_spec() {
    let spec = fig7_trimmed();
    let text = spec.to_toml();
    let parsed = ScenarioSpec::from_toml(&text).expect("re-parse");
    assert_eq!(parsed, spec);
    // And the rendering is stable (parse -> render -> parse fixpoint).
    assert_eq!(parsed.to_toml(), text);
}

#[test]
fn parsed_toml_runs_identically_to_the_builder_spec() {
    let spec = fig7_trimmed();
    let parsed = ScenarioSpec::from_toml(&spec.to_toml()).expect("re-parse");

    let from_builder = run_sweep(&spec, 2).expect("builder spec runs");
    let from_toml = run_sweep(&parsed, 2).expect("parsed spec runs");
    assert_eq!(from_builder.to_json(), from_toml.to_json());

    // The fig7-equivalent acceptance shape: three protocols compared on
    // websearch + incast, flows actually complete under every one.
    assert_eq!(from_toml.aggregates.len(), 3);
    for a in &from_toml.aggregates {
        assert!(a.offered > 10, "{}: offered {}", a.algo_name, a.offered);
        assert!(
            a.completed as f64 >= 0.8 * a.offered as f64,
            "{}: completed {}/{}",
            a.algo_name,
            a.completed,
            a.offered
        );
        assert!(a.short.is_some(), "{}: no short-flow samples", a.algo_name);
        assert!(a.buffer_p99.is_some());
    }
}

#[test]
fn engine_and_buffer_cdf_round_trip_and_default_away() {
    // Defaults are omitted from the rendering: a packet spec's TOML
    // must not mention either key (pre-existing TOML fragments, cache
    // fragments, and pinned baselines stay byte-identical).
    let packet = fig7_trimmed();
    let text = packet.to_toml();
    assert!(!text.contains("engine"), "{text}");
    assert!(!text.contains("buffer_cdf"), "{text}");

    // Non-defaults render, parse back, and reach a fixpoint.
    let mut flow = fig7_trimmed();
    body(&mut flow).engine = EngineKind::Flow;
    let text = flow.to_toml();
    assert!(text.contains("engine = \"flow\""), "{text}");
    let parsed = ScenarioSpec::from_toml(&text).expect("re-parse");
    assert_eq!(parsed, flow);
    assert_eq!(parsed.to_toml(), text);

    let mut cdf = fig7_trimmed();
    body(&mut cdf).buffer_cdf = true;
    let text = cdf.to_toml();
    assert!(text.contains("buffer_cdf = true"), "{text}");
    let parsed = ScenarioSpec::from_toml(&text).expect("re-parse");
    assert_eq!(parsed, cdf);
    // buffer_cdf is a report option, not physics: the cache fragment
    // strips it, so enabling the CDF never invalidates cached points.
    assert_eq!(cdf.cache_fragment(), fig7_trimmed().cache_fragment());
    // The engine *is* physics: it must stay in the fragment.
    assert_ne!(flow.cache_fragment(), fig7_trimmed().cache_fragment());
}

#[test]
fn flow_engine_rejects_per_packet_features_with_clear_errors() {
    // engine = "flow" + buffer_cdf: the flow model has no switch
    // buffers to sample.
    let mut spec = fig7_trimmed();
    let sweep = body(&mut spec);
    sweep.engine = EngineKind::Flow;
    sweep.buffer_cdf = true;
    let err = spec
        .validate()
        .expect_err("flow + buffer_cdf must not validate");
    assert!(
        err.contains("buffer_cdf requires the packet engine"),
        "{err}"
    );

    // engine on a timeseries spec is rejected at parse time.
    let trace_toml = dcn_scenarios::builtin("fig4").unwrap().to_toml();
    let with_engine = trace_toml.replace("[trace]", "engine = \"flow\"\n\n[trace]");
    let err = ScenarioSpec::from_toml(&with_engine).expect_err("trace + engine must not parse");
    assert!(err.contains("engine is a sweep setting"), "{err}");

    // ... and on an analytic spec.
    let analytic_toml = dcn_scenarios::builtin("fig3-small").unwrap().to_toml();
    let with_engine = analytic_toml.replace("[analytic]", "engine = \"flow\"\n\n[analytic]");
    let err = ScenarioSpec::from_toml(&with_engine).expect_err("analytic + engine must not parse");
    assert!(err.contains("engine is a sweep setting"), "{err}");

    // Unknown engine names fail with the accepted set in the message.
    let sweep_toml = fig7_trimmed().to_toml();
    let bad = sweep_toml.replace("[topology]", "engine = \"quantum\"\n\n[topology]");
    let err = ScenarioSpec::from_toml(&bad).expect_err("unknown engine must not parse");
    assert!(err.contains("expected packet or flow"), "{err}");
}

/// `text` less its whole-line `#` comments is exactly what the spec it
/// parses to writes, and that text reads back as the same spec.
fn assert_canonical(label: &str, text: &str) -> ScenarioSpec {
    let spec = ScenarioSpec::from_toml(text).unwrap_or_else(|e| panic!("{label}: {e}"));
    let bare: String = (text.split_inclusive('\n'))
        .filter(|line| !line.starts_with('#'))
        .collect();
    assert_eq!(bare, spec.to_toml(), "{label}: rewrite it from `xp show`");
    assert_eq!(ScenarioSpec::from_toml(&bare), Ok(spec.clone()), "{label}");
    spec
}

/// Every builtin is `builtins/<name>.toml`, listed once in `BUILTINS`,
/// and holds the exact `to_toml()` text of its spec plus whole-line
/// comments: a key reorder there would move every cache key and orphan
/// every `.xp-cache` on disk. The shapes no builtin has are held to the
/// same identity.
#[test]
fn every_builtin_round_trips_through_toml() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/builtins");
    let mut names = BTreeSet::new();
    for &(name, text) in BUILTINS {
        assert!(
            names.insert(format!("{name}.toml")),
            "{name} is listed twice"
        );
        let file = std::fs::read_to_string(format!("{dir}/{name}.toml"))
            .unwrap_or_else(|e| panic!("builtins/{name}.toml: {e}"));
        assert_eq!(file, text, "the {name} row is not builtins/{name}.toml");
        let spec = assert_canonical(name, text);
        assert_eq!(spec.name, name);
        assert_eq!(builtin(name), Some(spec));
    }
    assert!(builtin("nope").is_none());
    let listed: Vec<String> = builtin_specs().into_iter().map(|s| s.name).collect();
    let rows: Vec<&str> = BUILTINS.iter().map(|&(name, _)| name).collect();
    assert_eq!(listed, rows, "builtin_specs() is BUILTINS in order");
    let files: BTreeSet<String> = std::fs::read_dir(dir)
        .expect("the builtins directory")
        .map(|entry| entry.expect("a directory entry").file_name())
        .map(|name| name.into_string().expect("a UTF-8 file name"))
        .collect();
    assert_eq!(files, names, "builtins/ holds exactly the listed files");
    for text in EXTRAS {
        assert_canonical("extra", text);
    }
}

/// The exact `cache_fragment()` text of every builtin and extra, pinned
/// byte-for-byte: the other half of every cache key (the spec text
/// itself is pinned by the files, above). Regenerate deliberately with
/// `GOLDEN_REGEN=1 cargo test -p dcn-scenarios --test spec_roundtrip`.
#[test]
fn builtin_spec_and_fragment_text_is_pinned() {
    const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/builtin_specs.golden");
    let mut text = String::new();
    for spec in corpus() {
        text.push_str(&format!(
            "=== {} cache_fragment ===\n{}",
            spec.name,
            spec.cache_fragment()
        ));
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
        "spec or cache-fragment text drifted from the pinned golden: every \
         cache key moves with it"
    );
}

/// What `from_toml` returning `Ok` promises.
fn assert_sound(text: &str) {
    let Ok(spec) = ScenarioSpec::from_toml(text) else {
        return;
    };
    assert_eq!(spec.validate(), Ok(()), "{text}");
    let rendered = spec.to_toml();
    assert_eq!(
        ScenarioSpec::from_toml(&rendered),
        Ok(spec.clone()),
        "{text}"
    );
    // None of these may panic (non-finite or negative time boxes did,
    // and a run of 4e9 rotor weeks overflowed in the engine).
    let _ = spec.cache_fragment();
    match &spec.kind {
        ScenarioKind::Sweep(sweep) => assert!(sweep.horizon() <= sweep.run_end(), "{text}"),
        ScenarioKind::Timeseries(timeseries) => {
            if let TraceScenario::Rdcn { weeks, .. } = timeseries.trace.scenario {
                assert!(rotor_run_length(weeks).is_ok(), "{text}")
            }
        }
        ScenarioKind::Analytic(_) => {}
    }
    // Whatever it is, it expands to the work it says it has.
    let items = work_items(&spec);
    assert!(!items.is_empty(), "{text}");
    assert_eq!(items.len(), spec.num_points(), "{text}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Arbitrary bytes never panic the TOML parser or the spec reader.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        bytes in prop::collection::vec(0u8..=255, 0usize..200),
        // Mostly TOML-shaped noise: the alphabet spec files are made of.
        shaped in prop::collection::vec(0usize..24, 0usize..120),
    ) {
        const ALPHABET: &[u8] = b"[]=\"\n.,# -_0123456789aeinfkst";
        assert_sound(&String::from_utf8_lossy(&bytes));
        let shaped: Vec<u8> = shaped.iter().map(|&i| ALPHABET[i]).collect();
        assert_sound(&String::from_utf8_lossy(&shaped));
    }

    /// Up to three hostile edits of every builtin (and of the shapes no
    /// builtin has): the reader never panics, and whatever it still
    /// accepts is valid, round-trips, and has a time box and a lineup.
    #[test]
    fn mutated_specs_never_panic_and_stay_sound(
        which in 0usize..64,
        edits in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 1usize..=3),
    ) {
        let specs = corpus();
        let mut text = specs[which % specs.len()].to_toml();
        for (a, b, c) in edits {
            text = mutate(&text, &[a, b, c]);
            if text.is_empty() {
                break;
            }
            assert_sound(&text);
        }
    }
}
