//! Spec round-trip: a scenario written as TOML parses back to the same
//! spec, and the parsed spec *runs* — producing the same results as the
//! builder-constructed original (TOML is a faithful interface to the
//! engine, not just to the data structure).

mod support;

use dcn_scenarios::{
    builtin_specs, run_sweep, work_items, Algo, EngineKind, IncastSpec, ScenarioKind, ScenarioSpec,
    SizeSpec, TopologySpec,
};
use proptest::prelude::*;
use support::{corpus, mutate};

/// A fig7-shaped scenario (websearch + incast on the fat-tree, PowerTCP
/// vs two baselines) trimmed to one load and a short horizon so the
/// round-trip test runs in seconds.
fn fig7_trimmed() -> ScenarioSpec {
    ScenarioSpec::new(
        "fig7-trimmed",
        TopologySpec::FatTree {
            hosts_per_tor: 2,
            host_gbps: 25.0,
            fabric_gbps: 12.5,
        },
    )
    .describe("fig7 acceptance scenario: websearch + incast, 3 protocols")
    .poisson(SizeSpec::Websearch)
    .incast(IncastSpec {
        rate_per_sec: 800.0,
        request_bytes: 400_000,
        fan_in: 4,
        periodic: false,
    })
    .algos([Algo::PowerTcp, Algo::ThetaPowerTcp, Algo::Hpcc])
    .loads([0.4])
    .seeds([42])
    .horizon_ms(2.0)
    .drain_ms(4.0)
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
    let flow = fig7_trimmed().engine(EngineKind::Flow);
    let text = flow.to_toml();
    assert!(text.contains("engine = \"flow\""), "{text}");
    let parsed = ScenarioSpec::from_toml(&text).expect("re-parse");
    assert_eq!(parsed, flow);
    assert_eq!(parsed.to_toml(), text);

    let cdf = fig7_trimmed().buffer_cdf(true);
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
    let err = fig7_trimmed()
        .engine(EngineKind::Flow)
        .buffer_cdf(true)
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

#[test]
fn every_builtin_round_trips_through_toml() {
    for spec in builtin_specs() {
        let text = spec.to_toml();
        let parsed =
            ScenarioSpec::from_toml(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(parsed, spec, "{}", spec.name);
    }
}

/// The exact `to_toml()` and `cache_fragment()` text of every builtin,
/// pinned byte-for-byte: round-trip identity alone would pass a key
/// reorder that moves every cache key and orphans every `.xp-cache` on
/// disk. Regenerate deliberately with
/// `GOLDEN_REGEN=1 cargo test -p dcn-scenarios --test spec_roundtrip`.
#[test]
fn builtin_spec_and_fragment_text_is_pinned() {
    const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/builtin_specs.golden");
    let mut text = String::new();
    for spec in corpus() {
        text.push_str(&format!(
            "=== {} to_toml ===\n{}",
            spec.name,
            spec.to_toml()
        ));
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
            assert!(timeseries.run_length().is_ok(), "{text}")
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
