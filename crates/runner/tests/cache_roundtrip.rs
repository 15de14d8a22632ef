//! Cache round-trip property: for a grid of scenarios, a cold run
//! followed by a warm run is byte-identical in JSON and CSV with 100%
//! hits, and corrupting any cache entry is detected (the point silently
//! recomputes, output still byte-identical).

use dcn_runner::{run, RunConfig};
use dcn_scenarios::{builtin, ScenarioOutput};
use std::fs;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-cachert-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn render(out: &ScenarioOutput) -> (String, String) {
    (out.to_json(), out.to_csv())
}

/// The property, checked per scenario: cold == warm == uncached, with
/// exact hit/miss accounting.
fn check_cold_warm(name: &str) {
    let spec = builtin(name).unwrap();
    let dir = scratch(name);
    let cached = RunConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let (plain, _) = run(
        &spec,
        &RunConfig {
            threads: 2,
            ..RunConfig::default()
        },
    )
    .unwrap();
    let (cold, cold_stats) = run(&spec, &cached).unwrap();
    let (warm, warm_stats) = run(&spec, &cached).unwrap();
    let n = spec.num_points() as u64;
    assert_eq!(
        (cold_stats.cache_hits, cold_stats.cache_misses),
        (0, n),
        "{name} cold"
    );
    assert_eq!(
        (warm_stats.cache_hits, warm_stats.cache_misses),
        (n, 0),
        "{name} warm"
    );
    assert_eq!(
        render(&plain),
        render(&cold),
        "{name}: caching changed bytes"
    );
    assert_eq!(
        render(&cold),
        render(&warm),
        "{name}: warm run changed bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cold_then_warm_is_byte_identical_across_scenario_kinds() {
    // One fat-tree sweep, one star incast sweep, the response curves, one
    // simulated trace, one fluid-model analytic grid, one theorem check,
    // one params-axis sweep: every executor path.
    for name in [
        "fig6-small",
        "fig9to11",
        "fig2",
        "fig5",
        "fig3-small",
        "theorems",
        "gamma-sweep",
    ] {
        check_cold_warm(name);
    }
}

#[test]
fn analytic_keys_invalidate_on_fluid_physics_not_identity() {
    use dcn_runner::item_key;
    use dcn_scenarios::{work_items, AnalyticScenario, ScenarioKind};

    let spec = builtin("fig3-small").unwrap();
    let entries = work_items(&spec);
    let base: Vec<_> = entries.iter().map(|e| item_key(&spec, e)).collect();

    // The salt is the fluid-model version, not the sim engine version:
    // analytic outcomes never touch the simulator, so simulator hot-path
    // PRs must leave the analytic cache warm (and fluid-model PRs must
    // invalidate it).
    for k in &base {
        assert!(
            k.canon.contains(&format!(
                "fluid-model-version={}",
                fluid_model::MODEL_VERSION
            )),
            "{}",
            k.canon
        );
        assert!(!k.canon.contains("engine-version="), "{}", k.canon);
        assert!(k.canon.contains("kind=analytic"), "{}", k.canon);
    }

    // Renaming / re-describing the scenario moves no key.
    let mut renamed = spec.clone();
    renamed.description = "different words".into();
    renamed.name = "fig3-small-renamed".into();
    for (e, k) in entries.iter().zip(&base) {
        assert_eq!(item_key(&renamed, e), *k, "identity must not move keys");
    }

    // Changing the phase grid, which every law entry integrates whole,
    // moves every key.
    let mut tuned = spec.clone();
    let ScenarioKind::Analytic(AnalyticScenario::Phase { w_over_bdp, .. }) = &mut tuned.kind else {
        panic!("fig3-small is a phase portrait");
    };
    w_over_bdp[0] = 0.4;
    for (e, k) in entries.iter().zip(&base) {
        assert_ne!(item_key(&tuned, e), *k, "fluid physics must move keys");
    }
    let mut wider = spec.clone();
    let ScenarioKind::Analytic(AnalyticScenario::Phase { q_over_bdp, .. }) = &mut wider.kind else {
        panic!()
    };
    q_over_bdp.push(4.0);
    for (e, k) in entries.iter().zip(&base) {
        assert_ne!(item_key(&wider, e), *k);
    }

    // And a warm cache stays warm across the rename but not the retune.
    let dir = scratch("analytic-invalidate");
    let cfg = RunConfig {
        cache_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let (_, s1) = run(&spec, &cfg).unwrap();
    assert_eq!(s1.cache_misses, entries.len() as u64);
    let (_, s2) = run(&renamed, &cfg).unwrap();
    assert_eq!(s2.cache_hits, entries.len() as u64, "rename must hit");
    let (_, s3) = run(&tuned, &cfg).unwrap();
    assert_eq!(s3.cache_misses, entries.len() as u64, "retune must miss");
    let _ = fs::remove_dir_all(&dir);
}

/// A key's salt names the engine that computes its entry: the fluid
/// model's version exactly where no simulator runs, so a bump of either
/// misses every entry it could have moved. The salt is chosen by kind,
/// so the first builtin of each shape (kind and `scenario` tag) stands
/// for the others: `fig4-large`, an `incast` trace as `fig4` is, reaches
/// the go-back-N underflow of ROADMAP item 1(a) in a debug build.
#[test]
fn the_salt_names_the_engine_that_computes_the_entry() {
    use dcn_runner::item_key;
    use dcn_scenarios::{builtin_specs, compute, work_items, ScenarioKind};

    let mut shapes = std::collections::BTreeSet::new();
    for spec in builtin_specs() {
        if matches!(spec.kind, ScenarioKind::Sweep(_)) {
            continue;
        }
        let text = spec.to_toml();
        let tag = text.lines().find(|l| l.starts_with("scenario = "));
        if !shapes.insert((spec.kind.key(), tag.map(str::to_owned))) {
            continue;
        }
        let item = &work_items(&spec)[0];
        let (_, stats) = compute(&spec, std::slice::from_ref(item)).remove(0);
        let canon = item_key(&spec, item).canon;
        let fluid = canon.lines().any(|l| l.starts_with("fluid-model-version="));
        assert_eq!(
            fluid,
            stats.is_none(),
            "{}: fluid-model salt {fluid}, simulator ran {}",
            spec.name,
            stats.is_some()
        );
    }
    assert_eq!(shapes.len(), 7, "{shapes:?}");
}

#[test]
fn corrupted_entries_are_detected_and_recomputed() {
    let spec = builtin("fig6-small").unwrap();
    let dir = scratch("corrupt");
    let cfg = RunConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let (cold, _) = run(&spec, &cfg).unwrap();

    // Corrupt every entry a different way: truncation, bit flips in the
    // payload, full garbage.
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), spec.num_points());
    let text = fs::read_to_string(&entries[0]).unwrap();
    fs::write(&entries[0], &text[..text.len() / 3]).unwrap();
    fs::write(
        &entries[1],
        "{\"format\": 1, \"canon\": \"junk\", \"payload\": {}}",
    )
    .unwrap();

    let (redone, stats) = run(&spec, &cfg).unwrap();
    assert_eq!(stats.cache_hits, 0, "all entries were corrupted");
    assert_eq!(stats.cache_misses, spec.num_points() as u64);
    assert_eq!(cold.to_json(), redone.to_json());
    assert_eq!(cold.to_csv(), redone.to_csv());

    // The recompute healed the cache.
    let (healed, stats) = run(&spec, &cfg).unwrap();
    assert_eq!(stats.cache_hits, spec.num_points() as u64);
    assert_eq!(cold.to_json(), healed.to_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn editing_the_spec_physics_invalidates_while_identity_does_not() {
    let dir = scratch("invalidate");
    let cfg = RunConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let spec = builtin("fig6-small").unwrap();
    let (_, s1) = run(&spec, &cfg).unwrap();
    assert_eq!(s1.cache_misses, 2);

    // Renaming/redescribing is identity, not physics: still 100% hits.
    let mut renamed = spec.clone();
    renamed.description = "renamed".into();
    renamed.name = "fig6-small-renamed".into();
    let (_, s2) = run(&renamed, &cfg).unwrap();
    assert_eq!((s2.cache_hits, s2.cache_misses), (2, 0));

    // Changing the horizon is physics: full miss.
    let hotter = spec.clone().horizon_ms(5.0);
    let (_, s3) = run(&hotter, &cfg).unwrap();
    assert_eq!(s3.cache_hits, 0);
    let _ = fs::remove_dir_all(&dir);
}
