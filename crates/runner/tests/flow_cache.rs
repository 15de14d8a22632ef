//! Cache and sharding contract of the flow engine: `fig7-flow` is
//! byte-identical cold, warm, and under `--procs` sharding; its cache
//! keys are salted by `dcn_flow::FLOW_ENGINE_VERSION` and *not* by the
//! packet-simulator version, so simulator hot-path PRs leave the flow
//! cache warm (and flow-engine PRs leave every packet baseline warm).

use dcn_runner::{point_key, run, RunConfig};
use dcn_scenarios::{builtin, sweep_points, EngineKind, ScenarioKind, ScenarioOutput};
use std::fs;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xp-flowcache-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn render(out: &ScenarioOutput) -> (String, String) {
    (out.to_json(), out.to_csv())
}

#[test]
fn fig7_flow_is_byte_identical_cold_warm_and_sharded() {
    let spec = builtin("fig7-flow").unwrap();
    let n = spec.num_points() as u64;
    let dir = scratch("coldwarm");

    let (plain, _) = run(
        &spec,
        &RunConfig {
            threads: 2,
            ..RunConfig::default()
        },
    )
    .unwrap();
    let cached = RunConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let (cold, cold_stats) = run(&spec, &cached).unwrap();
    let (warm, warm_stats) = run(&spec, &cached).unwrap();
    assert_eq!((cold_stats.cache_hits, cold_stats.cache_misses), (0, n));
    assert_eq!((warm_stats.cache_hits, warm_stats.cache_misses), (n, 0));
    assert_eq!(render(&plain), render(&cold), "caching changed bytes");
    assert_eq!(render(&cold), render(&warm), "warm run changed bytes");

    // Sharding across worker processes changes neither bytes nor hits.
    let sharded = RunConfig {
        procs: 2,
        cache_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let (procs, procs_stats) = run(&spec, &sharded).unwrap();
    assert_eq!(
        (procs_stats.cache_hits, procs_stats.cache_misses),
        (n, 0),
        "worker processes must share the warm cache"
    );
    assert_eq!(render(&warm), render(&procs), "--procs changed bytes");

    // And a cold sharded run reproduces the same bytes from scratch.
    let dir2 = scratch("coldprocs");
    let (cold_procs, s) = run(
        &spec,
        &RunConfig {
            procs: 2,
            cache_dir: Some(dir2.clone()),
            ..RunConfig::default()
        },
    )
    .unwrap();
    assert_eq!((s.cache_hits, s.cache_misses), (0, n));
    assert_eq!(render(&plain), render(&cold_procs));
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

#[test]
fn flow_keys_carry_the_flow_salt_and_packet_keys_do_not() {
    let flow = builtin("fig7-flow").unwrap();
    let packet = builtin("fig7").unwrap();
    let flow_salt = format!("flow-engine-version={}", dcn_flow::FLOW_ENGINE_VERSION);
    let sim_salt = format!("engine-version={}", dcn_sim::ENGINE_VERSION);

    for p in &sweep_points(&flow) {
        let k = point_key(&flow, p);
        assert!(k.canon.contains(&flow_salt), "{}", k.canon);
        assert!(!k.canon.contains(&format!("\n{sim_salt}")), "{}", k.canon);
    }
    for p in &sweep_points(&packet) {
        let k = point_key(&packet, p);
        assert!(k.canon.contains(&sim_salt), "{}", k.canon);
        assert!(!k.canon.contains("flow-engine-version="), "{}", k.canon);
    }
}

#[test]
fn switching_engines_misses_while_identity_stays_warm() {
    let dir = scratch("engine-toggle");
    let cfg = RunConfig {
        threads: 2,
        cache_dir: Some(dir.clone()),
        ..RunConfig::default()
    };
    let spec = builtin("fig7-flow").unwrap();
    let n = spec.num_points() as u64;
    let (_, s1) = run(&spec, &cfg).unwrap();
    assert_eq!(s1.cache_misses, n);

    // Rename/redescribe is identity: still 100% hits.
    let mut renamed = spec.clone();
    renamed.description = "same physics, new words".into();
    renamed.name = "fig7-flow-renamed".into();
    let (_, s2) = run(&renamed, &cfg).unwrap();
    assert_eq!((s2.cache_hits, s2.cache_misses), (n, 0));

    // Flipping the engine back to packet is different physics under a
    // different salt: every point misses, nothing aliases.
    let mut as_packet = spec.clone();
    let ScenarioKind::Sweep(body) = &mut as_packet.kind else {
        unreachable!("fig7-flow is a sweep")
    };
    body.engine = EngineKind::Packet;
    for (fp, pp) in sweep_points(&spec).iter().zip(&sweep_points(&as_packet)) {
        assert_ne!(point_key(&spec, fp), point_key(&as_packet, pp));
    }
    let (_, s3) = run(&as_packet, &cfg).unwrap();
    assert_eq!(s3.cache_hits, 0, "engine flip must not alias cache keys");
    let _ = fs::remove_dir_all(&dir);
}
