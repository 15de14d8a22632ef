//! Determinism contract of the analytic engine: the built-in `fig3`,
//! `ablations` and `theorems` fluid-model scenarios produce
//! byte-identical JSON/CSV regardless of worker thread count, across
//! repeated runs, and — via the pinned golden files — across PRs (`dcn-runner` extends the same
//! pin to `--procs` sharding and cache states).
//!
//! To regenerate the goldens after an intentional fluid-model change
//! (bump `fluid_model::MODEL_VERSION` too!):
//! `GOLDEN_REGEN=1 cargo test -p dcn-scenarios --test analytic_determinism`.

use dcn_scenarios::{builtin, diff_reports, run_trace};

fn baseline_path(name: &str) -> String {
    format!(
        "{}/tests/{}_baseline.json",
        env!("CARGO_MANIFEST_DIR"),
        name
    )
}

fn check_pinned(name: &str) {
    let spec = builtin(name).unwrap_or_else(|| panic!("builtin {name}"));
    let t1 = run_trace(&spec, 1).expect("1 thread");
    let t4 = run_trace(&spec, 4).expect("4 threads");
    let json = t1.to_json();
    assert_eq!(json, t4.to_json(), "{name}: JSON differs at 4 threads");
    assert_eq!(t1.to_csv(), t4.to_csv(), "{name}: CSV differs at 4 threads");
    let again = run_trace(&spec, 4).expect("second run");
    assert_eq!(json, again.to_json(), "{name}: reruns must replay");

    let path = baseline_path(name);
    #[expect(
        clippy::disallowed_methods,
        reason = "GOLDEN_REGEN is the golden-regen toggle: it picks write-then-compare, never a result"
    )]
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    if regen {
        std::fs::write(&path, &json).expect("write golden");
    }
    let want = std::fs::read_to_string(&path)
        .expect("analytic baseline missing; regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        json, want,
        "{name} drifted from the pinned baseline; if the fluid model \
         changed intentionally, bump fluid_model::MODEL_VERSION and \
         regenerate with GOLDEN_REGEN=1"
    );
    let d = diff_reports(&json, &want, 0.0).expect("diffable");
    assert!(d.is_match(), "{:?}", d.differences);
}

#[test]
fn fig3_is_byte_identical_and_pinned() {
    check_pinned("fig3");
}

#[test]
fn ablations_is_byte_identical_and_pinned() {
    check_pinned("ablations");
}

#[test]
fn theorems_is_byte_identical_and_pinned() {
    // The `pass` flags alone would hide a drift in the convergence fit or
    // the fairness iteration that still passes.
    check_pinned("theorems");
}

#[test]
fn analytic_entries_differ_across_grid_points() {
    // Guard against a degenerate "deterministic because constant"
    // engine: different laws and different swept values must actually
    // produce different numbers.
    let fig3 = builtin("fig3").unwrap();
    let r = run_trace(&fig3, 2).expect("fig3");
    assert_eq!(r.entries.len(), 3);
    let spread = |i: usize| r.entries[i].stat("endpoint_spread_bytes").unwrap();
    assert_ne!(spread(0), spread(1), "laws must separate");
    let ab = run_trace(&builtin("ablations").unwrap(), 2).expect("ablations");
    let taus: Vec<f64> = ab
        .entries
        .iter()
        .filter_map(|e| e.stat("fitted_tau_us"))
        .collect();
    assert!(
        taus.windows(2).any(|w| w[0] != w[1]),
        "gammas must separate"
    );
}

#[test]
fn theorems_pass_through_the_executor() {
    let r = run_trace(&builtin("theorems").unwrap(), 3).expect("theorems");
    assert_eq!(r.entries.len(), 3);
    for e in &r.entries {
        assert_eq!(e.stat("pass"), Some(1.0), "{} failed", e.label);
    }
}
