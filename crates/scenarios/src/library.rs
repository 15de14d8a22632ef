//! Built-in scenario library: the paper's figure experiments as TOML
//! files under `crates/scenarios/builtins/`, one per builtin, compiled
//! into the binary.
//!
//! These default to the `tiny` fat-tree scale (seconds of wall time per
//! sweep) so they are runnable anywhere; scale up by editing the TOML
//! that `xp show <name>` prints (e.g. `hosts_per_tor = 8` +
//! `fabric_gbps = 25.0` for the 64-host `bench` scale, `32` +
//! `fabric_gbps = 100.0` for the paper's 256-host fabric). Every figure
//! and panel of the paper is an entry here (EXPERIMENTS.md maps them):
//! a new experiment is a builtin or a TOML file, never a binary.

use crate::spec::ScenarioSpec;

/// `(name, text of builtins/<name>.toml)`: the row's name is the file
/// stem by construction.
macro_rules! builtin_file {
    ($name:literal) => {
        ($name, include_str!(concat!("../builtins/", $name, ".toml")))
    };
}

/// Every builtin as `(name, file text)`, in `xp list` order. New rows
/// are appended, never inserted: `xp list` keeps its order and the
/// goldens only grow at the end. Each file is its spec's `to_toml()`
/// text plus whole-line `#` comments, which
/// `spec_roundtrip.rs::every_builtin_round_trips_through_toml` checks.
pub static BUILTINS: &[(&str, &str)] = &[
    builtin_file!("fig2"),
    builtin_file!("fig3"),
    builtin_file!("fig3-small"),
    builtin_file!("fig4"),
    builtin_file!("fig5"),
    builtin_file!("fig6"),
    builtin_file!("fig6-small"),
    builtin_file!("fig7"),
    builtin_file!("fig7-flow"),
    builtin_file!("fig8"),
    builtin_file!("fig9to11"),
    builtin_file!("fattree-100k"),
    builtin_file!("fattree-100k-smoke"),
    builtin_file!("ablations"),
    builtin_file!("theorems"),
    builtin_file!("gamma-sweep"),
    builtin_file!("incast-battle"),
    builtin_file!("fig4-large"),
    builtin_file!("fig7-load"),
    builtin_file!("fig7-rate1"),
    builtin_file!("fig7-rate4"),
    builtin_file!("fig7-rate8"),
    builtin_file!("fig7-rate16"),
    builtin_file!("fig7-size1"),
    builtin_file!("fig7-size4"),
    builtin_file!("fig7-size6"),
    builtin_file!("fig7-size8"),
    builtin_file!("fig8-50g"),
    builtin_file!("fig9"),
    builtin_file!("fig10"),
    builtin_file!("fig11"),
];

fn parse((_, text): &(&str, &str)) -> ScenarioSpec {
    ScenarioSpec::from_toml(text)
        .expect("a builtin file parses (spec_roundtrip.rs::every_builtin_round_trips_through_toml)")
}

/// All built-in scenarios, in `xp list` order.
pub fn builtin_specs() -> Vec<ScenarioSpec> {
    BUILTINS.iter().map(parse).collect()
}

/// Look up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    BUILTINS.iter().find(|(n, _)| *n == name).map(parse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Algo;

    #[test]
    fn trace_builtins_are_timeseries_with_expected_lineups() {
        let spec = |name| builtin(name).expect("a builtin");
        for name in ["fig4", "fig5", "fig8"] {
            assert_eq!(spec(name).kind.key(), "timeseries", "{name}");
        }
        // Figure 2 is the fluid model's response curves: one analytic entry.
        assert_eq!(spec("fig2").kind.key(), "analytic");
        assert_eq!(spec("fig2").num_points(), 1);
        assert_eq!(spec("fig4").num_points(), 6); // the paper's Figure 4/6 set
        assert_eq!(spec("fig5").num_points(), 4);
        assert_eq!(spec("fig8").num_points(), 4); // powertcp + 2x retcp + hpcc
    }

    #[test]
    fn fig7_covers_the_acceptance_scenario() {
        // websearch + incast, PowerTCP vs >= 2 baselines.
        let spec = builtin("fig7").expect("fig7 is a builtin");
        let sweep = spec.sweep_body("fig7");
        assert!(sweep.workload.poisson.is_some());
        assert!(sweep.workload.incast.is_some());
        assert!(sweep.sweep.algos.contains(&Algo::PowerTcp));
        assert!(sweep.sweep.algos.len() >= 3);
        assert!(spec.num_points() >= 2);
    }
}
