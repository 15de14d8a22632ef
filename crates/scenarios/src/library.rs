//! Built-in scenario library: the paper's figure experiments re-expressed
//! as declarative specs.
//!
//! These default to the `tiny` fat-tree scale (seconds of wall time per
//! sweep) so they are runnable anywhere; scale up by editing the TOML
//! that `xp show <name>` prints (e.g. `hosts_per_tor = 8` +
//! `fabric_gbps = 25.0` for the 64-host `bench` scale, `32` +
//! `fabric_gbps = 100.0` for the paper's 256-host fabric). Every figure
//! and panel of the paper is an entry here (EXPERIMENTS.md maps them):
//! a new experiment is a builtin or a TOML file, never a binary.

use crate::algo::Algo;
use crate::spec::{
    AnalyticScenario, AnalyticSpec, EngineKind, IncastSpec, ParamSpec, ScenarioSpec, SizeSpec,
    TopologySpec, TraceScenario, TraceSpec,
};
use fluid_model::Law;

/// The `[trace]` table's default probe configuration, sampled every
/// `tick_us`.
fn trace_spec(scenario: TraceScenario, tick_us: f64) -> TraceSpec {
    TraceSpec {
        tick_us,
        ..TraceSpec::new(scenario)
    }
}

/// The `tiny`-scale fat-tree (16 hosts, 2:1 oversubscription) used by
/// the built-in specs.
fn tiny_fat_tree() -> TopologySpec {
    TopologySpec::FatTree {
        hosts_per_tor: 2,
        host_gbps: 25.0,
        fabric_gbps: 12.5,
    }
}

/// Figure 2: the analytic voltage/current/power response curves of the
/// fluid model (§2.2) — multiplicative decrease vs queue buildup rate,
/// vs queue length, and the three blind-spot cases.
pub fn fig2() -> ScenarioSpec {
    ScenarioSpec::timeseries("fig2", trace_spec(TraceScenario::Response, 1.0)).describe(
        "orthogonal responses of voltage- and current-based CC: analytic MD \
         curves and the three-case blind-spot table, paper Figure 2",
    )
}

/// Figure 4: reaction to a 10:1 incast onto a 25G downlink — throughput,
/// bottleneck queue, long-flow cwnd, and PowerTCP Γ over time.
pub fn fig4() -> ScenarioSpec {
    ScenarioSpec::timeseries(
        "fig4",
        trace_spec(
            TraceScenario::Incast {
                fan_in: 10,
                burst_bytes: 150_000,
                at_ms: 1.0,
            },
            20.0,
        ),
    )
    .describe(
        "10:1 incast onto a 25G downlink: queue/throughput/cwnd/power \
         traces per protocol, paper Figure 4 (top row; scale fan_in for \
         the bottom row)",
    )
    .algos(Algo::paper_set())
    .horizon_ms(5.0)
}

/// Figure 5: fairness and stability — four flows joining a shared 25G
/// bottleneck at 1 ms intervals.
pub fn fig5() -> ScenarioSpec {
    ScenarioSpec::timeseries(
        "fig5",
        trace_spec(
            TraceScenario::Fairness {
                flows: 4,
                stagger_ms: 1.0,
            },
            50.0,
        ),
    )
    .describe(
        "fairness & stability: 4 staggered flows on one 25G bottleneck, \
         per-flow throughput/cwnd traces and Jain index, paper Figure 5",
    )
    .algos([
        Algo::PowerTcp,
        Algo::Homa(1),
        Algo::ThetaPowerTcp,
        Algo::Timely,
    ])
    .horizon_ms(6.0)
}

/// Figure 8: the reconfigurable-datacenter case study — rack-pair
/// throughput and VOQ occupancy over two rotor weeks for PowerTCP, reTCP
/// (600/1800 µs prebuffering), and HPCC.
pub fn fig8() -> ScenarioSpec {
    ScenarioSpec::timeseries(
        "fig8",
        trace_spec(
            TraceScenario::Rdcn {
                weeks: 2,
                packet_gbps: 25.0,
                retcp_prebuffer_us: vec![600.0, 1800.0],
            },
            10.0,
        ),
    )
    .describe(
        "RDCN case study: rack-pair throughput and VOQ occupancy over the \
         rotor schedule, PowerTCP vs reTCP (600/1800us prebuffer) vs HPCC, \
         paper Figure 8",
    )
    .algos([Algo::PowerTcp, Algo::ReTcp, Algo::Hpcc])
}

/// Figure 3: phase portraits of the fluid model — the queue-length
/// (voltage), RTT-gradient (current), and power control laws integrated
/// from the paper's grid of initial `(window, queue)` states at
/// 100 Gbps / 20 µs.
pub fn fig3() -> ScenarioSpec {
    ScenarioSpec::new_analytic(
        "fig3",
        AnalyticSpec::new(AnalyticScenario::Phase {
            laws: vec![Law::QueueLength, Law::RttGradient, Law::Power],
            w_over_bdp: fluid_model::DEFAULT_W_FRACS.to_vec(),
            q_over_bdp: fluid_model::DEFAULT_Q_FRACS.to_vec(),
        }),
    )
    .describe(
        "phase portraits (window x inflight) of the voltage/current/power \
         control laws over the fluid model at 100G / 20us, paper Figure 3",
    )
}

/// `fig3-small`: one law (power) over a 2×2 grid — the fast analytic
/// fixture for CI cold/warm cache checks.
pub fn fig3_small() -> ScenarioSpec {
    ScenarioSpec::new_analytic(
        "fig3-small",
        AnalyticSpec::new(AnalyticScenario::Phase {
            laws: vec![Law::QueueLength, Law::Power],
            w_over_bdp: vec![0.3, 2.0],
            q_over_bdp: vec![0.0, 0.5],
        }),
    )
    .describe(
        "two-law 2x2 phase-portrait grid: the fast analytic fixture for \
         cache/procs CI checks",
    )
}

/// Fluid-model ablations: 1-D response sweeps over γ (reaction speed vs
/// noise), β̂ (the equilibrium queue), and HPCC η (target utilization).
pub fn ablations() -> ScenarioSpec {
    ScenarioSpec::new_analytic(
        "ablations",
        AnalyticSpec::new(AnalyticScenario::Ablation {
            gammas: vec![0.3, 0.5, 0.7, 0.9, 1.0],
            beta_fracs: vec![0.025, 0.05, 0.1, 0.2, 0.4],
            etas: vec![0.85, 0.9, 0.95, 1.0],
        }),
    )
    .describe(
        "fluid-model parameter ablations: gamma sweep (convergence time \
         delta-t/gamma), beta-hat sweep (equilibrium queue), HPCC eta sweep \
         (settled utilization headroom)",
    )
}

/// Theorems 1–3 (Appendix A) verified numerically with pass/fail stats.
pub fn theorems() -> ScenarioSpec {
    ScenarioSpec::new_analytic(
        "theorems",
        AnalyticSpec::new(AnalyticScenario::Laws { tolerance: 0.02 }),
    )
    .describe(
        "numeric checks of Theorem 1 (stability), Theorem 2 (exponential \
         convergence, constant delta-t/gamma), Theorem 3 (beta-weighted \
         proportional fairness)",
    )
}

/// `gamma-sweep`: the *simulated* γ ablation — the fig6-small websearch
/// point swept over PowerTCP's EWMA gain through the params axis, proving
/// algorithm-parameter grids ride the same executor/cache/procs pipeline
/// as load and seed grids.
pub fn gamma_sweep() -> ScenarioSpec {
    ScenarioSpec::new("gamma-sweep", tiny_fat_tree())
        .describe(
            "simulated gamma ablation: websearch fat-tree at 60% load, \
             PowerTCP at gamma 0.5 / 0.9 via the sweep params axis",
        )
        .poisson(SizeSpec::Websearch)
        .algos([Algo::PowerTcp])
        .params([
            ParamSpec {
                gamma: Some(0.5),
                ..ParamSpec::default()
            },
            ParamSpec {
                gamma: Some(0.9),
                ..ParamSpec::default()
            },
        ])
        .loads([0.6])
        .seeds([42])
}

/// Figure 6: tail FCT slowdown vs flow size, websearch at 20% / 60%
/// load, all six paper protocols.
pub fn fig6() -> ScenarioSpec {
    ScenarioSpec::new("fig6", tiny_fat_tree())
        .describe(
            "tail FCT slowdown vs flow size: websearch on the oversubscribed \
             fat-tree at 20% and 60% load, paper Figure 6 protocol set",
        )
        .poisson(SizeSpec::Websearch)
        .algos(Algo::paper_set())
        .loads([0.2, 0.6])
        .seeds([42])
}

/// `fig6-small`: a single fig6 point (websearch fat-tree, PowerTCP vs
/// HPCC at 60% load, one seed) kept fast enough for CI. Its report is
/// pinned byte-for-byte in `tests/fig6_small_baseline.json` — the
/// cross-PR regression guard for the simulator hot path (`xp run
/// fig6-small --json new.json && xp diff tests/fig6_small_baseline.json
/// new.json`).
pub fn fig6_small() -> ScenarioSpec {
    ScenarioSpec::new("fig6-small", tiny_fat_tree())
        .describe(
            "one fig6 point (websearch fat-tree at 60% load, PowerTCP vs \
             HPCC): the byte-pinned CI regression guard for engine changes",
        )
        .poisson(SizeSpec::Websearch)
        .algos([Algo::PowerTcp, Algo::Hpcc])
        .loads([0.6])
        .seeds([42])
}

/// Figure 7: the detailed comparison — websearch plus a 2 MB / 8-way
/// incast overlay, PowerTCP vs θ-PowerTCP vs HPCC.
///
/// The request rate is the paper's 16/s scaled ×50 because the simulated
/// horizon is milliseconds, not seconds — the per-horizon incast count
/// matches the paper's setup.
pub fn fig7() -> ScenarioSpec {
    fig7_websearch(
        "fig7",
        "websearch at 40%/80% load with 2MB 8:1 incasts at the paper's \
         16/s (time-scaled): short- and long-flow tails plus buffer \
         occupancy, paper Figure 7",
    )
    .incast(IncastSpec {
        rate_per_sec: 16.0 * 50.0,
        request_bytes: 2_000_000,
        fan_in: 8,
        periodic: false,
    })
}

/// What [`fig7`] and its load panel share: websearch on the tiny
/// fat-tree, PowerTCP vs θ-PowerTCP vs HPCC, before any incast overlay.
fn fig7_websearch(name: &str, description: &str) -> ScenarioSpec {
    ScenarioSpec::new(name, tiny_fat_tree())
        .describe(description)
        .poisson(SizeSpec::Websearch)
        .algos([Algo::PowerTcp, Algo::ThetaPowerTcp, Algo::Hpcc])
        .loads([0.4, 0.8])
        .seeds([42])
}

/// The fig7 workload on the flow engine: the cross-check twin of
/// [`fig7`]. Same topology, same flow population (generators and seeds
/// are shared between engines), but progressed by max-min water-filling
/// instead of per-packet simulation — the CI byte-pins its report
/// against a committed baseline, and the cross-check test bands its
/// slowdowns against the packet engine's.
pub fn fig7_flow() -> ScenarioSpec {
    ScenarioSpec::new("fig7-flow", tiny_fat_tree())
        .describe(
            "the fig7 websearch+incast mix on the flow-level engine: \
             cross-check twin of the packet-engine fig7, byte-pinned in CI",
        )
        .engine(EngineKind::Flow)
        .poisson(SizeSpec::Websearch)
        .incast(IncastSpec {
            rate_per_sec: 16.0 * 50.0,
            request_bytes: 2_000_000,
            fan_in: 8,
            periodic: false,
        })
        .algos([Algo::PowerTcp, Algo::ThetaPowerTcp, Algo::Hpcc])
        .loads([0.4, 0.8])
        .seeds([42])
}

/// The datacenter-scale flow-engine showcase: a 100,000-host
/// oversubscribed fat-tree (12,500 hosts per ToR under the default
/// 4-pod / 8-ToR layout; 25G hosts against 2×100G of fabric per rack —
/// 1,562× oversubscription at the ToR) offering the heavy-tailed
/// websearch+hadoop mixture for a full second of simulated time —
/// about 32 k flows. Far beyond what per-packet simulation can touch;
/// the flow engine completes it in a fraction of a second on one
/// machine, deterministically.
pub fn fattree_100k() -> ScenarioSpec {
    ScenarioSpec::new(
        "fattree-100k",
        TopologySpec::FatTree {
            hosts_per_tor: 12_500,
            host_gbps: 25.0,
            fabric_gbps: 100.0,
        },
    )
    .describe(
        "100k-host oversubscribed fat-tree, websearch+hadoop mix on the \
         flow engine: the scale the packet engine cannot reach",
    )
    .engine(EngineKind::Flow)
    .poisson(SizeSpec::WebsearchHadoop)
    .loads([0.6])
    .seeds([42])
    .horizon_ms(1_000.0)
    .drain_ms(500.0)
}

/// A reduced [`fattree_100k`] for CI smoke: same 100k-host topology and
/// mix, a 40 ms horizon (about 1,300 flows instead of 32 k) so the job
/// completes well inside a wall-clock budget.
pub fn fattree_100k_smoke() -> ScenarioSpec {
    let mut spec = fattree_100k()
        .horizon_ms(40.0)
        .drain_ms(100.0)
        .describe("reduced fattree-100k (40 ms horizon) for CI wall-clock budgets");
    spec.name = "fattree-100k-smoke".into();
    spec
}

/// Figures 9–11 (Appendix D): HOMA under incast at overcommitment
/// levels 1–6, on the canonical star fixture.
pub fn fig9to11() -> ScenarioSpec {
    ScenarioSpec::new(
        "fig9to11",
        TopologySpec::Star {
            hosts: 12,
            host_gbps: 25.0,
        },
    )
    .describe(
        "HOMA at overcommitment 1-6 absorbing periodic 8:1 incasts on a \
             single-switch star, paper Figures 9-11",
    )
    .incast(IncastSpec {
        rate_per_sec: 2_000.0,
        request_bytes: 480_000,
        fan_in: 8,
        periodic: true,
    })
    .algos((1..=6).map(Algo::Homa))
    .seeds([42])
    .horizon_ms(2.0)
    .drain_ms(6.0)
}

/// Incast battle: PowerTCP vs HPCC vs TIMELY
/// absorbing 16:1 bursts on a star (the Figure 4 scenario, reduced to
/// FCT/buffer statistics).
pub fn incast_battle() -> ScenarioSpec {
    ScenarioSpec::new(
        "incast-battle",
        TopologySpec::Star {
            hosts: 18,
            host_gbps: 25.0,
        },
    )
    .describe(
        "16:1 incast bursts onto a 25G downlink: PowerTCP vs HPCC vs \
             TIMELY (the Figure 4 scenario as FCT statistics)",
    )
    .incast(IncastSpec {
        rate_per_sec: 500.0,
        request_bytes: 1_920_000,
        fan_in: 16,
        periodic: true,
    })
    .algos([Algo::PowerTcp, Algo::Hpcc, Algo::Timely])
    .seeds([42])
    .horizon_ms(4.0)
    .drain_ms(6.0)
}

/// `base` under a new identity: the panel builtins below differ from an
/// existing figure in a few values only, and say which.
fn variant(base: ScenarioSpec, name: &str, description: &str) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        ..base
    }
    .describe(description)
}

/// Figure 4, bottom row: the large incast at 63:1 (`fan_in = 255` is the
/// paper's full size — a TOML edit, and a longer run).
fn fig4_large() -> ScenarioSpec {
    variant(
        fig4(),
        "fig4-large",
        "large incast onto a 25G downlink (paper Figure 4 bottom row)",
    )
    .trace_scenario(TraceScenario::Incast {
        fan_in: 63,
        burst_bytes: 60_000,
        at_ms: 1.0,
    })
}

/// Figure 7a/7b/7g: websearch alone across the load axis, with the
/// buffer-occupancy CDF (7g is its 80% rows).
fn fig7_load() -> ScenarioSpec {
    fig7_websearch(
        "fig7-load",
        "websearch at 20-80% load, no incasts: short- and long-flow tails vs \
         load plus the buffer-occupancy CDF, paper Figure 7a/7b/7g",
    )
    .loads([0.2, 0.4, 0.6, 0.8])
    .buffer_cdf(true)
}

/// Figure 7c–f and 7h: [`fig7`] at 80% load with the incast overlay's
/// request rate (`fig7-rateN`: N/s in paper units, 2 MB) or size
/// (`fig7-sizeN`: N MB at 4/s) swept — one builtin per cell, since the
/// overlay is workload, not a sweep axis. 2 MB at 4/s is `fig7-rate4`;
/// `fig7-rate16` is fig7's own overlay and carries the 7h buffer CDF.
fn fig7_incasts() -> Vec<ScenarioSpec> {
    let cell = |name: String, rate: u32, mb: u64, panels: &str| {
        let description = format!(
            "websearch at 80% load with {mb}MB 8:1 incasts at {rate}/s \
             (time-scaled): short- and long-flow tails, paper Figure {panels}"
        );
        variant(fig7(), &name, &description)
            .incast(IncastSpec {
                rate_per_sec: f64::from(rate) * 50.0,
                request_bytes: mb * 1_000_000,
                fan_in: 8,
                periodic: false,
            })
            .loads([0.8])
    };
    let rates = [1, 4, 8, 16].into_iter().map(|r| {
        let panels = if r == 16 { "7c/7d/7h" } else { "7c/7d" };
        cell(format!("fig7-rate{r}"), r, 2, panels).buffer_cdf(r == 16)
    });
    let sizes = [1, 4, 6, 8]
        .into_iter()
        .map(|mb| cell(format!("fig7-size{mb}"), 4, mb, "7e/7f"));
    rates.chain(sizes).collect()
}

/// Figure 8b's second column: [`fig8`] over a 50G packet network (8b is
/// the `p99_voq_wait_us` / `p999_voq_wait_us` stats of the two, side by
/// side).
fn fig8_50g() -> ScenarioSpec {
    variant(
        fig8(),
        "fig8-50g",
        "the fig8 RDCN case study over a 50G packet network: tail VOQ \
         queueing latency vs packet bandwidth, paper Figure 8b",
    )
    .trace_scenario(TraceScenario::Rdcn {
        weeks: 2,
        packet_gbps: 50.0,
        retcp_prebuffer_us: vec![600.0, 1800.0],
    })
}

/// Figures 9–11 (Appendix D) as traces: HOMA at overcommitment 1–6
/// under the fig5 fairness scenario and the two fig4 incasts (the
/// FCT-statistics view of the same sweep is [`fig9to11`]).
fn homa_traces() -> Vec<ScenarioSpec> {
    let incast = |fan_in, burst_bytes| TraceScenario::Incast {
        fan_in,
        burst_bytes,
        at_ms: 1.0,
    };
    let fairness = TraceScenario::Fairness {
        flows: 4,
        stagger_ms: 1.0,
    };
    let homa = |name: &str, what: &str, scenario, horizon_ms| {
        ScenarioSpec::timeseries(name, TraceSpec::new(scenario))
            .describe(format!(
                "HOMA at overcommitment 1-6: {what}, paper Figure {}",
                &name[3..]
            ))
            .algos((1..=6).map(Algo::Homa))
            .horizon_ms(horizon_ms)
    };
    vec![
        homa("fig9", "four staggered flows", fairness, 6.0),
        homa("fig10", "a 63:1 incast", incast(63, 60_000), 5.0),
        homa("fig11", "a 10:1 incast", incast(10, 150_000), 5.0),
    ]
}

/// All built-in scenarios. New entries are appended, never inserted:
/// `xp list` keeps its order and a diff of `tests/builtin_specs.golden`
/// is added lines only.
pub fn builtin_specs() -> Vec<ScenarioSpec> {
    let mut specs = vec![
        fig2(),
        fig3(),
        fig3_small(),
        fig4(),
        fig5(),
        fig6(),
        fig6_small(),
        fig7(),
        fig7_flow(),
        fig8(),
        fig9to11(),
        fattree_100k(),
        fattree_100k_smoke(),
        ablations(),
        theorems(),
        gamma_sweep(),
        incast_battle(),
        fig4_large(),
        fig7_load(),
    ];
    specs.extend(fig7_incasts());
    specs.push(fig8_50g());
    specs.extend(homa_traces());
    specs
}

/// Look up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    builtin_specs().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_validate_and_round_trip() {
        let specs = builtin_specs();
        assert!(specs.len() >= 8);
        for spec in specs {
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let back = ScenarioSpec::from_toml(&spec.to_toml())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(back, spec, "{}", spec.name);
            assert!(builtin(&spec.name).is_some());
        }
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn trace_builtins_are_timeseries_with_expected_lineups() {
        for name in ["fig2", "fig4", "fig5", "fig8"] {
            let spec = builtin(name).unwrap();
            assert_eq!(spec.kind.key(), "timeseries", "{name}");
        }
        assert_eq!(fig2().num_points(), 1);
        assert_eq!(fig4().num_points(), 6); // the paper's Figure 4/6 set
        assert_eq!(fig5().num_points(), 4);
        assert_eq!(fig8().num_points(), 4); // powertcp + 2x retcp + hpcc
    }

    #[test]
    fn fig7_covers_the_acceptance_scenario() {
        // websearch + incast, PowerTCP vs >= 2 baselines.
        let spec = fig7();
        let sweep = spec.sweep_body("fig7");
        assert!(sweep.workload.poisson.is_some());
        assert!(sweep.workload.incast.is_some());
        assert!(sweep.sweep.algos.contains(&Algo::PowerTcp));
        assert!(sweep.sweep.algos.len() >= 3);
        assert!(spec.num_points() >= 2);
    }
}
