//! The analytic engine: run one `analytic` scenario entry as a pure
//! fluid-model computation — no simulator, no randomness, no clocks.
//!
//! The fluid-model experiments run here (`fig2` response curves, `fig3`
//! phase portraits, `ablations` parameter sweeps, `theorems` checks): each
//! [`AnalyticScenario`] expands into lineup entries exactly like a timeseries scenario
//! ([`analytic_entries`] mirrors `trace_entries`), each entry reduces to
//! a [`TraceEntry`] (scalar stats plus trajectory channels), and the
//! whole report flows through the same executor / result-cache /
//! multi-process pipeline as simulated scenarios. Each entry that
//! [`run_analytic_entries`] returns is a pure function of `(spec, entry)`
//! — the determinism contract every [`crate::sweep::PointSource`] relies
//! on — so reports are byte-identical at any thread or process count.
//!
//! An ablation sweep's points are lanes of one fluid integration: the
//! entries of one law (the γ and β̂ sweeps integrate the power law, the
//! η sweep the queue-length law) run as one [`integrate`] call, each
//! lane under its own parameters. Lanes never interact, so an entry's
//! bytes do not depend on which others share its call;
//! [`analytic_batches`] names the runs of entries that may.

use crate::spec::AnalyticScenario;
use crate::trace_engine::MAX_CHANNEL_ROWS;
use dcn_telemetry::{decimate, ChannelTrace, Sample, TraceEntry};
use fluid_model::{
    analytic_equilibrium, analytic_windows, current_md, eigenvalues_2x2, endpoint_spread,
    equilibrium_windows, fig2c_cases, grid, inflight, integrate, measure_power_convergence,
    phase_portrait_grid, powertcp_jacobian, voltage_md, FluidParams, Lane, Law, Schedule, State,
    PAPER_BETA_FRAC, PAPER_GAMMA,
};
use std::ops::Range;

/// Relative tolerance of the theorem checks.
const THEOREM_TOLERANCE: f64 = 0.02;

/// One enumerated grid point of an analytic scenario (internal: entries
/// expose only `(index, label)` through [`AnalyticEntrySpec`], and the
/// worker protocol re-derives points from the spec).
#[derive(Clone, Copy)]
enum AnalyticPoint {
    /// The Figure 2 response curves and blind-spot cases.
    Response,
    /// One control law's full phase portrait.
    PhaseLaw(Law),
    /// One swept value of an ablation axis.
    Ablation(Ablation),
    /// One theorem check (1, 2, or 3).
    Theorem(u8),
}

impl AnalyticPoint {
    fn label(&self) -> String {
        match self {
            AnalyticPoint::Response => "analytic".into(),
            AnalyticPoint::PhaseLaw(law) => law.key().to_string(),
            AnalyticPoint::Ablation(a) => format!("{}={}", a.axis, a.value),
            AnalyticPoint::Theorem(n) => match n {
                1 => "theorem1-stability".into(),
                2 => "theorem2-convergence".into(),
                _ => "theorem3-fairness".into(),
            },
        }
    }
}

/// One ablation point: the axis it sweeps (`gamma`, `beta_frac` or
/// `eta`) and its value there, the law it integrates, and the paper
/// example at per-update gain `gamma`, β̂ at `beta_frac` of BDP and HPCC
/// target `hpcc_eta`.
#[derive(Clone, Copy)]
struct Ablation {
    axis: &'static str,
    value: f64,
    law: Law,
    gamma: f64,
    beta_frac: f64,
    hpcc_eta: f64,
}

impl Ablation {
    fn fluid_params(&self) -> FluidParams {
        FluidParams {
            hpcc_eta: self.hpcc_eta,
            ..FluidParams::paper_example()
                .with_gamma(self.gamma)
                .with_beta_frac(self.beta_frac)
        }
    }
}

/// The enumerated grid points of an analytic spec, in stable order:
/// the one `response` point, laws in declaration order for `phase`, γ
/// then β̂ then η sweeps for `ablation`, theorems 1–3 for `laws`.
fn analytic_points(analytic: &AnalyticScenario) -> Vec<AnalyticPoint> {
    match analytic {
        AnalyticScenario::Response => vec![AnalyticPoint::Response],
        AnalyticScenario::Phase { laws, .. } => {
            laws.iter().map(|&l| AnalyticPoint::PhaseLaw(l)).collect()
        }
        AnalyticScenario::Ablation {
            gammas,
            beta_fracs,
            etas,
        } => {
            let point = |axis, value, law, gamma, beta_frac, hpcc_eta| {
                AnalyticPoint::Ablation(Ablation {
                    axis,
                    value,
                    law,
                    gamma,
                    beta_frac,
                    hpcc_eta,
                })
            };
            let (g0, b0) = (PAPER_GAMMA, PAPER_BETA_FRAC);
            let gammas = gammas
                .iter()
                .map(|&g| point("gamma", g, Law::Power, g, b0, 1.0));
            let betas = beta_fracs
                .iter()
                .map(|&b| point("beta_frac", b, Law::Power, g0, b, 1.0));
            let etas = etas
                .iter()
                .map(|&e| point("eta", e, Law::QueueLength, g0, b0, e));
            gammas.chain(betas).chain(etas).collect()
        }
        AnalyticScenario::Laws => (1..=3).map(AnalyticPoint::Theorem).collect(),
    }
}

/// One entry of an analytic lineup: a grid point's position and label.
/// It runs no control law, so unlike a
/// [`TraceEntrySpec`](crate::trace_engine::TraceEntrySpec) it names none.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyticEntrySpec {
    /// Position in the lineup (stable expansion order).
    pub index: usize,
    /// Display label (the grid point's identity).
    pub label: String,
}

/// Expand an analytic spec into lineup entries, as
/// [`crate::trace_engine::trace_entries`] does a timeseries.
pub fn analytic_entries(analytic: &AnalyticScenario) -> Vec<AnalyticEntrySpec> {
    analytic_points(analytic)
        .iter()
        .enumerate()
        .map(|(index, p)| AnalyticEntrySpec {
            index,
            label: p.label(),
        })
        .collect()
}

/// The runs of an analytic spec's entries that compute together, in
/// index order: the consecutive ablation points of one law, or else one
/// entry alone.
pub fn analytic_batches(analytic: &AnalyticScenario) -> Vec<Range<usize>> {
    let law = |p: &AnalyticPoint| match p {
        AnalyticPoint::Ablation(a) => Some(a.law),
        _ => None,
    };
    let points = analytic_points(analytic);
    let mut out: Vec<Range<usize>> = Vec::new();
    for (i, point) in points.iter().enumerate() {
        match out.last_mut() {
            Some(run) if law(point).is_some() && law(point) == law(&points[run.start]) => {
                run.end = i + 1;
            }
            _ => out.push(i..i + 1),
        }
    }
    out
}

/// Run analytic entries, one [`TraceEntry`] each, in the order given.
/// The ablation entries among them run as one lane batch per law; every
/// other entry runs alone. Deterministic: an entry's result is the same
/// bits whichever entries share the call, on any thread or in any worker
/// process.
pub fn run_analytic_entries(
    analytic: &AnalyticScenario,
    entries: &[AnalyticEntrySpec],
) -> Vec<TraceEntry> {
    let points = analytic_points(analytic);
    let mut out: Vec<Option<TraceEntry>> = entries.iter().map(|_| None).collect();
    // (slot in `out`, label, parameters) of every ablation entry.
    let mut ablations: Vec<(usize, String, Ablation)> = Vec::new();
    for (slot, entry) in entries.iter().enumerate() {
        let Some(&point) = points.get(entry.index) else {
            panic!("analytic entry index {} out of range", entry.index);
        };
        let label = point.label();
        debug_assert_eq!(label, entry.label, "entry drifted from the spec");
        out[slot] = Some(match point {
            AnalyticPoint::Ablation(a) => {
                ablations.push((slot, label, a));
                continue;
            }
            AnalyticPoint::Response => response_entry(label),
            AnalyticPoint::PhaseLaw(law) => {
                let AnalyticScenario::Phase {
                    w_over_bdp,
                    q_over_bdp,
                    ..
                } = analytic
                else {
                    unreachable!("phase point of a phase scenario");
                };
                phase_entry(law, w_over_bdp, q_over_bdp)
            }
            AnalyticPoint::Theorem(n) => theorem_entry(label, n),
        });
    }
    for law in [Law::Power, Law::QueueLength] {
        let batch: Vec<&(usize, String, Ablation)> =
            ablations.iter().filter(|(_, _, a)| a.law == law).collect();
        for (&(slot, ..), entry) in batch.iter().zip(ablation_entries(law, &batch)) {
            out[*slot] = Some(entry);
        }
    }
    out.into_iter()
        .map(|e| e.expect("every entry ran"))
        .collect()
}

/// A trajectory as a channel: x = window bytes, y = inflight bytes.
fn trajectory_channel(name: String, samples: Vec<Sample>) -> ChannelTrace {
    ChannelTrace {
        name,
        unit: "inflight_bytes".to_string(),
        x_unit: "window_bytes".to_string(),
        total_samples: samples.len() as u64,
        evicted: 0,
        samples: decimate(&samples, MAX_CHANNEL_ROWS),
    }
}

// ---------------------------------------------------------------------
// fig2 — multiplicative-decrease responses
// ---------------------------------------------------------------------

/// Figure 2: the orthogonal multiplicative-decrease responses of voltage-
/// and current-based CC, plus the three blind-spot cases as stats. A
/// channel's x-axis is the swept quantity; y is the decrease factor.
fn response_entry(label: String) -> TraceEntry {
    let curve = |name: &str, x_unit: &str, xs: &[f64], md: &dyn Fn(f64) -> f64| {
        let samples: Vec<Sample> = xs.iter().map(|&x| Sample { x, y: md(x) }).collect();
        ChannelTrace {
            name: name.to_string(),
            unit: "factor".to_string(),
            x_unit: x_unit.to_string(),
            total_samples: samples.len() as u64,
            evicted: 0,
            samples,
        }
    };
    // 2a: MD vs queue buildup rate (queue fixed at one BDP).
    let rates: Vec<f64> = (0..=8).map(f64::from).collect();
    // 2b: MD vs queue length in 1KB packets (BDP = 20 pkts, no buildup).
    let queues: Vec<f64> = (0..=6).map(|i| f64::from(i) * 10.0).collect();
    let bdp_pkts = 20.0;
    let channels = vec![
        curve("voltage-md-vs-rate", "qdot_over_bw", &rates, &|_| {
            voltage_md(1.0)
        }),
        curve("current-md-vs-rate", "qdot_over_bw", &rates, &current_md),
        curve("voltage-md-vs-queue", "queue_pkts", &queues, &|q| {
            voltage_md(q / bdp_pkts)
        }),
        curve("current-md-vs-queue", "queue_pkts", &queues, &|_| {
            current_md(0.0)
        }),
    ];
    // 2c: the three blind-spot cases as stats.
    let mut stats = Vec::new();
    for (i, case) in fig2c_cases().iter().enumerate() {
        let n = i + 1;
        stats.push((format!("case{n}_voltage_md"), case.voltage()));
        stats.push((format!("case{n}_current_md"), case.current()));
        stats.push((format!("case{n}_power_md"), case.power()));
    }
    TraceEntry {
        label,
        stats,
        channels,
    }
}

// ---------------------------------------------------------------------
// fig3 — phase portraits
// ---------------------------------------------------------------------

/// One law's phase portrait over the configured grid: per-trajectory
/// channels (window → inflight) plus the two properties the paper reads
/// off the plots — endpoint uniqueness (spread) and throughput loss.
fn phase_entry(law: Law, w_over_bdp: &[f64], q_over_bdp: &[f64]) -> TraceEntry {
    let p = FluidParams::paper_example();
    let starts = grid(&p, w_over_bdp, q_over_bdp);
    let trajs = phase_portrait_grid(law, &p, &starts);
    let eq = analytic_equilibrium(&p);
    let spread = endpoint_spread(&trajs, &p);
    let losses = trajs.iter().filter(|t| t.throughput_loss).count();

    let mut stats = vec![
        ("bdp_bytes".to_string(), p.bdp()),
        ("eq_w_bytes".to_string(), eq.w),
        ("eq_q_bytes".to_string(), eq.q),
        ("endpoint_spread_bytes".to_string(), spread),
        ("endpoint_spread_frac_bdp".to_string(), spread / p.bdp()),
        ("throughput_loss_count".to_string(), losses as f64),
        ("trajectories".to_string(), trajs.len() as f64),
    ];
    let mut channels = Vec::with_capacity(trajs.len());
    for (i, t) in trajs.iter().enumerate() {
        // Grid order is window-major (see `fluid_model::grid`), so the
        // start fractions recover from the index.
        let wf = w_over_bdp[i / q_over_bdp.len()];
        let qf = q_over_bdp[i % q_over_bdp.len()];
        let tag = format!("traj-w{wf}-q{qf}");
        stats.push((format!("{tag}_end_w_bytes"), t.end.w));
        stats.push((format!("{tag}_end_inflight_bytes"), inflight(&p, t.end)));
        stats.push((
            format!("{tag}_throughput_loss"),
            if t.throughput_loss { 1.0 } else { 0.0 },
        ));
        channels.push(trajectory_channel(
            tag,
            t.points
                .iter()
                .map(|&(w, i)| Sample { x: w, y: i })
                .collect(),
        ));
    }
    TraceEntry {
        label: law.key().to_string(),
        stats,
        channels,
    }
}

// ---------------------------------------------------------------------
// ablations — 1-D fluid-model parameter response sweeps
// ---------------------------------------------------------------------

/// The ablation points of one law, as the lanes of one integration: each
/// lane starts from a canonical under-filled state (0.1 BDP, empty queue)
/// under its own parameters, is sampled over 60 base RTTs, settle-tested
/// from the first step and cut off after 240. Each entry then measures its
/// settled state, convergence fit (power law only — the fit assumes
/// Theorem 2's exponential form) and overshoot.
fn ablation_entries(law: Law, batch: &[&(usize, String, Ablation)]) -> Vec<TraceEntry> {
    let lanes: Vec<(FluidParams, State)> = batch
        .iter()
        .map(|(_, _, a)| {
            let p = a.fluid_params();
            let start = State {
                w: 0.1 * p.bdp(),
                q: 0.0,
            };
            (p, start)
        })
        .collect();
    let Some((p0, _)) = lanes.first() else {
        return Vec::new();
    };
    let plan = Schedule {
        dt: p0.base_rtt / 400.0,
        sample_steps: 400 * 60,
        sample_every: 40,
        settle_from: 0,
        settle_steps: 400 * 240,
    };
    let ends = integrate(law, &lanes, &plan);
    batch
        .iter()
        .zip(&lanes)
        .zip(ends)
        .map(|((&(_, label, a), (p, _)), lane)| ablation_entry(label.clone(), a, p, &plan, lane))
        .collect()
}

/// One swept parameter value's entry, from its lane of the law's
/// integration.
fn ablation_entry(
    label: String,
    a: &Ablation,
    p: &FluidParams,
    plan: &Schedule,
    lane: Lane,
) -> TraceEntry {
    let bdp = p.bdp();
    let Lane {
        samples: states,
        end,
        steps,
    } = lane;

    // Overshoot: peak window along the way, relative to the settled one.
    let peak_w = states.iter().map(|s| s.w).fold(f64::MIN, f64::max);
    // Response channel: window over time (µs).
    let samples: Vec<Sample> = states
        .iter()
        .enumerate()
        .map(|(i, s)| Sample {
            x: (i * plan.sample_every) as f64 * plan.dt * 1e6,
            y: s.w,
        })
        .collect();

    let mut stats = vec![
        ("gamma".to_string(), a.gamma),
        ("beta_frac".to_string(), a.beta_frac),
        ("hpcc_eta".to_string(), a.hpcc_eta),
        ("gamma_r_per_s".to_string(), p.gamma_r),
        ("bdp_bytes".to_string(), bdp),
        ("settled_w_frac_bdp".to_string(), end.w / bdp),
        ("settled_q_frac_bdp".to_string(), end.q / bdp),
        ("settle_steps".to_string(), steps as f64),
        ("peak_w_frac_bdp".to_string(), peak_w / bdp),
    ];
    if a.law == Law::Power {
        // Theorem 2's exponential fit only applies to the power law. It
        // starts the window at 3 BDP — or, where the equilibrium bτ + β̂
        // lies within one BDP of that (β̂ = 2 BDP sits on it, leaving
        // nothing to measure), 2 BDP above the equilibrium.
        let eq = analytic_equilibrium(p).w;
        let w0 = if (3.0 * bdp - eq).abs() < bdp {
            eq + 2.0 * bdp
        } else {
            3.0 * bdp
        };
        let fit = measure_power_convergence(p, w0, 0.0);
        stats.push(("fitted_tau_us".to_string(), fit.fitted_tau_s * 1e6));
        stats.push((
            "theoretical_tau_us".to_string(),
            fit.theoretical_tau_s * 1e6,
        ));
        stats.push(("residual_after_5tau".to_string(), fit.residual_after_5_tau));
    }
    TraceEntry {
        label,
        stats,
        channels: vec![ChannelTrace {
            name: "window".to_string(),
            unit: "bytes".to_string(),
            x_unit: "time_us".to_string(),
            total_samples: samples.len() as u64,
            evicted: 0,
            samples: decimate(&samples, MAX_CHANNEL_ROWS),
        }],
    }
}

// ---------------------------------------------------------------------
// theorems — numeric checks of Appendix A
// ---------------------------------------------------------------------

/// One theorem check with pass/fail under [`THEOREM_TOLERANCE`].
fn theorem_entry(label: String, n: u8) -> TraceEntry {
    let p = FluidParams::paper_example();
    let tol = THEOREM_TOLERANCE;
    let rel = |got: f64, want: f64| (got - want).abs() / want.abs().max(1e-12);
    match n {
        1 => {
            // Theorem 1 — stability: eigenvalues of the linearization are
            // exactly −1/τ and −γr, both strictly negative.
            let j = powertcp_jacobian(&p);
            let ((r1, r2), im) = eigenvalues_2x2(j[0][0], j[0][1], j[1][0], j[1][1]);
            let (e1, e2) = (-1.0 / p.base_rtt, -p.gamma_r);
            let (got_min, got_max) = (r1.min(r2), r1.max(r2));
            let (want_min, want_max) = (e1.min(e2), e1.max(e2));
            let pass = im == 0.0
                && got_max < 0.0
                && rel(got_min, want_min) <= tol
                && rel(got_max, want_max) <= tol;
            TraceEntry {
                label,
                stats: vec![
                    ("lambda_min_per_s".to_string(), got_min),
                    ("lambda_max_per_s".to_string(), got_max),
                    ("expected_min_per_s".to_string(), want_min),
                    ("expected_max_per_s".to_string(), want_max),
                    ("imag_part".to_string(), im),
                    ("pass".to_string(), if pass { 1.0 } else { 0.0 }),
                ],
                channels: Vec::new(),
            }
        }
        2 => {
            // Theorem 2 — exponential convergence with constant δt/γ,
            // ≤ 0.7 % residual after five constants, across perturbation
            // sizes.
            let bdp = p.bdp();
            let mut stats = Vec::new();
            let mut pass = true;
            for (tag, w0, q0) in [
                ("small", bdp * 1.2, 0.0),
                ("large", bdp * 4.0, bdp * 1.6),
                ("undershoot", bdp * 0.1, 0.0),
            ] {
                let fit = measure_power_convergence(&p, w0, q0);
                pass &= rel(fit.fitted_tau_s, fit.theoretical_tau_s) <= tol;
                pass &= fit.residual_after_5_tau < 0.008;
                stats.push((format!("{tag}_fitted_tau_us"), fit.fitted_tau_s * 1e6));
                stats.push((
                    format!("{tag}_theoretical_tau_us"),
                    fit.theoretical_tau_s * 1e6,
                ));
                stats.push((
                    format!("{tag}_residual_after_5tau"),
                    fit.residual_after_5_tau,
                ));
            }
            stats.push(("pass".to_string(), if pass { 1.0 } else { 0.0 }));
            TraceEntry {
                label,
                stats,
                channels: Vec::new(),
            }
        }
        _ => {
            // Theorem 3 — β-weighted proportional fairness: the discrete
            // N-flow iteration's equilibrium windows match the analytic
            // (β̂ + bτ)/β̂ · β_i.
            let betas = [1_000.0, 2_000.0, 4_000.0, 8_000.0];
            let sim = equilibrium_windows(&p, &betas, PAPER_GAMMA, 50_000);
            let ana = analytic_windows(&p, &betas);
            let mut stats = Vec::new();
            let mut max_rel = 0.0f64;
            for ((b, s), a) in betas.iter().zip(&sim).zip(&ana) {
                max_rel = max_rel.max(rel(*s, *a));
                stats.push((format!("beta{b}_sim_w_bytes"), *s));
                stats.push((format!("beta{b}_analytic_w_bytes"), *a));
                stats.push((format!("beta{b}_w_over_beta"), s / b));
            }
            stats.push(("max_rel_err".to_string(), max_rel));
            stats.push(("pass".to_string(), if max_rel <= tol { 1.0 } else { 0.0 }));
            TraceEntry {
                label,
                stats,
                channels: Vec::new(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::builtin;
    use crate::spec::ScenarioKind;

    /// One entry run alone.
    fn run_alone(spec: &AnalyticScenario, entry: &AnalyticEntrySpec) -> TraceEntry {
        run_analytic_entries(spec, std::slice::from_ref(entry)).remove(0)
    }

    /// The `[analytic]` table of a (valid) analytic builtin.
    fn analytic(name: &str) -> AnalyticScenario {
        let spec = builtin(name).expect("a builtin");
        spec.validate().unwrap();
        let ScenarioKind::Analytic(analytic) = spec.kind else {
            panic!("{} is not analytic", spec.name);
        };
        analytic
    }

    #[test]
    fn response_entry_reproduces_the_fig2c_annotations() {
        let spec = analytic("fig2");
        let entries = analytic_entries(&spec);
        assert_eq!(entries.len(), 1);
        let e = run_alone(&spec, &entries[0]);
        assert!((e.stat("case1_voltage_md").unwrap() - 3.24).abs() < 1e-9);
        assert!((e.stat("case1_current_md").unwrap() - 9.0).abs() < 1e-9);
        assert!((e.stat("case2_current_md").unwrap() - 1.0).abs() < 1e-9);
        // Power separates all three cases.
        let p: Vec<f64> = (1..=3)
            .map(|i| e.stat(&format!("case{i}_power_md")).unwrap())
            .collect();
        assert!(p[0] != p[1] && p[1] != p[2] && p[0] != p[2]);
        assert_eq!(e.channels.len(), 4);
    }

    #[test]
    fn fig3_entries_reproduce_the_paper_properties() {
        let spec = analytic("fig3");
        let entries = analytic_entries(&spec);
        assert_eq!(entries.len(), 3);
        let by_label = |l: &str| {
            let e = entries.iter().find(|e| e.label == l).unwrap();
            run_alone(&spec, e)
        };
        let voltage = by_label("queue-length");
        let gradient = by_label("rtt-gradient");
        let power = by_label("power");
        // Voltage: unique equilibrium but throughput loss on some
        // trajectories; gradient: start-dependent endpoints; power:
        // unique equilibrium, no loss anywhere.
        assert!(voltage.stat("endpoint_spread_frac_bdp").unwrap() < 0.05);
        assert!(voltage.stat("throughput_loss_count").unwrap() >= 1.0);
        assert!(gradient.stat("endpoint_spread_frac_bdp").unwrap() > 0.3);
        assert!(power.stat("endpoint_spread_frac_bdp").unwrap() < 0.02);
        assert_eq!(power.stat("throughput_loss_count").unwrap(), 0.0);
        // 15 trajectories, each exported as a channel.
        assert_eq!(power.channels.len(), 15);
        assert!(power.channels.iter().all(|c| !c.samples.is_empty()));
    }

    #[test]
    fn ablation_entries_sweep_each_axis() {
        let spec = analytic("ablations");
        let entries = analytic_entries(&spec);
        assert!(entries.iter().any(|e| e.label.starts_with("gamma=")));
        assert!(entries.iter().any(|e| e.label.starts_with("beta_frac=")));
        assert!(entries.iter().any(|e| e.label.starts_with("eta=")));
        // γ sets the convergence speed: larger γ, smaller fitted τ.
        let tau_of = |label: &str| {
            let e = entries.iter().find(|e| e.label == label).unwrap();
            run_alone(&spec, e).stat("fitted_tau_us").unwrap()
        };
        assert!(tau_of("gamma=0.3") > tau_of("gamma=0.9"));
        // β̂ sets the equilibrium queue: the settled queue fraction tracks
        // the swept fraction.
        let q_of = |label: &str| {
            let e = entries.iter().find(|e| e.label == label).unwrap();
            run_alone(&spec, e).stat("settled_q_frac_bdp").unwrap()
        };
        let (q_small, q_large) = (q_of("beta_frac=0.05"), q_of("beta_frac=0.2"));
        assert!(q_small < q_large, "{q_small} vs {q_large}");
        assert!((q_large - 0.2).abs() < 0.05, "settled q ~ β̂ ({q_large})");
    }

    #[test]
    fn theorem_entries_all_pass() {
        let spec = analytic("theorems");
        let entries = analytic_entries(&spec);
        assert_eq!(entries.len(), 3);
        for e in &entries {
            let out = run_alone(&spec, e);
            assert_eq!(out.stat("pass"), Some(1.0), "{} failed", e.label);
        }
    }

    #[test]
    fn analytic_entries_replay_bit_for_bit() {
        for name in ["fig2", "fig3", "ablations", "theorems"] {
            let spec = analytic(name);
            let entries = analytic_entries(&spec);
            // Together, and in reverse: an entry's bits do not depend on
            // which entries share its batch, or in what order.
            let together = run_analytic_entries(&spec, &entries);
            let mut reversed = entries.clone();
            reversed.reverse();
            let mut backwards = run_analytic_entries(&spec, &reversed);
            backwards.reverse();
            for (i, e) in entries.iter().enumerate() {
                let alone = run_alone(&spec, e);
                assert_eq!(alone, run_alone(&spec, e), "{name}:{}", e.label);
                assert_eq!(together[i], alone, "{name}:{}", e.label);
                assert_eq!(backwards[i], alone, "{name}:{}", e.label);
            }
        }
    }

    #[test]
    fn ablation_batches_are_the_runs_of_one_law() {
        let spec = analytic("ablations");
        // γ then β̂ sweep the power law, η the queue-length law.
        assert_eq!(analytic_batches(&spec), vec![0..10, 10..14]);
        let only_eta = AnalyticScenario::Ablation {
            gammas: Vec::new(),
            beta_fracs: Vec::new(),
            etas: vec![0.9, 1.0],
        };
        assert_eq!(analytic_batches(&only_eta), vec![0..2]);
        for name in ["fig2", "fig3", "theorems"] {
            let spec = analytic(name);
            let alone: Vec<Range<usize>> = (0..analytic_entries(&spec).len())
                .map(|i| i..i + 1)
                .collect();
            assert_eq!(analytic_batches(&spec), alone, "{name}");
        }
    }

    #[test]
    fn a_beta_hat_of_two_bdp_still_has_a_perturbation_to_fit() {
        // β̂ = 2 BDP puts the equilibrium at 3 BDP, where the fit used to
        // start: `xp run` panicked with "no perturbation to measure".
        let text = "name = \"b2\"\nkind = \"analytic\"\n\n[analytic]\n\
                    scenario = \"ablation\"\nbeta_fracs = [2.0]\n";
        let spec = crate::spec::ScenarioSpec::from_toml(text).expect("a valid spec");
        let report = crate::sweep::run_trace(&spec, 1).expect("it runs");
        let e = &report.entries[0];
        let (fitted, theoretical) = (
            e.stat("fitted_tau_us").unwrap(),
            e.stat("theoretical_tau_us").unwrap(),
        );
        assert!(
            (fitted - theoretical).abs() < 0.02 * theoretical,
            "{fitted} vs {theoretical}"
        );
        assert!((e.stat("settled_q_frac_bdp").unwrap() - 2.0).abs() < 0.05);
    }
}
