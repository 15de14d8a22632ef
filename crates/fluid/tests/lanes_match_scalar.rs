//! The lane kernel against a plain loop of `rk4_step`, bit for bit: every
//! sampled state, every endpoint and every per-lane step count of
//! `integrate` must equal what one start integrated alone under its own
//! lane's parameters gives — for every law, over the parameters the
//! analytic builtins use, with every lane of a batch drawing its own γ, β̂
//! and η, at lane counts that leave a lane outside the packed pairs or
//! not, from the `q = 0` boundary, with lanes that settle at different
//! steps and lanes that never do.

use fluid_model::{integrate, q_dot, rk4_step, FluidParams, Law, Schedule, State};
use proptest::{Strategy, TestRng};

/// One start alone: `steps` of `dt`, every `sample_every`-th state kept.
fn scalar_trajectory(
    law: Law,
    p: &FluidParams,
    s0: State,
    dt: f64,
    steps: usize,
    sample_every: usize,
) -> Vec<State> {
    let mut out = vec![s0];
    let mut s = s0;
    for i in 1..=steps {
        s = rk4_step(law, p, s, dt);
        if i % sample_every == 0 {
            out.push(s);
        }
    }
    out
}

/// One start alone: step until ‖Δ‖ < 1e-9 BDP or `max_steps`.
fn scalar_settle(
    law: Law,
    p: &FluidParams,
    s0: State,
    dt: f64,
    max_steps: usize,
) -> (State, usize) {
    let tol = p.bdp() * 1e-9;
    let mut s = s0;
    for i in 0..max_steps {
        let next = rk4_step(law, p, s, dt);
        let delta = (next.w - s.w).abs() + (next.q - s.q).abs();
        s = next;
        if delta < tol {
            return (s, i + 1);
        }
    }
    (s, max_steps)
}

fn bits(s: State) -> (u64, u64) {
    (s.w.to_bits(), s.q.to_bits())
}

fn all_bits(states: &[State]) -> Vec<(u64, u64)> {
    states.iter().copied().map(bits).collect()
}

/// `integrate` under `plan` equals, lane by lane, the scalar trajectory
/// over `sample_steps` plus the scalar settle from the state at
/// `settle_from`, each under that lane's own params. Returns the per-lane
/// step counts.
fn assert_lanes_match(law: Law, lanes: &[(FluidParams, State)], plan: &Schedule) -> Vec<usize> {
    let got = integrate(law, lanes, plan);
    assert_eq!(got.len(), lanes.len());
    for (i, (lane, &(p, s0))) in got.iter().zip(lanes).enumerate() {
        let what = format!(
            "{law:?} lane {i} of {} from {s0:?} under {p:?}, {plan:?}",
            lanes.len()
        );
        let want = scalar_trajectory(law, &p, s0, plan.dt, plan.sample_steps, plan.sample_every);
        assert_eq!(all_bits(&lane.samples), all_bits(&want), "samples: {what}");
        let from = *scalar_trajectory(law, &p, s0, plan.dt, plan.settle_from, 1)
            .last()
            .unwrap();
        let (end, steps) = scalar_settle(law, &p, from, plan.dt, plan.settle_steps);
        assert_eq!(bits(lane.end), bits(end), "end: {what}");
        assert_eq!(lane.steps, steps, "steps: {what}");
    }
    got.iter().map(|l| l.steps).collect()
}

/// One batch's shared link, over the ranges the `ablations` and
/// `theorems` builtins reach and past them: 10–400 G, τ 2–100 µs.
fn link(rng: &mut TestRng) -> FluidParams {
    let (gbps, rtt_us) = (10.0..400.0f64, 2.0..100.0f64).sample(rng);
    FluidParams {
        bandwidth: gbps * 1e9 / 8.0,
        base_rtt: rtt_us * 1e-6,
        beta_hat: 0.0,
        gamma_r: 0.0,
        hpcc_eta: 1.0,
    }
}

/// One lane's law parameters on `link`: β̂ 0 (exactly, a quarter of the
/// time) to ½ BDP, γ 0.3–2 per τ/10, η 0.5–1.
fn lane_params(link: &FluidParams, rng: &mut TestRng) -> FluidParams {
    let (beta_frac, gamma, eta) = (0.0..0.5f64, 0.3..2.0f64, 0.5..1.0f64).sample(rng);
    FluidParams {
        beta_hat: if rng.below(4) == 0 {
            0.0
        } else {
            link.bdp() * beta_frac
        },
        gamma_r: gamma / (link.base_rtt / 10.0),
        hpcc_eta: eta,
        ..*link
    }
}

/// Every lane count the kernel treats differently: one lane, an even and
/// an odd count of packed pairs, each side of a multiple of 16, and past
/// 32. Lanes retiring mid-run move the odd lane out of the packed body.
const LANE_COUNTS: [usize; 7] = [1, 2, 3, 15, 16, 17, 33];

#[test]
fn lanes_equal_the_scalar_step_bit_for_bit() {
    let mut rng = TestRng::deterministic("lanes_equal_the_scalar_step_bit_for_bit");
    // [a lane retired while others stayed live, a step from the `q = 0`
    // boundary with the queue pushed negative, the gradient law's
    // `g.max(1e-6)` clamp, a batch whose lanes differ in each of γr, β̂
    // and η]
    let mut seen = [0u32; 4];
    for _ in 0..128 {
        let law = Law::all()[rng.below(Law::all().len())];
        let link = link(&mut rng);
        let bdp = link.bdp();
        // Each lane its own γ, β̂ and η. w ∈ (0, 8] BDP; q ∈ [0, 4] BDP.
        // A quarter of the lanes start at q = 0 and a quarter with
        // w < 1e-6 BDP, where the queue drains at nearly the line rate.
        let lanes: Vec<(FluidParams, State)> = (0..LANE_COUNTS[rng.below(LANE_COUNTS.len())])
            .map(|_| {
                let p = lane_params(&link, &mut rng);
                let (wf, qf, kind) = (0.0..8.0f64, 0.0..4.0f64, 0usize..4).sample(&mut rng);
                let w = bdp * if kind == 1 { wf * 1e-7 } else { 8.0 - wf };
                let q = if kind == 0 { 0.0 } else { bdp * qf };
                (p, State { w, q })
            })
            .collect();
        let (coarse, sample_steps, sample_every, settle_from, settle_steps) = (
            0usize..2,
            0usize..=400,
            1usize..=60,
            0usize..=500,
            0usize..=1500,
        )
            .sample(&mut rng);
        // The builtins' step, or ten times it (so the unique-equilibrium
        // laws settle inside `settle_steps`).
        let dt = link.base_rtt / if coarse == 1 { 40.0 } else { 400.0 };
        let plan = Schedule {
            dt,
            sample_steps,
            sample_every,
            settle_from,
            settle_steps,
        };
        let steps = assert_lanes_match(law, &lanes, &plan);

        // The two plain schedules: sampling only, and settling only.
        let sampled = Schedule {
            settle_from: sample_steps.max(1),
            settle_steps: 0,
            ..plan
        };
        assert_lanes_match(law, &lanes, &sampled);
        let settled = Schedule {
            sample_steps: 0,
            settle_from: 0,
            ..plan
        };
        assert_lanes_match(law, &lanes, &settled);

        // `integrate` stops stepping a lane once it has settled and
        // sampling is over.
        let retired = steps.iter().map(|&n| (settle_from + n).max(sample_steps));
        let q0 = |(p, s): &(FluidParams, State)| s.q == 0.0 && s.w / p.base_rtt < p.bandwidth;
        let g_clamp = |(p, s): &(FluidParams, State)| q_dot(p, *s) / p.bandwidth + 1.0 < 1e-6;
        let differ = |f: fn(&FluidParams) -> f64| {
            lanes
                .iter()
                .any(|(p, _)| f(p).to_bits() != f(&lanes[0].0).to_bits())
        };
        for (hit, n) in [
            retired.clone().min() < retired.max(),
            lanes.iter().any(q0),
            law == Law::RttGradient && lanes.iter().any(g_clamp),
            differ(|p| p.gamma_r) && differ(|p| p.beta_hat) && differ(|p| p.hpcc_eta),
        ]
        .into_iter()
        .zip(&mut seen)
        {
            *n += hit as u32;
        }
    }
    assert!(seen.iter().all(|&n| n >= 16), "generator coverage {seen:?}");
}

#[test]
fn lanes_retire_at_their_own_step_or_never() {
    let p = FluidParams::paper_example();
    let lanes: Vec<(FluidParams, State)> =
        [(0.05, 0.0), (0.3, 0.5), (1.0, 0.0), (2.0, 2.0), (8.0, 4.0)]
            .iter()
            .map(|&(wf, qf)| {
                let s = State {
                    w: p.bdp() * wf,
                    q: p.bdp() * qf,
                };
                (p, s)
            })
            .collect();
    let cap = 2_000;
    let plan = Schedule {
        dt: p.base_rtt / 40.0,
        sample_steps: 120,
        sample_every: 40,
        settle_from: 0,
        settle_steps: cap,
    };
    for law in [Law::QueueLength, Law::Power] {
        let mut steps = assert_lanes_match(law, &lanes, &plan);
        assert!(steps.iter().all(|&n| n < cap), "{law:?} settles: {steps:?}");
        steps.sort_unstable();
        steps.dedup();
        assert!(steps.len() > 1, "{law:?} lanes settle at different steps");
    }
    // No unique equilibrium (Appendix C): the window drifts up by γr·β̂
    // forever, so no lane ever passes the settle test.
    let steps = assert_lanes_match(Law::RttGradient, &lanes, &plan);
    assert_eq!(steps, vec![cap; lanes.len()]);
}

#[test]
fn an_ablation_sweep_is_one_batch_of_its_own_params() {
    // The `ablations` builtin's power-law points: one start, a γ or a β̂
    // per lane. Lanes with their own params retire at their own steps,
    // and a lane that reads another's parameters fails here by name.
    let paper = FluidParams::paper_example();
    let mut lanes: Vec<(FluidParams, State)> = Vec::new();
    for g in [0.3, 0.5, 0.7, 0.9, 1.0] {
        lanes.push((
            paper.with_gamma(g),
            State {
                w: 0.1 * paper.bdp(),
                q: 0.0,
            },
        ));
    }
    for b in [0.025, 0.05, 0.1, 0.2, 0.4, 2.0] {
        lanes.push((
            paper.with_beta_frac(b),
            State {
                w: 0.1 * paper.bdp(),
                q: 0.0,
            },
        ));
    }
    let plan = Schedule {
        dt: paper.base_rtt / 400.0,
        sample_steps: 400,
        sample_every: 40,
        settle_from: 0,
        settle_steps: 400 * 240,
    };
    let mut steps = assert_lanes_match(Law::Power, &lanes, &plan);
    steps.sort_unstable();
    steps.dedup();
    assert!(
        steps.len() > 5,
        "lanes settle at their own steps: {steps:?}"
    );
}

#[test]
#[should_panic(expected = "share bandwidth and base RTT")]
fn a_batch_refuses_lanes_on_different_links() {
    let p = FluidParams::paper_example();
    let s = State { w: p.bdp(), q: 0.0 };
    let other = FluidParams {
        base_rtt: 2.0 * p.base_rtt,
        ..p
    };
    let plan = Schedule {
        dt: p.base_rtt / 400.0,
        sample_steps: 1,
        sample_every: 1,
        settle_from: 1,
        settle_steps: 0,
    };
    integrate(Law::Power, &[(p, s), (other, s)], &plan);
}
