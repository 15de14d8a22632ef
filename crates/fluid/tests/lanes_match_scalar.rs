//! The lane kernel against a plain loop of `rk4_step`, bit for bit: every
//! sampled state, every endpoint and every per-lane step count of
//! `integrate` (and of `trajectory` / `settle`, its two plain schedules)
//! must equal what one start integrated alone gives — for every law, over the
//! parameters the analytic builtins use, at lane counts that leave a lane
//! outside the packed pairs or not, from the `q = 0` boundary, with lanes
//! that settle at different steps and lanes that never do.

use fluid_model::{
    integrate, q_dot, rk4_step, settle, trajectory, FluidParams, Law, Schedule, State,
};
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
/// `settle_from`. Returns the per-lane step counts.
fn assert_lanes_match(law: Law, p: &FluidParams, starts: &[State], plan: &Schedule) -> Vec<usize> {
    let lanes = integrate(law, p, starts, plan);
    assert_eq!(lanes.len(), starts.len());
    for (i, (lane, &s0)) in lanes.iter().zip(starts).enumerate() {
        let what = format!(
            "{law:?} lane {i} of {} from {s0:?} under {plan:?}",
            starts.len()
        );
        let want = scalar_trajectory(law, p, s0, plan.dt, plan.sample_steps, plan.sample_every);
        assert_eq!(all_bits(&lane.samples), all_bits(&want), "samples: {what}");
        let from = *scalar_trajectory(law, p, s0, plan.dt, plan.settle_from, 1)
            .last()
            .unwrap();
        let (end, steps) = scalar_settle(law, p, from, plan.dt, plan.settle_steps);
        assert_eq!(bits(lane.end), bits(end), "end: {what}");
        assert_eq!(lane.steps, steps, "steps: {what}");
    }
    lanes.iter().map(|l| l.steps).collect()
}

/// Parameters over the ranges the `ablations` and `theorems` builtins
/// reach and past them: 10–400 G, τ 2–100 µs, β̂ 0 (exactly, a quarter
/// of the time) to ½ BDP, γ 0.3–2 per τ/10, η 0.5–1.
fn params(rng: &mut TestRng) -> FluidParams {
    let (gbps, rtt_us, beta_frac, gamma, eta) = (
        10.0..400.0f64,
        2.0..100.0f64,
        0.0..0.5f64,
        0.3..2.0f64,
        0.5..1.0f64,
    )
        .sample(rng);
    let (bandwidth, base_rtt) = (gbps * 1e9 / 8.0, rtt_us * 1e-6);
    FluidParams {
        bandwidth,
        base_rtt,
        beta_hat: if rng.below(4) == 0 {
            0.0
        } else {
            bandwidth * base_rtt * beta_frac
        },
        gamma_r: gamma / (base_rtt / 10.0),
        hpcc_eta: eta,
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
    // `g.max(1e-6)` clamp]
    let mut seen = [0u32; 3];
    for _ in 0..128 {
        let law = Law::all()[rng.below(Law::all().len())];
        let p = params(&mut rng);
        // w ∈ (0, 8] BDP; q ∈ [0, 4] BDP. A quarter of the lanes start
        // at q = 0 and a quarter with w < 1e-6 BDP, where the queue
        // drains at nearly the line rate.
        let starts: Vec<State> = (0..LANE_COUNTS[rng.below(LANE_COUNTS.len())])
            .map(|_| {
                let (wf, qf, kind) = (0.0..8.0f64, 0.0..4.0f64, 0usize..4).sample(&mut rng);
                let w = p.bdp() * if kind == 1 { wf * 1e-7 } else { 8.0 - wf };
                let q = if kind == 0 { 0.0 } else { p.bdp() * qf };
                State { w, q }
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
        let dt = p.base_rtt / if coarse == 1 { 40.0 } else { 400.0 };
        let plan = Schedule {
            dt,
            sample_steps,
            sample_every,
            settle_from,
            settle_steps,
        };
        let steps = assert_lanes_match(law, &p, &starts, &plan);

        // The two plain schedules.
        let steps_run = sample_steps.max(1);
        let tracks = trajectory(law, &p, &starts, dt, steps_run, sample_every);
        let ends = settle(law, &p, &starts, dt, settle_steps);
        for ((track, &(end, n)), &s0) in tracks.iter().zip(&ends).zip(&starts) {
            let want = scalar_trajectory(law, &p, s0, dt, steps_run, sample_every);
            assert_eq!(
                all_bits(track),
                all_bits(&want),
                "{law:?} from {s0:?}, {p:?}"
            );
            let (want_end, want_n) = scalar_settle(law, &p, s0, dt, settle_steps);
            assert_eq!(
                (bits(end), n),
                (bits(want_end), want_n),
                "{law:?} from {s0:?}, {p:?}"
            );
        }

        // `integrate` stops stepping a lane once it has settled and
        // sampling is over; `trajectory` steps every start at least once.
        let retired = steps.iter().map(|&n| (settle_from + n).max(sample_steps));
        let q0 = |s: &State| s.q == 0.0 && s.w / p.base_rtt < p.bandwidth;
        let g_clamp = |s: &State| q_dot(&p, *s) / p.bandwidth + 1.0 < 1e-6;
        for (hit, n) in [
            retired.clone().min() < retired.max(),
            starts.iter().any(q0),
            law == Law::RttGradient && starts.iter().any(g_clamp),
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
    let starts: Vec<State> = [(0.05, 0.0), (0.3, 0.5), (1.0, 0.0), (2.0, 2.0), (8.0, 4.0)]
        .iter()
        .map(|&(wf, qf)| State {
            w: p.bdp() * wf,
            q: p.bdp() * qf,
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
        let mut steps = assert_lanes_match(law, &p, &starts, &plan);
        assert!(steps.iter().all(|&n| n < cap), "{law:?} settles: {steps:?}");
        steps.sort_unstable();
        steps.dedup();
        assert!(steps.len() > 1, "{law:?} lanes settle at different steps");
    }
    // No unique equilibrium (Appendix C): the window drifts up by γr·β̂
    // forever, so no lane ever passes the settle test.
    let steps = assert_lanes_match(Law::RttGradient, &p, &starts, &plan);
    assert_eq!(steps, vec![cap; starts.len()]);
}
