//! Fixed-step RK4 integration of the two-state fluid model.
//!
//! [`rk4_step`] defines one step of one state. Everything that takes more
//! than one step goes through [`integrate`], which advances a *batch* of
//! independent lanes in lockstep: each RK4 stage is evaluated for every
//! live lane before the next stage begins. A lane is a start plus its own
//! γr, β̂ and η, each kept in a column beside `w`/`q`; bandwidth and τ are
//! the batch's. So a Figure 3 portrait (one law, 15 starts) and an
//! ablation sweep (one start, a γ or β̂ per lane) are each one batch.
//!
//! One step of this model is a serial chain of up to sixteen dependent
//! divides (`q/b`, `w/θ`, `q̇/b`, `1/g` in each of four stages), so a
//! single trajectory waits on divider latency; lanes are independent, and
//! side by side their divides overlap. The law is matched once per step,
//! outside the lane loops, so each loop is compiled for one law and the
//! x86-64 baseline packs it two lanes per `divpd`: the gradient law's
//! 112 ns per step alone is 13.5 ns per lane-step at Figure 3's 15 lanes
//! (power 70 → 8, queue-length 73 → 10; 2-core Xeon).
//!
//! **Bit identity.** A lane evaluates exactly `rk4_step`'s expression
//! tree, in its order, on its own `f64`s: nothing is reassociated across
//! or within lanes, Rust never contracts `a*b + c` into an FMA, and IEEE
//! division rounds the same in any company, packed or not. So every
//! state, endpoint and step count equals what a loop of `rk4_step` from
//! that start gives (`tests/lanes_match_scalar.rs` holds it to `to_bits`
//! equality) and [`crate::MODEL_VERSION`] does not move.
//!
//! **Compaction.** Lanes finish at different steps: one retires the step
//! its ‖Δ‖ falls below the settle tolerance (once sampling is over), and
//! the last live lane (its state and its parameter columns) is swapped
//! into its slot, so the live lanes stay a dense prefix of the columns
//! however unevenly a law settles. The RTT-gradient law never does: it
//! has no unique equilibrium (Appendix C, Figure 3b) — wherever `q̇ = 0`
//! the additive term still pushes the window up by `γr·β̂` — so all its
//! lanes run to the cut-off together.

use crate::laws::{q_dot, w_dot, FluidParams, Law, State};

/// One RK4 step of (ẇ, q̇) with the q ≥ 0 boundary enforced after the
/// step (projection, the standard treatment for this saturation).
pub fn rk4_step(law: Law, p: &FluidParams, s: State, dt: f64) -> State {
    let f = |s: State| -> (f64, f64) { (w_dot(law, p, s), q_dot(p, s)) };
    let clamp = |s: State| State {
        w: s.w.max(0.0),
        q: s.q.max(0.0),
    };
    let (k1w, k1q) = f(s);
    let s2 = clamp(State {
        w: s.w + 0.5 * dt * k1w,
        q: s.q + 0.5 * dt * k1q,
    });
    let (k2w, k2q) = f(s2);
    let s3 = clamp(State {
        w: s.w + 0.5 * dt * k2w,
        q: s.q + 0.5 * dt * k2q,
    });
    let (k3w, k3q) = f(s3);
    let s4 = clamp(State {
        w: s.w + dt * k3w,
        q: s.q + dt * k3q,
    });
    let (k4w, k4q) = f(s4);
    clamp(State {
        w: s.w + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w),
        q: s.q + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q),
    })
}

/// The columns of a batch of independent lanes: slot `i` is the state
/// `(w[i], q[i])` under the law parameters `(gamma_r[i], beta_hat[i],
/// hpcc_eta[i])`, the slopes of its four RK4 stages sit beside it in
/// `kw`/`kq`, and `nw`/`nq` receive its next state. Bandwidth and τ are
/// the batch's, one value each.
struct Lanes {
    bandwidth: f64,
    base_rtt: f64,
    gamma_r: Vec<f64>,
    beta_hat: Vec<f64>,
    hpcc_eta: Vec<f64>,
    w: Vec<f64>,
    q: Vec<f64>,
    kw: [Vec<f64>; 4],
    kq: [Vec<f64>; 4],
    nw: Vec<f64>,
    nq: Vec<f64>,
}

/// The law parameters of lanes `0..live`, read a column at a time: a
/// lane's [`FluidParams`] is put together from its slots where a stage
/// evaluates it, so the lane loops read plain `f64` columns. (Handing the
/// loops a slice of per-lane `FluidParams` structs instead loses the
/// packed divide: Figure 3's gradient lanes ran 2.4× slower.)
#[derive(Clone, Copy)]
struct Params<'a> {
    bandwidth: f64,
    base_rtt: f64,
    gamma_r: &'a [f64],
    beta_hat: &'a [f64],
    hpcc_eta: &'a [f64],
}

impl Params<'_> {
    fn prefix(self, n: usize) -> Self {
        Params {
            gamma_r: &self.gamma_r[..n],
            beta_hat: &self.beta_hat[..n],
            hpcc_eta: &self.hpcc_eta[..n],
            ..self
        }
    }

    #[inline(always)]
    fn lane(&self, i: usize) -> FluidParams {
        FluidParams {
            bandwidth: self.bandwidth,
            base_rtt: self.base_rtt,
            gamma_r: self.gamma_r[i],
            beta_hat: self.beta_hat[i],
            hpcc_eta: self.hpcc_eta[i],
        }
    }
}

/// One RK4 stage for every lane, with `wd` as ẇ: the slopes at
/// `clamp(s + h·k_in)`.
fn stage(
    wd: &impl Fn(&FluidParams, State) -> f64,
    p: Params<'_>,
    h: f64,
    (w, q): (&[f64], &[f64]),
    (kw_in, kq_in): (&[f64], &[f64]),
    (kw, kq): (&mut [f64], &mut [f64]),
) {
    let n = w.len();
    let (q, kw_in, kq_in, kw, kq) = (
        &q[..n],
        &kw_in[..n],
        &kq_in[..n],
        &mut kw[..n],
        &mut kq[..n],
    );
    let p = p.prefix(n);
    for i in 0..n {
        let p = p.lane(i);
        let s = State {
            w: (w[i] + h * kw_in[i]).max(0.0),
            q: (q[i] + h * kq_in[i]).max(0.0),
        };
        kw[i] = wd(&p, s);
        kq[i] = q_dot(&p, s);
    }
}

impl Lanes {
    fn new(starts: &[(FluidParams, State)]) -> Lanes {
        let zeros = || vec![0.0; starts.len()];
        let column = |f: fn(&(FluidParams, State)) -> f64| starts.iter().map(f).collect();
        let (p0, _) = starts.first().expect("a batch has a lane");
        Lanes {
            bandwidth: p0.bandwidth,
            base_rtt: p0.base_rtt,
            gamma_r: column(|(p, _)| p.gamma_r),
            beta_hat: column(|(p, _)| p.beta_hat),
            hpcc_eta: column(|(p, _)| p.hpcc_eta),
            w: column(|(_, s)| s.w),
            q: column(|(_, s)| s.q),
            kw: std::array::from_fn(|_| zeros()),
            kq: std::array::from_fn(|_| zeros()),
            nw: zeros(),
            nq: zeros(),
        }
    }

    /// Swap the lanes in slots `a` and `b`: every column a lane owns
    /// between steps.
    fn swap(&mut self, a: usize, b: usize) {
        for column in [
            &mut self.gamma_r,
            &mut self.beta_hat,
            &mut self.hpcc_eta,
            &mut self.w,
            &mut self.q,
        ] {
            column.swap(a, b);
        }
    }

    /// [`rk4_step`] for lanes `0..live`, stage by stage: the next states
    /// land in `nw`/`nq`. The law is matched here, once, so each lane loop
    /// below is compiled for one law with no branch on it inside, which
    /// is what lets the compiler pack two lanes per divide.
    fn step(&mut self, law: Law, dt: f64, live: usize) {
        match law {
            Law::QueueLength => self.step_with(dt, live, |p, s| w_dot(Law::QueueLength, p, s)),
            Law::RttGradient => self.step_with(dt, live, |p, s| w_dot(Law::RttGradient, p, s)),
            Law::Power => self.step_with(dt, live, |p, s| w_dot(Law::Power, p, s)),
        }
    }

    /// [`Lanes::step`] with `wd` as ẇ. Every lane evaluates `rk4_step`'s
    /// expression tree in `rk4_step`'s order on its own parameters, so
    /// each result is bit-identical to it.
    fn step_with(&mut self, dt: f64, live: usize, wd: impl Fn(&FluidParams, State) -> f64) {
        let p = Params {
            bandwidth: self.bandwidth,
            base_rtt: self.base_rtt,
            gamma_r: &self.gamma_r[..live],
            beta_hat: &self.beta_hat[..live],
            hpcc_eta: &self.hpcc_eta[..live],
        };
        let (w, q) = (&self.w[..live], &self.q[..live]);
        let [k1w, k2w, k3w, k4w] = self.kw.each_mut().map(|k| &mut k[..live]);
        let [k1q, k2q, k3q, k4q] = self.kq.each_mut().map(|k| &mut k[..live]);
        let (nw, nq) = (&mut self.nw[..live], &mut self.nq[..live]);
        for i in 0..live {
            let p = p.lane(i);
            let s = State { w: w[i], q: q[i] };
            k1w[i] = wd(&p, s);
            k1q[i] = q_dot(&p, s);
        }
        stage(&wd, p, 0.5 * dt, (w, q), (k1w, k1q), (k2w, k2q));
        stage(&wd, p, 0.5 * dt, (w, q), (k2w, k2q), (k3w, k3q));
        stage(&wd, p, dt, (w, q), (k3w, k3q), (k4w, k4q));
        for i in 0..live {
            nw[i] = (w[i] + dt / 6.0 * (k1w[i] + 2.0 * k2w[i] + 2.0 * k3w[i] + k4w[i])).max(0.0);
            nq[i] = (q[i] + dt / 6.0 * (k1q[i] + 2.0 * k2q[i] + 2.0 * k3q[i] + k4q[i])).max(0.0);
        }
    }
}

/// When [`integrate`] samples its lanes and when it lets one stop.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Step size in seconds.
    pub dt: f64,
    /// Every lane takes at least this many steps, and its state is
    /// recorded at the start and after each `sample_every`-th of them.
    pub sample_steps: usize,
    /// Sampling stride in steps.
    pub sample_every: usize,
    /// The settle test (‖Δ‖ of one step below 1e-9 BDP) runs on the
    /// steps after this one.
    pub settle_from: usize,
    /// A lane that has not passed the settle test this many steps after
    /// `settle_from` is cut off there.
    pub settle_steps: usize,
}

/// What [`integrate`] found for one start.
#[derive(Clone, Debug, PartialEq)]
pub struct Lane {
    /// The start, then every `sample_every`-th state through
    /// `sample_steps`.
    pub samples: Vec<State>,
    /// The state after the step that passed the settle test, or at the
    /// cut-off.
    pub end: State,
    /// Steps from `settle_from` to `end` — this lane's own count.
    pub steps: usize,
}

/// Integrate every `(params, start)` lane under `plan`, all lanes in
/// lockstep: one RK4 step advances every live lane together, a lane
/// retires once it has settled (or been cut off) and `sample_steps` have
/// passed, and the lanes still live are kept at the front of the columns.
/// Each lane carries its own γr, β̂ and η; bandwidth and τ (and with them
/// the settle tolerance, 1e-9 BDP) are one batch's, and a lane that
/// differs in either panics. Lanes never interact: each result is what a
/// loop of [`rk4_step`] from that start under that lane's params would
/// give, bit for bit.
pub fn integrate(law: Law, starts: &[(FluidParams, State)], plan: &Schedule) -> Vec<Lane> {
    assert!(plan.dt > 0.0 && plan.sample_every > 0);
    let Some((p0, _)) = starts.first() else {
        return Vec::new();
    };
    assert!(
        starts.iter().all(|(p, _)| {
            p.bandwidth.to_bits() == p0.bandwidth.to_bits()
                && p.base_rtt.to_bits() == p0.base_rtt.to_bits()
        }),
        "the lanes of one batch share bandwidth and base RTT"
    );
    let tol = p0.bdp() * 1e-9;
    let cutoff = plan.settle_from + plan.settle_steps;
    let mut out: Vec<Lane> = starts
        .iter()
        .map(|&(_, s)| {
            let mut samples = Vec::with_capacity(plan.sample_steps / plan.sample_every + 1);
            samples.push(s);
            Lane {
                samples,
                end: s,
                steps: 0,
            }
        })
        .collect();
    let mut lanes = Lanes::new(starts);
    // Slot `i` of the columns holds lane `lane_of[i]`.
    let mut lane_of: Vec<usize> = (0..starts.len()).collect();
    let mut settled = vec![cutoff == 0; starts.len()];
    let mut live = starts.len();
    let mut step = 0;
    loop {
        if step >= plan.sample_steps {
            let mut i = 0;
            while i < live {
                if settled[i] {
                    live -= 1;
                    lanes.swap(i, live);
                    lane_of.swap(i, live);
                    settled.swap(i, live);
                } else {
                    i += 1;
                }
            }
        }
        if live == 0 {
            return out;
        }
        lanes.step(law, plan.dt, live);
        step += 1;
        // Outside the settle phase only the cut-off can end a lane.
        if step > plan.settle_from || step == cutoff {
            for i in 0..live {
                let delta = (lanes.nw[i] - lanes.w[i]).abs() + (lanes.nq[i] - lanes.q[i]).abs();
                if !settled[i] && (delta < tol || step == cutoff) {
                    settled[i] = true;
                    let lane = &mut out[lane_of[i]];
                    lane.end = State {
                        w: lanes.nw[i],
                        q: lanes.nq[i],
                    };
                    lane.steps = step - plan.settle_from;
                }
            }
        }
        std::mem::swap(&mut lanes.w, &mut lanes.nw);
        std::mem::swap(&mut lanes.q, &mut lanes.nq);
        if step <= plan.sample_steps && step % plan.sample_every == 0 {
            for i in 0..live {
                out[lane_of[i]].samples.push(State {
                    w: lanes.w[i],
                    q: lanes.q[i],
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::analytic_equilibrium;

    fn p() -> FluidParams {
        FluidParams::paper_example()
    }

    /// Every start under `params`, stepped until its state stops moving
    /// (‖Δ‖ per step below 1e-9 BDP) or `max_steps` pass: each lane's
    /// final state and step count.
    fn settle(
        law: Law,
        params: &FluidParams,
        starts: &[State],
        max_steps: usize,
    ) -> Vec<(State, usize)> {
        let plan = Schedule {
            dt: 1e-7,
            sample_steps: 0,
            sample_every: 1,
            settle_from: 0,
            settle_steps: max_steps,
        };
        let lanes: Vec<_> = starts.iter().map(|&s| (*params, s)).collect();
        integrate(law, &lanes, &plan)
            .into_iter()
            .map(|lane| (lane.end, lane.steps))
            .collect()
    }

    /// One start for `steps` of 0.1 µs, every `sample_every`-th state kept.
    fn trajectory(
        law: Law,
        params: &FluidParams,
        start: State,
        steps: usize,
        sample_every: usize,
    ) -> Vec<State> {
        let plan = Schedule {
            dt: 1e-7,
            sample_steps: steps,
            sample_every,
            settle_from: steps,
            settle_steps: 0,
        };
        integrate(law, &[(*params, start)], &plan).remove(0).samples
    }

    #[test]
    fn power_law_settles_to_analytic_equilibrium() {
        let params = p();
        let eq = analytic_equilibrium(&params);
        let starts = [
            State {
                w: 10_000.0,
                q: 0.0,
            },
            State {
                w: 900_000.0,
                q: 600_000.0,
            },
            State {
                w: 250_000.0,
                q: 0.0,
            },
        ];
        let ends = settle(Law::Power, &params, &starts, 4_000_000);
        for (s0, (s, _)) in starts.iter().zip(ends) {
            assert!(
                (s.w - eq.w).abs() / eq.w < 0.01,
                "from {s0:?}: settled w {} vs {}",
                s.w,
                eq.w
            );
            assert!(
                (s.q - eq.q).abs() < 0.05 * eq.q + 1_000.0,
                "from {s0:?}: settled q {} vs {}",
                s.q,
                eq.q
            );
        }
    }

    #[test]
    fn voltage_law_settles_to_same_equilibrium() {
        let params = p();
        let eq = analytic_equilibrium(&params);
        let (s, _) = settle(
            Law::QueueLength,
            &params,
            &[State {
                w: 600_000.0,
                q: 300_000.0,
            }],
            4_000_000,
        )[0];
        assert!((s.w - eq.w).abs() / eq.w < 0.02, "w={} eq={}", s.w, eq.w);
    }

    #[test]
    fn gradient_law_endpoint_depends_on_start() {
        // No unique equilibrium: the gradient law is stationary wherever
        // q̇ = 0 (Appendix C). With β̂ = 0 (pure gradient reaction) two
        // different starts freeze at very different queue lengths; with
        // β̂ > 0 the additive term drifts the window upward forever —
        // either way, no unique equilibrium exists.
        let mut params = p();
        params.beta_hat = 0.0;
        let starts = [
            State {
                w: 260_000.0,
                q: 0.0,
            },
            State {
                w: 800_000.0,
                q: 500_000.0,
            },
        ];
        let ends = settle(Law::RttGradient, &params, &starts, 1_000_000);
        let (a, b) = (ends[0].0, ends[1].0);
        assert!(
            (a.q - b.q).abs() > 0.2 * params.bdp(),
            "gradient law must not collapse to one equilibrium: {a:?} vs {b:?}"
        );
        // Sanity: the voltage law from the same two starts DOES collapse.
        let params = p();
        let ends = settle(Law::QueueLength, &params, &starts, 2_000_000);
        let (va, vb) = (ends[0].0, ends[1].0);
        assert!((va.q - vb.q).abs() < 0.05 * params.bdp());
    }

    #[test]
    fn trajectory_sampling_counts() {
        let params = p();
        let t = trajectory(
            Law::Power,
            &params,
            State {
                w: 100_000.0,
                q: 0.0,
            },
            1000,
            100,
        );
        assert_eq!(t.len(), 11);
    }

    #[test]
    fn states_remain_finite_and_nonnegative() {
        let params = p();
        for law in Law::all() {
            let t = trajectory(
                law,
                &params,
                State {
                    w: 1_500_000.0,
                    q: 1_000_000.0,
                },
                200_000,
                1000,
            );
            for s in &t {
                assert!(s.w.is_finite() && s.q.is_finite(), "{law:?}");
                assert!(s.w >= 0.0 && s.q >= 0.0, "{law:?}");
            }
        }
    }
}
