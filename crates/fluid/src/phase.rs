//! Figure 3: phase plots of window × inflight trajectories.
//!
//! The paper plots trajectories from a grid of initial `(window, queue)`
//! states to their final points at 100 Gbps / 20 µs base RTT, showing
//! that voltage-based CC overshoots below the BDP line (throughput loss),
//! current-based CC lands on start-dependent endpoints (no unique
//! equilibrium), and PowerTCP tracks straight to the unique equilibrium.

use crate::laws::{inflight, FluidParams, Law, State};
use crate::ode::{integrate, Schedule};

/// One phase-plot trajectory: (window, inflight) points plus endpoint.
#[derive(Clone, Debug)]
pub struct PhaseTrajectory {
    /// Initial state.
    pub start: State,
    /// Sampled (window_bytes, inflight_bytes) points.
    pub points: Vec<(f64, f64)>,
    /// Settled endpoint.
    pub end: State,
    /// Whether the trajectory ever dipped below 99% of BDP *after having
    /// been above it* — the paper's "throughput loss" region (window
    /// above BDP collapsing under it means an idle bottleneck).
    pub throughput_loss: bool,
}

/// Window starting fractions (of BDP) of the default Figure 3 grid (it
/// mirrors the paper's spread of starting circles on log-log axes).
pub const DEFAULT_W_FRACS: [f64; 5] = [0.05, 0.3, 1.0, 2.0, 4.0];

/// Queue starting fractions (of BDP) of the default Figure 3 grid.
pub const DEFAULT_Q_FRACS: [f64; 3] = [0.0, 0.5, 2.0];

/// A grid of initial states: the cross product of window and queue
/// starting points given as fractions of BDP, window-major (the order the
/// paper's plots enumerate starting circles in).
pub fn grid(p: &FluidParams, w_fracs: &[f64], q_fracs: &[f64]) -> Vec<State> {
    let bdp = p.bdp();
    let mut out = Vec::with_capacity(w_fracs.len() * q_fracs.len());
    for &wf in w_fracs {
        for &qf in q_fracs {
            out.push(State {
                w: bdp * wf,
                q: bdp * qf,
            });
        }
    }
    out
}

/// Run a grid of initial states for one law (the entry point behind
/// analytic `phase` scenarios): every start is one
/// lane of a single [`integrate`] call, sampled for 60 base RTTs and then
/// given four times as long to settle.
pub fn phase_portrait_grid(law: Law, p: &FluidParams, grid: &[State]) -> Vec<PhaseTrajectory> {
    let steps = 400 * 60; // 60 base RTTs
    let plan = Schedule {
        dt: p.base_rtt / 400.0,
        sample_steps: steps,
        sample_every: 40,
        settle_from: steps,
        settle_steps: steps * 4,
    };
    let bdp = p.bdp();
    let lanes: Vec<(FluidParams, State)> = grid.iter().map(|&s| (*p, s)).collect();
    integrate(law, &lanes, &plan)
        .into_iter()
        .zip(grid)
        .map(|(lane, &start)| {
            let mut was_above = start.w >= bdp;
            let mut throughput_loss = false;
            for s in &lane.samples {
                if s.w >= bdp {
                    was_above = true;
                }
                if was_above && inflight(p, *s) < bdp * 0.99 {
                    throughput_loss = true;
                }
            }
            PhaseTrajectory {
                start,
                points: lane
                    .samples
                    .iter()
                    .map(|s| (s.w, inflight(p, *s)))
                    .collect(),
                end: lane.end,
                throughput_loss,
            }
        })
        .collect()
}

/// Spread of endpoints (max pairwise distance in inflight space) — small
/// for unique-equilibrium laws, large for the gradient law.
pub fn endpoint_spread(trajs: &[PhaseTrajectory], p: &FluidParams) -> f64 {
    let endpoints: Vec<f64> = trajs.iter().map(|t| inflight(p, t.end)).collect();
    let max = endpoints.iter().cloned().fold(f64::MIN, f64::max);
    let min = endpoints.iter().cloned().fold(f64::MAX, f64::min);
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> FluidParams {
        FluidParams::paper_example()
    }

    /// One law's portrait over the default Figure 3 grid.
    fn portrait(law: Law, params: &FluidParams) -> Vec<PhaseTrajectory> {
        phase_portrait_grid(law, params, &default_grid(params))
    }

    fn default_grid(params: &FluidParams) -> Vec<State> {
        grid(params, &DEFAULT_W_FRACS, &DEFAULT_Q_FRACS)
    }

    #[test]
    fn fig3a_voltage_unique_equilibrium_with_throughput_loss() {
        let params = p();
        let trajs = portrait(Law::QueueLength, &params);
        let spread = endpoint_spread(&trajs, &params);
        assert!(
            spread < 0.05 * params.bdp(),
            "voltage endpoints must coincide (spread {spread})"
        );
        // The overreaction: at least one trajectory starting congested
        // dips below the BDP line.
        assert!(
            trajs.iter().any(|t| t.throughput_loss),
            "voltage law should show throughput loss"
        );
    }

    #[test]
    fn fig3b_gradient_no_unique_equilibrium() {
        let params = p();
        let trajs = portrait(Law::RttGradient, &params);
        let spread = endpoint_spread(&trajs, &params);
        assert!(
            spread > 0.3 * params.bdp(),
            "gradient endpoints must differ (spread {spread})"
        );
    }

    #[test]
    fn fig3c_power_unique_equilibrium_without_throughput_loss() {
        let params = p();
        let trajs = portrait(Law::Power, &params);
        let spread = endpoint_spread(&trajs, &params);
        assert!(
            spread < 0.02 * params.bdp(),
            "power endpoints must coincide (spread {spread})"
        );
        assert!(
            trajs.iter().all(|t| !t.throughput_loss),
            "power law must not lose throughput on any trajectory"
        );
    }

    #[test]
    fn grid_covers_under_and_over_bdp() {
        let params = p();
        let grid = default_grid(&params);
        assert!(grid.iter().any(|s| s.w < params.bdp() * 0.5));
        assert!(grid.iter().any(|s| s.w > params.bdp() * 2.0));
        assert!(grid.iter().any(|s| s.q > params.bdp()));
    }
}
