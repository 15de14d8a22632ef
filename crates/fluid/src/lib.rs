//! # fluid-model
//!
//! The paper's analytical machinery, executable: fluid-model ODEs for the
//! control-law families (§2.2, Appendix C), RK4 integration, the
//! Figure 2 response curves and Figure 3 phase portraits, and numerical
//! verification of Theorems 1 (stability), 2 (exponential convergence
//! with time constant δt/γ), and 3 (β-weighted proportional fairness).

#![warn(missing_docs)]

/// Behavioral version of the fluid model. Bump on **any** change that can
/// move a number produced by the model — a law's equations, the RK4
/// integrator, grid defaults, the convergence fit, the fairness
/// iteration. Content-addressed caches of analytic results (`dcn-runner`)
/// salt their keys with this constant, so stale outcomes from an older
/// model miss instead of being served.
pub const MODEL_VERSION: u32 = 1;

pub mod convergence;
pub mod fairness;
pub mod laws;
pub mod ode;
pub mod phase;
pub mod response;
pub mod stability;

pub use convergence::{measure_power_convergence, ConvergenceFit};
pub use fairness::{analytic_windows, equilibrium_windows};
pub use laws::{
    analytic_equilibrium, inflight, q_dot, w_dot, FluidParams, Law, State, PAPER_BETA_FRAC,
    PAPER_GAMMA,
};
pub use ode::{integrate, rk4_step, Lane, Schedule};
pub use phase::{
    endpoint_spread, grid, phase_portrait_grid, PhaseTrajectory, DEFAULT_Q_FRACS, DEFAULT_W_FRACS,
};
pub use response::{current_md, fig2c_cases, power_md, voltage_md, Fig2Case};
pub use stability::{eigenvalues_2x2, powertcp_jacobian};
