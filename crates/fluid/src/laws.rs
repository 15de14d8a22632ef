//! Fluid-model control laws (paper §2.2, Eq. 2–4 and Appendix C,
//! Eq. 19–27).
//!
//! All laws share the simplified window update
//!
//! ```text
//! ẇ = γr · ( w·e/f(t) − w + β̂ )          [Eq. 3 / Eq. 22]
//! ```
//!
//! and the queue dynamics
//!
//! ```text
//! q̇ = w/θ − b  (θ = q/b + τ),  q ≥ 0      [Eq. 9]
//! ```
//!
//! differing only in the equilibrium point `e` and feedback `f(t)`
//! (Eq. 20/21): queue-length based (HPCC-class), RTT-gradient based
//! (TIMELY class), and PowerTCP's power-based law, for which `w·e/f`
//! reduces exactly to `b·τ` via Property 1. The paper's delay-based
//! voltage law (Swift/FAST class, `e = τ`, `f = q/b + τ`) has the
//! queue-length law's dynamics exactly at η = 1, so it is not a law of
//! its own here.

/// Shared fluid-model parameters.
#[derive(Clone, Copy, Debug)]
pub struct FluidParams {
    /// Bottleneck bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Base RTT τ in seconds.
    pub base_rtt: f64,
    /// Aggregate additive increase β̂ in bytes.
    pub beta_hat: f64,
    /// Control gain γr = γ/δt in 1/s.
    pub gamma_r: f64,
    /// Target utilization η of the queue-length (HPCC-class) law: its
    /// equilibrium term becomes `e = η·b·τ`, so η < 1 trades a standing
    /// headroom for shorter queues. 1.0 reproduces the paper's simplified
    /// analysis; HPCC itself ships 0.95.
    pub hpcc_eta: f64,
}

/// The paper's per-update EWMA gain γ (its recommendation, 0.9).
pub const PAPER_GAMMA: f64 = 0.9;

/// The paper example's aggregate additive increase β̂, as a fraction of
/// BDP: a modest additive share.
pub const PAPER_BETA_FRAC: f64 = 0.1;

/// Control updates per base RTT (per-ACK updates): γr = γ·updates/τ.
const UPDATES_PER_RTT: f64 = 10.0;

impl FluidParams {
    /// The paper's running example: 100 Gbps bottleneck, 20 µs base RTT
    /// (Figure 3 caption), γ = [`PAPER_GAMMA`], β̂ = [`PAPER_BETA_FRAC`]
    /// of BDP, η = 1. The `fig3`, `ablations` and `theorems` baselines
    /// pin these bits, so the arithmetic is theirs (`20.0 * 1e-6` is not
    /// `20e-6` in the last bit).
    pub fn paper_example() -> Self {
        FluidParams {
            bandwidth: 100.0 * 1e9 / 8.0,
            base_rtt: 20.0 * 1e-6,
            beta_hat: 0.0,
            gamma_r: 0.0,
            hpcc_eta: 1.0,
        }
        .with_beta_frac(PAPER_BETA_FRAC)
        .with_gamma(PAPER_GAMMA)
    }

    /// These parameters at per-update gain `gamma`, one update every
    /// τ/10.
    pub fn with_gamma(self, gamma: f64) -> Self {
        FluidParams {
            gamma_r: gamma / (self.base_rtt / UPDATES_PER_RTT),
            ..self
        }
    }

    /// These parameters with β̂ at `beta_frac` of BDP.
    pub fn with_beta_frac(self, beta_frac: f64) -> Self {
        FluidParams {
            beta_hat: self.bdp() * beta_frac,
            ..self
        }
    }

    /// Bandwidth-delay product in bytes.
    pub fn bdp(&self) -> f64 {
        self.bandwidth * self.base_rtt
    }
}

/// The law families the paper analyses, one per signal class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Law {
    /// Queue-length based (voltage): `e = b·τ`, `f = q + b·τ` — HPCC.
    QueueLength,
    /// RTT-gradient based (current): `e = 1`, `f = q̇/b + 1` — TIMELY.
    RttGradient,
    /// Power based: `e = b²τ`, `f = Γ = (q+bτ)(q̇+µ)` — PowerTCP. With
    /// Property 1 the ratio `w·e/f` is exactly `b·τ`.
    Power,
}

impl Law {
    /// Human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Law::QueueLength => "queue-length (voltage)",
            Law::RttGradient => "rtt-gradient (current)",
            Law::Power => "power (PowerTCP)",
        }
    }

    /// Stable spec identifier (used by analytic `ScenarioSpec`s in TOML).
    /// Round-trips through [`Law::parse`].
    pub fn key(self) -> &'static str {
        match self {
            Law::QueueLength => "queue-length",
            Law::RttGradient => "rtt-gradient",
            Law::Power => "power",
        }
    }

    /// Parse a spec identifier (any [`Law::key`]).
    pub fn parse(s: &str) -> Result<Law, String> {
        let s = s.trim();
        let all = Law::all();
        all.into_iter().find(|l| l.key() == s).ok_or_else(|| {
            let keys: Vec<&str> = all.iter().map(|l| l.key()).collect();
            format!(
                "unknown control law {s:?} (expected one of: {})",
                keys.join(", ")
            )
        })
    }

    /// Every law family, in the paper's presentation order.
    pub fn all() -> [Law; 3] {
        [Law::QueueLength, Law::RttGradient, Law::Power]
    }
}

/// State of the single-bottleneck fluid model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct State {
    /// Aggregate window in bytes.
    pub w: f64,
    /// Bottleneck queue in bytes.
    pub q: f64,
}

/// Queue derivative (Eq. 9 with the q ≥ 0 boundary).
pub fn q_dot(p: &FluidParams, s: State) -> f64 {
    let theta = s.q / p.bandwidth + p.base_rtt;
    let raw = s.w / theta - p.bandwidth;
    if s.q <= 0.0 {
        raw.max(0.0)
    } else {
        raw
    }
}

/// Window derivative for a law (Eq. 3 with the law's `e`/`f`).
pub fn w_dot(law: Law, p: &FluidParams, s: State) -> f64 {
    let b = p.bandwidth;
    let tau = p.base_rtt;
    let ratio = match law {
        Law::QueueLength => (p.hpcc_eta * b * tau) / (s.q + b * tau),
        Law::RttGradient => {
            let g = q_dot(p, s) / b + 1.0;
            1.0 / g.max(1e-6)
        }
        // Property 1: w·e/f = w·b²τ/(b·w) = b·τ, independent of w.
        Law::Power => {
            return p.gamma_r * (b * tau + p.beta_hat - s.w);
        }
    };
    p.gamma_r * (s.w * ratio - s.w + p.beta_hat)
}

/// The unique equilibrium (w_e, q_e) = (bτ + β̂, β̂) shared by the
/// voltage-class and power laws (Appendix A/C).
pub fn analytic_equilibrium(p: &FluidParams) -> State {
    State {
        w: p.bdp() + p.beta_hat,
        q: p.beta_hat,
    }
}

/// Inflight bytes for the phase plots: pipe contents capped at one BDP
/// plus whatever queues.
pub fn inflight(p: &FluidParams, s: State) -> f64 {
    s.w.min(p.bdp()) + s.q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> FluidParams {
        FluidParams::paper_example()
    }

    #[test]
    fn paper_example_bdp() {
        // 100G × 20us = 250 KB.
        assert!((p().bdp() - 250_000.0).abs() < 1.0);
    }

    #[test]
    fn equilibrium_zeroes_derivatives_for_voltage_and_power() {
        let params = p();
        let eq = analytic_equilibrium(&params);
        for law in [Law::QueueLength, Law::Power] {
            let wd = w_dot(law, &params, eq);
            // Scale-relative tolerance (w ~ 2.75e5, gamma_r ~ 4.5e5).
            assert!(
                wd.abs() < 1e-3 * params.gamma_r * eq.w,
                "{law:?} ẇ = {wd} at equilibrium"
            );
        }
        assert!(q_dot(&params, eq).abs() < 1.0);
    }

    #[test]
    fn gradient_law_is_stationary_at_any_queue_when_qdot_zero() {
        // The Appendix-C result: the RTT-gradient law stabilizes wherever
        // q̇ = 0, i.e. at any queue length with w = b·θ... verify ẇ has
        // the same sign structure independent of q.
        let params = p();
        for q in [0.0, 50_000.0, 500_000.0] {
            // Window that exactly fills pipe + queue: q̇ = 0.
            let theta = q / params.bandwidth + params.base_rtt;
            let w = params.bandwidth * theta;
            let s = State { w, q };
            assert!(q_dot(&params, s).abs() < 1.0);
            let wd = w_dot(Law::RttGradient, &params, s);
            // ẇ = γr·β̂ > 0 regardless of q: only the additive term acts.
            assert!(
                (wd - params.gamma_r * params.beta_hat).abs() < 1e-6 * wd.abs().max(1.0),
                "q={q}: wd={wd}"
            );
        }
    }

    #[test]
    fn voltage_law_reaction_scales_with_queue() {
        let params = p();
        let w = params.bdp();
        let wd_small = w_dot(Law::QueueLength, &params, State { w, q: 10_000.0 });
        let wd_large = w_dot(Law::QueueLength, &params, State { w, q: 500_000.0 });
        assert!(wd_large < wd_small, "bigger queue, stronger decrease");
    }

    #[test]
    fn power_law_derivative_independent_of_queue() {
        let params = p();
        let w = params.bdp() * 1.5;
        let d1 = w_dot(Law::Power, &params, State { w, q: 0.0 });
        let d2 = w_dot(Law::Power, &params, State { w, q: 400_000.0 });
        assert!((d1 - d2).abs() < 1e-9, "Property 1 collapses f to b·w");
    }

    #[test]
    fn queue_and_delay_laws_are_equivalent() {
        // Eq. 20/21: the delay law (`e = τ`, `f = q/b + τ`) has the
        // queue-length law's fluid dynamics at η = 1, which is why it is
        // not a `Law` of its own.
        let params = p();
        let (b, tau) = (params.bandwidth, params.base_rtt);
        for (w, q) in [(100_000.0, 0.0), (300_000.0, 100_000.0)] {
            let s = State { w, q };
            let queue = w_dot(Law::QueueLength, &params, s);
            let delay = params.gamma_r * (w * tau / (q / b + tau) - w + params.beta_hat);
            assert!((queue - delay).abs() < 1e-6 * queue.abs().max(1.0));
        }
    }

    #[test]
    fn law_keys_round_trip_through_parse() {
        for law in Law::all() {
            assert_eq!(Law::parse(law.key()), Ok(law), "{}", law.key());
        }
        assert!(Law::parse("voltage").is_err());
    }

    #[test]
    fn hpcc_eta_scales_the_queue_law_equilibrium() {
        // η = 1 is the paper's simplified law; η < 1 makes the decrease
        // stronger at the same queue, shifting the settled queue down.
        let base = p();
        let mut tight = p();
        tight.hpcc_eta = 0.9;
        let s = State {
            w: base.bdp(),
            q: 50_000.0,
        };
        assert!(w_dot(Law::QueueLength, &tight, s) < w_dot(Law::QueueLength, &base, s));
        // η has no effect on the other laws.
        for law in [Law::RttGradient, Law::Power] {
            assert_eq!(w_dot(law, &tight, s), w_dot(law, &base, s), "{law:?}");
        }
    }

    #[test]
    fn empty_queue_cannot_go_negative() {
        let params = p();
        // Tiny window: pipe underfull, q must stay pinned at zero.
        let s = State {
            w: 10_000.0,
            q: 0.0,
        };
        assert_eq!(q_dot(&params, s), 0.0);
    }
}
