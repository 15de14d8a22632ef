//! The window both PowerTCP variants steer with Eq. 7.
//!
//! ```text
//! w ← γ · ( w_old / Γ_norm + β ) + (1 − γ) · w
//! ```
//!
//! [`PowerTcp`](crate::PowerTcp) (Algorithm 1) and
//! [`ThetaPowerTcp`](crate::ThetaPowerTcp) (Algorithm 2) differ only in
//! how they measure `Γ_norm` and how often they call
//! [`Window::update`]; the update itself, the clamp, the `w_old`
//! snapshot, the timeout back-off, `β` and the pacing rate live here.
//!
//! Constants:
//!
//! * [`GAMMA`] `= 0.9`: the EWMA gain the paper recommends from its
//!   parameter sweep (§3.3, "Parameters"). A spec sets γ per sweep point
//!   (`sweep.params`, `gamma=…`).
//! * `MIN_CWND_BYTES = 256`: the lower clamp. A window below one MTU is
//!   still valid (pacing stretches packets out), but zero would deadlock.
//! * The upper clamp is the initial window, one host BDP: a single flow
//!   gains nothing beyond line rate (HPCC applies the same `W ≤ W_init`
//!   cap).
//! * `TIMEOUT_BACKOFF = 0.5`: the paper does not specify loss handling
//!   (its deployment is effectively lossless); halving on a timeout is the
//!   conventional conservative choice and only matters under
//!   pathological buffer pressure.

use crate::cc::{clamp_cwnd, rate_from_cwnd, AckInfo, CcContext};
use crate::units::Bandwidth;

/// The paper's recommended EWMA gain γ (§3.3).
pub const GAMMA: f64 = 0.9;

/// Lower window clamp in bytes.
pub(crate) const MIN_CWND_BYTES: f64 = 256.0;

/// Multiplicative back-off applied on a retransmission timeout.
const TIMEOUT_BACKOFF: f64 = 0.5;

/// Eq. 7's state: the window, its once-per-RTT snapshot `w_old`, and the
/// flow context `β` and the clamp derive from.
#[derive(Clone, Debug)]
pub(crate) struct Window {
    gamma: f64,
    ctx: CcContext,
    pub(crate) cwnd: f64,
    /// `w_old`: window snapshot taken once per RTT (UPDATEOLD in Alg. 1).
    pub(crate) cwnd_old: f64,
    /// When `ack_seq` passes this point, one RTT has elapsed since the
    /// snapshot and `cwnd_old` is refreshed.
    update_seq: u64,
    pub(crate) max_cwnd: f64,
}

impl Window {
    /// Start at the host BDP, so a new flow sends at line rate for one RTT.
    pub(crate) fn new(gamma: f64, ctx: CcContext) -> Self {
        let init = ctx.host_bdp_bytes();
        Window {
            gamma,
            ctx,
            cwnd: init,
            cwnd_old: init,
            update_seq: 0,
            max_cwnd: init,
        }
    }

    /// The additive-increase term `β = HostBw·τ/N` in bytes.
    pub(crate) fn beta(&self) -> f64 {
        self.ctx.beta_bytes()
    }

    /// Eq. 7 with the smoothed normalised power `norm_power`, then the
    /// clamp and the `w_old` snapshot.
    pub(crate) fn update(&mut self, norm_power: f64, ack: &AckInfo<'_>) {
        let gamma = self.gamma;
        let new = gamma * (self.cwnd_old / norm_power + self.beta()) + (1.0 - gamma) * self.cwnd;
        self.cwnd = clamp_cwnd(new, MIN_CWND_BYTES, self.max_cwnd);
        self.snapshot(ack);
    }

    /// UPDATEOLD: refresh `w_old` when this ACK covers the snapshot's
    /// sequence point.
    pub(crate) fn snapshot(&mut self, ack: &AckInfo<'_>) {
        if ack.ack_seq >= self.update_seq {
            self.cwnd_old = self.cwnd;
            self.update_seq = ack.snd_nxt;
        }
    }

    /// Halve the window (and its snapshot) on a retransmission timeout.
    pub(crate) fn on_timeout(&mut self) {
        self.cwnd = clamp_cwnd(self.cwnd * TIMEOUT_BACKOFF, MIN_CWND_BYTES, self.max_cwnd);
        self.cwnd_old = self.cwnd;
    }

    /// `cwnd / τ`, capped at the host line rate.
    pub(crate) fn pacing_rate(&self) -> Bandwidth {
        rate_from_cwnd(self.cwnd, self.ctx.base_rtt, self.ctx.host_bw)
    }
}
