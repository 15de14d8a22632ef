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
use crate::time::Tick;
use crate::units::Bandwidth;
use std::cell::Cell;

/// The paper's recommended EWMA gain γ (§3.3).
pub const GAMMA: f64 = 0.9;

/// Lower window clamp in bytes.
pub(crate) const MIN_CWND_BYTES: f64 = 256.0;

/// Multiplicative back-off applied on a retransmission timeout.
const TIMEOUT_BACKOFF: f64 = 0.5;

/// Eq. 7's state: the window, its once-per-RTT snapshot `w_old`, and the
/// per-flow constants `β` and the pacing rate derive from.
#[derive(Clone, Debug)]
pub(crate) struct Window {
    gamma: f64,
    /// `β = HostBw·τ/N` in bytes.
    beta: f64,
    pacing: PacingRate,
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
            beta: ctx.beta_bytes(),
            pacing: PacingRate::new(&ctx),
            cwnd: init,
            cwnd_old: init,
            update_seq: 0,
            max_cwnd: init,
        }
    }

    /// The additive-increase term `β = HostBw·τ/N` in bytes.
    pub(crate) fn beta(&self) -> f64 {
        self.beta
    }

    /// Eq. 7 with the smoothed normalised power `norm_power`, then the
    /// clamp and the `w_old` snapshot.
    pub(crate) fn update(&mut self, norm_power: f64, ack: &AckInfo<'_>) {
        let gamma = self.gamma;
        let new = gamma * (self.cwnd_old / norm_power + self.beta) + (1.0 - gamma) * self.cwnd;
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
        self.pacing.of(self.cwnd)
    }
}

/// A flow's [`rate_from_cwnd`], remembered for the window it was last
/// asked about. A sender asks once per packet it sends. The laws rewrite
/// the window on every ACK, but where queues stay near empty it mostly
/// sits at its clamp (the host BDP), so most calls repeat the last call's
/// bits: same bits in, same rate out.
#[derive(Clone, Debug)]
pub struct PacingRate {
    base_rtt: Tick,
    host_bw: Bandwidth,
    /// The last window's bits and its rate.
    last: Cell<(u64, Bandwidth)>,
}

impl PacingRate {
    /// The pacing rate of a flow with `ctx`'s base RTT and line rate.
    pub fn new(ctx: &CcContext) -> Self {
        let (base_rtt, host_bw) = (ctx.base_rtt, ctx.host_bw);
        let init = ctx.host_bdp_bytes();
        let last = Cell::new((init.to_bits(), rate_from_cwnd(init, base_rtt, host_bw)));
        PacingRate {
            base_rtt,
            host_bw,
            last,
        }
    }

    /// `rate_from_cwnd(cwnd, τ, HostBw)`, computed only when `cwnd`'s
    /// bits differ from the last call's.
    #[inline]
    pub fn of(&self, cwnd: f64) -> Bandwidth {
        let (bits, rate) = self.last.get();
        if bits == cwnd.to_bits() {
            return rate;
        }
        let rate = rate_from_cwnd(cwnd, self.base_rtt, self.host_bw);
        self.last.set((cwnd.to_bits(), rate));
        rate
    }
}
