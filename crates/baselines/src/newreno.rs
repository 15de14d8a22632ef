//! TCP NewReno: classic loss-based AIMD with slow start — the Figure-1
//! "loss/ECN-based" anchor of the paper's taxonomy, and the substrate
//! reTCP builds on in the RDCN case study.
//!
//! Constants (no spec sets them): an initial window of 10 MTUs (RFC 6928),
//! a 1000-byte window floor, and a cap of 4 host BDPs. Slow start, the
//! halving on a fast retransmit and the one-MTU restart after a timeout
//! follow RFC 5681 / RFC 6582.

use powertcp_core::{
    clamp_cwnd, rate_from_cwnd, AckInfo, Bandwidth, CcContext, CongestionControl, LossKind, Tick,
};

/// Initial window in MTUs (RFC 6928's IW10: DC deployments do not start
/// from 1).
const INITIAL_WINDOW_MTUS: f64 = 10.0;
/// Minimum window in bytes.
const MIN_CWND_BYTES: f64 = 1000.0;
/// Maximum window as a multiple of host BDP.
const MAX_CWND_FACTOR: f64 = 4.0;

/// The NewReno sender.
#[derive(Clone, Debug)]
pub struct NewReno {
    ctx: CcContext,
    cwnd: f64,
    ssthresh: f64,
    /// One halving per RTT guard.
    last_decrease: Tick,
    max_cwnd: f64,
}

impl NewReno {
    /// Create a NewReno instance for one flow.
    pub fn new(ctx: CcContext) -> Self {
        let max = ctx.host_bdp_bytes() * MAX_CWND_FACTOR;
        NewReno {
            ctx,
            cwnd: INITIAL_WINDOW_MTUS * ctx.mtu as f64,
            ssthresh: max,
            last_decrease: Tick::ZERO,
            max_cwnd: max,
        }
    }

    /// Scale the window by an external factor (reTCP's circuit-up/down
    /// explicit scaling uses this hook).
    pub(crate) fn scale_window(&mut self, factor: f64) {
        self.cwnd = clamp_cwnd(self.cwnd * factor, MIN_CWND_BYTES, self.max_cwnd);
        self.ssthresh = self.ssthresh.max(self.cwnd);
    }
}

impl CongestionControl for NewReno {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        let mtu = self.ctx.mtu as f64;
        if self.cwnd < self.ssthresh {
            // Slow start: +1 MTU per ACKed MTU.
            self.cwnd += ack.newly_acked as f64;
        } else {
            // Congestion avoidance: +1 MTU per window.
            self.cwnd += mtu * (ack.newly_acked as f64) / self.cwnd.max(mtu);
        }
        self.cwnd = clamp_cwnd(self.cwnd, MIN_CWND_BYTES, self.max_cwnd);
    }

    fn on_loss(&mut self, now: Tick, kind: LossKind) {
        match kind {
            LossKind::Reorder => {
                if now.saturating_sub(self.last_decrease) >= self.ctx.base_rtt {
                    self.last_decrease = now;
                    self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.ctx.mtu as f64);
                    self.cwnd = self.ssthresh;
                }
            }
            LossKind::Timeout => {
                self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.ctx.mtu as f64);
                self.cwnd = self.ctx.mtu as f64;
                self.last_decrease = now;
            }
        }
        self.cwnd = clamp_cwnd(self.cwnd, MIN_CWND_BYTES, self.max_cwnd);
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate(&self) -> Bandwidth {
        rate_from_cwnd(self.cwnd, self.ctx.base_rtt, self.ctx.host_bw)
    }

    fn name(&self) -> &'static str {
        "newreno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CcContext {
        CcContext {
            base_rtt: Tick::from_micros(20),
            host_bw: Bandwidth::gbps(25),
            mtu: 1000,
            expected_flows: 8,
        }
    }

    fn ack(bytes: u64) -> AckInfo<'static> {
        AckInfo {
            now: Tick::from_micros(100),
            ack_seq: 0,
            newly_acked: bytes,
            snd_nxt: 0,
            rtt: Tick::from_micros(22),
            int: None,
            ecn_marked: false,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = NewReno::new(ctx());
        let w0 = r.cwnd();
        assert!(r.cwnd < r.ssthresh, "slow start");
        // ACK a full window: slow start doubles.
        r.on_ack(&ack(w0 as u64));
        assert!((r.cwnd() - 2.0 * w0).abs() < 1.0);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut r = NewReno::new(ctx());
        r.ssthresh = 10_000.0;
        r.cwnd = 20_000.0;
        assert!(r.cwnd >= r.ssthresh, "congestion avoidance");
        r.on_ack(&ack(20_000));
        assert!((r.cwnd() - 21_000.0).abs() < 1.0, "cwnd={}", r.cwnd());
    }

    #[test]
    fn fast_retransmit_halves_once_per_rtt() {
        let mut r = NewReno::new(ctx());
        r.cwnd = 40_000.0;
        r.ssthresh = 10_000.0;
        r.on_loss(Tick::from_micros(100), LossKind::Reorder);
        assert_eq!(r.cwnd(), 20_000.0);
        r.on_loss(Tick::from_micros(101), LossKind::Reorder);
        assert_eq!(r.cwnd(), 20_000.0, "guarded within one RTT");
        r.on_loss(Tick::from_micros(130), LossKind::Reorder);
        assert_eq!(r.cwnd(), 10_000.0);
    }

    #[test]
    fn timeout_collapses_to_one_mtu() {
        let mut r = NewReno::new(ctx());
        r.cwnd = 40_000.0;
        r.on_loss(Tick::from_micros(100), LossKind::Timeout);
        assert_eq!(r.cwnd(), 1000.0);
        assert_eq!(r.ssthresh, 20_000.0);
    }

    #[test]
    fn scale_window_hook() {
        let mut r = NewReno::new(ctx());
        r.cwnd = 10_000.0;
        r.scale_window(4.0);
        assert_eq!(r.cwnd(), 40_000.0);
        r.scale_window(0.25);
        assert_eq!(r.cwnd(), 10_000.0);
    }
}
