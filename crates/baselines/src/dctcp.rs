//! DCTCP (Alizadeh et al., SIGCOMM 2010): ECN-fraction window control —
//! the archetypal loss/ECN ("voltage") baseline in the paper's Figure 1
//! classification.
//!
//! The sender maintains `α`, an EWMA of the fraction of ECN-marked bytes
//! per window, and once per RTT applies `cwnd ← cwnd·(1 − α/2)` if any
//! marks were seen, else additive increase. DCTCP requires a standing
//! queue around the marking threshold K — the structural latency cost the
//! paper's §2.2 calls out ("flows oscillate around the marking threshold
//! K > b·τ/7").
//!
//! Constants (no spec sets them): `g = 1/16` (the DCTCP paper), additive
//! increase of one MTU per RTT, and a 1000-byte window floor. The window
//! starts at, and is capped by, one host BDP.

use powertcp_core::{
    clamp_cwnd, rate_from_cwnd, AckInfo, Bandwidth, CcContext, CongestionControl, LossKind, Tick,
};

/// EWMA gain `g` for the marked fraction (paper: 1/16).
const G: f64 = 1.0 / 16.0;
/// Additive increase per RTT in MTUs.
const AI_MTUS: f64 = 1.0;
/// Minimum window in bytes.
const MIN_CWND_BYTES: f64 = 1000.0;

/// The DCTCP sender.
#[derive(Clone, Debug)]
pub struct Dctcp {
    ctx: CcContext,
    cwnd: f64,
    alpha: f64,
    marked_bytes: u64,
    total_bytes: u64,
    window_end_seq: u64,
    max_cwnd: f64,
}

impl Dctcp {
    /// Create a DCTCP instance for one flow. Starts at the host BDP for
    /// parity with the other algorithms (the paper's setup lets every
    /// protocol transmit at line rate in the first RTT).
    pub fn new(ctx: CcContext) -> Self {
        let init = ctx.host_bdp_bytes();
        Dctcp {
            ctx,
            cwnd: init,
            alpha: 0.0,
            marked_bytes: 0,
            total_bytes: 0,
            window_end_seq: 0,
            max_cwnd: init,
        }
    }

    /// Current ECN fraction estimate α (diagnostics).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CongestionControl for Dctcp {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        self.total_bytes += ack.newly_acked;
        if ack.ecn_marked {
            self.marked_bytes += ack.newly_acked;
        }
        // Once per window of data: fold the fraction into α and adjust.
        // The very first gate crossing only anchors the window boundary
        // (a 1-packet "window" would make α needlessly noisy).
        if self.window_end_seq == 0 {
            self.window_end_seq = ack.snd_nxt.max(1);
            return;
        }
        if ack.ack_seq >= self.window_end_seq {
            self.window_end_seq = ack.snd_nxt;
            if self.total_bytes > 0 {
                let f = self.marked_bytes as f64 / self.total_bytes as f64;
                self.alpha = (1.0 - G) * self.alpha + G * f;
                if self.marked_bytes > 0 {
                    self.cwnd *= 1.0 - self.alpha / 2.0;
                } else {
                    self.cwnd += AI_MTUS * self.ctx.mtu as f64;
                }
                self.cwnd = clamp_cwnd(self.cwnd, MIN_CWND_BYTES, self.max_cwnd);
            }
            self.marked_bytes = 0;
            self.total_bytes = 0;
        }
    }

    fn on_loss(&mut self, _now: Tick, kind: LossKind) {
        let factor = match kind {
            LossKind::Reorder => 0.5,
            LossKind::Timeout => 0.25,
        };
        self.cwnd = clamp_cwnd(self.cwnd * factor, MIN_CWND_BYTES, self.max_cwnd);
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn pacing_rate(&self) -> Bandwidth {
        rate_from_cwnd(self.cwnd, self.ctx.base_rtt, self.ctx.host_bw)
    }

    fn name(&self) -> &'static str {
        "dctcp"
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

    fn ack(seq: u64, marked: bool) -> AckInfo<'static> {
        AckInfo {
            now: Tick::from_micros(100),
            ack_seq: seq,
            newly_acked: 1000,
            snd_nxt: seq + 10_000,
            rtt: Tick::from_micros(22),
            int: None,
            ecn_marked: marked,
        }
    }

    #[test]
    fn unmarked_windows_grow_additively() {
        let mut d = Dctcp::new(ctx());
        d.cwnd = 10_000.0;
        let w0 = d.cwnd();
        // Each ack crosses the window gate (snd_nxt = seq+10k); the first
        // crossing only anchors the window boundary.
        let mut seq = 0;
        for _ in 0..5 {
            seq += 10_000;
            d.on_ack(&ack(seq, false));
        }
        assert!((d.cwnd() - (w0 + 4.0 * 1000.0)).abs() < 1e-6);
    }

    #[test]
    fn fully_marked_windows_converge_to_half() {
        let mut d = Dctcp::new(ctx());
        // All bytes marked for many windows: α -> 1, decrease -> /2 per RTT.
        let mut seq = 0;
        for _ in 0..200 {
            seq += 10_000;
            d.on_ack(&ack(seq, true));
        }
        assert!(d.alpha() > 0.9, "alpha={}", d.alpha());
        assert_eq!(d.cwnd(), 1000.0, "driven to min cwnd");
    }

    #[test]
    fn alpha_tracks_marking_fraction() {
        let mut d = Dctcp::new(ctx());
        // Alternate marked/unmarked windows: α converges near the marked
        // fraction of windows... (per-window F is 1 then 0; EWMA averages).
        let mut seq = 0;
        for i in 0..400 {
            seq += 10_000;
            d.on_ack(&ack(seq, i % 2 == 0));
        }
        assert!(
            d.alpha() > 0.3 && d.alpha() < 0.7,
            "alpha={} should hover near 0.5",
            d.alpha()
        );
    }

    #[test]
    fn partial_marks_give_gentle_decrease() {
        let mut d = Dctcp::new(ctx());
        // Window of 10 packets, 1 marked: F=0.1, alpha small, decrease tiny.
        for i in 0..10u64 {
            let mut a = ack(i * 1000, i == 0);
            a.snd_nxt = 10_000; // same window
            d.on_ack(&a);
        }
        // Cross the gate with the last ack.
        let w_before = d.cwnd();
        let mut a = ack(10_000, false);
        a.snd_nxt = 20_000;
        d.on_ack(&a);
        // α = g*F ≈ 0.0057 -> decrease ≈ 0.3%.
        assert!(d.cwnd() < w_before);
        assert!(d.cwnd() > w_before * 0.98);
    }

    #[test]
    fn loss_reactions() {
        let mut d = Dctcp::new(ctx());
        let w0 = d.cwnd();
        d.on_loss(Tick::from_micros(1), LossKind::Reorder);
        assert!((d.cwnd() - w0 * 0.5).abs() < 1e-9);
        d.on_loss(Tick::from_micros(2), LossKind::Timeout);
        assert!((d.cwnd() - w0 * 0.125).abs() < 1e-9);
    }
}
