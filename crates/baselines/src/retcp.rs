//! reTCP (Mukerjee et al., NSDI 2020): TCP adapted for reconfigurable
//! datacenters — the RDCN case-study baseline of §5.
//!
//! reTCP's endpoint-side mechanism is **explicit circuit-state-aware cwnd
//! scaling**: when a high-bandwidth circuit for the destination rack comes
//! up, the window is multiplied by a precomputed factor (the
//! circuit/packet bandwidth ratio) so the sender can fill the circuit
//! immediately; when the circuit goes down the factor is removed. The
//! complementary in-network mechanism — ToR prebuffering before circuit
//! activation — lives in the `rdcn` crate's VOQ ToR.
//!
//! The base congestion control is classic TCP: NewReno with its
//! constants, and no parameter of reTCP's own.
//!
//! The paper's §5 says it implements "both PowerTCP and HPCC in the
//! transport layer and limit[s] window updates to once per RTT for a fair
//! comparison with reTCP". Here PowerTCP updates per ACK in the RDCN runs,
//! as everywhere else: a once-per-RTT gate, forced on for every PowerTCP
//! flow, measures byte-identical fig8 and fig8-50g reports, so the law
//! has no such gate.

use crate::newreno::NewReno;
use powertcp_core::{AckInfo, Bandwidth, CcContext, CongestionControl, LossKind, NetSignal, Tick};

/// The reTCP sender.
#[derive(Clone, Debug)]
pub struct ReTcp {
    inner: NewReno,
    packet_bw: Bandwidth,
    /// Scale currently applied (so down-scaling undoes exactly what
    /// up-scaling did).
    applied_scale: Option<f64>,
}

impl ReTcp {
    /// Create a reTCP instance; `ctx.host_bw` is the packet-network rate
    /// the scaling factor divides by.
    pub fn new(ctx: CcContext) -> Self {
        ReTcp {
            inner: NewReno::new(ctx),
            packet_bw: ctx.host_bw,
            applied_scale: None,
        }
    }

    /// The scale factor used for a circuit of the given bandwidth: the
    /// circuit/packet bandwidth ratio, at least 1.
    pub fn scale_for(&self, circuit_bw: Bandwidth) -> f64 {
        (circuit_bw.bps() as f64 / self.packet_bw.bps().max(1) as f64).max(1.0)
    }
}

impl CongestionControl for ReTcp {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        self.inner.on_ack(ack);
    }

    fn on_loss(&mut self, now: Tick, kind: LossKind) {
        self.inner.on_loss(now, kind);
    }

    fn on_signal(&mut self, _now: Tick, signal: NetSignal) {
        let NetSignal::Circuit { up, bandwidth } = signal;
        if up {
            if self.applied_scale.is_none() {
                let s = self.scale_for(bandwidth);
                self.inner.scale_window(s);
                self.applied_scale = Some(s);
            }
        } else if let Some(s) = self.applied_scale.take() {
            self.inner.scale_window(1.0 / s);
        }
    }

    fn cwnd(&self) -> f64 {
        self.inner.cwnd()
    }

    fn pacing_rate(&self) -> Bandwidth {
        self.inner.pacing_rate()
    }

    fn name(&self) -> &'static str {
        "retcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CcContext {
        CcContext {
            base_rtt: Tick::from_micros(24),
            host_bw: Bandwidth::gbps(25),
            mtu: 1000,
            expected_flows: 1,
        }
    }

    #[test]
    fn circuit_up_scales_window_by_bw_ratio() {
        let mut r = ReTcp::new(ctx());
        let w0 = r.cwnd();
        r.on_signal(
            Tick::from_micros(10),
            NetSignal::Circuit {
                up: true,
                bandwidth: Bandwidth::gbps(100),
            },
        );
        assert!((r.cwnd() - w0 * 4.0).abs() < 1.0, "4x scale for 100/25");
        r.on_signal(
            Tick::from_micros(200),
            NetSignal::Circuit {
                up: false,
                bandwidth: Bandwidth::ZERO,
            },
        );
        assert!((r.cwnd() - w0).abs() < 1.0, "down-scale restores");
    }

    #[test]
    fn double_up_signal_applies_once() {
        let mut r = ReTcp::new(ctx());
        let w0 = r.cwnd();
        let sig = NetSignal::Circuit {
            up: true,
            bandwidth: Bandwidth::gbps(100),
        };
        r.on_signal(Tick::from_micros(10), sig);
        r.on_signal(Tick::from_micros(11), sig);
        assert!((r.cwnd() - w0 * 4.0).abs() < 1.0);
    }

    #[test]
    fn behaves_like_newreno_between_signals() {
        let mut r = ReTcp::new(ctx());
        let w0 = r.cwnd();
        r.on_ack(&AckInfo {
            now: Tick::from_micros(100),
            ack_seq: 0,
            newly_acked: w0 as u64,
            snd_nxt: 0,
            rtt: Tick::from_micros(25),
            int: None,
            ecn_marked: false,
        });
        assert!(r.cwnd() > w0, "slow start growth");
    }
}
