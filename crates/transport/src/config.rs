//! Transport configuration.

use powertcp_core::{CcContext, Tick};

/// Parameters of the RDMA-style windowed transport.
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// Data payload per packet (on-wire size; header overhead is ignored
    /// uniformly across algorithms).
    pub mtu: u32,
    /// Base RTT `τ` configured into the CC algorithms (the paper uses the
    /// topology's maximum RTT).
    pub base_rtt: Tick,
    /// Retransmission timeout: on expiry `SendSeq::rewind` goes back N.
    pub rto: Tick,
    /// Minimum spacing between two NACK-triggered go-back-N rewinds (one
    /// rewind per window, conventionally one base RTT).
    pub nack_guard: Tick,
    /// Expected flows per host NIC (the `N` in the paper's β rule).
    pub expected_flows: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        let base_rtt = Tick::from_micros(30);
        TransportConfig {
            mtu: 1000,
            base_rtt,
            rto: Tick::from_micros(300),
            nack_guard: base_rtt,
            expected_flows: 8,
        }
    }
}

impl TransportConfig {
    /// Derive the per-flow congestion-control context for a host with NIC
    /// bandwidth `host_bw`.
    pub fn cc_context(&self, host_bw: powertcp_core::Bandwidth) -> CcContext {
        CcContext {
            base_rtt: self.base_rtt,
            host_bw,
            mtu: self.mtu,
            expected_flows: self.expected_flows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powertcp_core::Bandwidth;

    #[test]
    fn context_derivation() {
        let cfg = TransportConfig::default();
        let ctx = cfg.cc_context(Bandwidth::gbps(25));
        assert_eq!(ctx.base_rtt, cfg.base_rtt);
        assert_eq!(ctx.mtu, 1000);
        assert_eq!(ctx.expected_flows, 8);
    }
}
