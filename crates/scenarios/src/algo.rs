//! Algorithm registry: one place mapping the paper's protocol names to
//! constructors, switch requirements (INT / ECN), and transport choices.

use crate::spec::ParamSpec;
use cc_baselines::{Dcqcn, Hpcc, ReTcp, Timely};
use dcn_sim::{EcnConfig, Endpoint, PfcConfig, SwitchConfig};
use dcn_transport::{CcFactory, FlowSpec, HomaHost, SharedMetrics, TransportConfig, TransportHost};
use powertcp_core::{Bandwidth, CongestionControl, PowerTcp, ThetaPowerTcp, GAMMA};

/// The protocols under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// PowerTCP with INT (the paper's primary contribution).
    PowerTcp,
    /// θ-PowerTCP (delay-based standalone variant).
    ThetaPowerTcp,
    /// HPCC (INT baseline).
    Hpcc,
    /// DCQCN (ECN baseline).
    Dcqcn,
    /// TIMELY (RTT-gradient baseline).
    Timely,
    /// HOMA receiver-driven transport with an overcommitment level.
    Homa(usize),
    /// reTCP (RDCN case study only).
    ReTcp,
}

impl Algo {
    /// Every variant (HOMA at overcommitment 1): the registry that
    /// [`Algo::parse`] looks names up in and its error message lists.
    pub fn all() -> [Algo; 7] {
        [
            Algo::PowerTcp,
            Algo::ThetaPowerTcp,
            Algo::Hpcc,
            Algo::Dcqcn,
            Algo::Timely,
            Algo::Homa(1),
            Algo::ReTcp,
        ]
    }

    /// Report name (matches the paper's legends).
    pub fn name(self) -> String {
        match self {
            Algo::PowerTcp => "PowerTCP-INT".into(),
            Algo::ThetaPowerTcp => "PowerTCP-Delay".into(),
            Algo::Hpcc => "HPCC".into(),
            Algo::Dcqcn => "DCQCN".into(),
            Algo::Timely => "TIMELY".into(),
            Algo::Homa(oc) => format!("HOMA(oc={oc})"),
            Algo::ReTcp => "reTCP".into(),
        }
    }

    /// The stable identifier used in scenario specs (TOML `sweep.algos`).
    /// Round-trips through [`Algo::parse`].
    pub fn key(self) -> String {
        match self {
            Algo::PowerTcp => "powertcp".into(),
            Algo::ThetaPowerTcp => "theta-powertcp".into(),
            Algo::Hpcc => "hpcc".into(),
            Algo::Dcqcn => "dcqcn".into(),
            Algo::Timely => "timely".into(),
            Algo::Homa(oc) => format!("homa:{oc}"),
            Algo::ReTcp => "retcp".into(),
        }
    }

    /// Parse a spec identifier: the [`Algo::key`] of an [`Algo::all`]
    /// entry, or `homa:K` at any overcommitment `K >= 1`.
    pub fn parse(s: &str) -> Result<Algo, String> {
        let s = s.trim();
        if let Some(oc) = s.strip_prefix("homa:") {
            let oc: usize = oc
                .parse()
                .map_err(|_| format!("bad HOMA overcommitment in {s:?}"))?;
            if oc == 0 {
                return Err("HOMA overcommitment must be >= 1".into());
            }
            return Ok(Algo::Homa(oc));
        }
        let all = Algo::all();
        all.into_iter().find(|a| a.key() == s).ok_or_else(|| {
            let key = |a: &Algo| {
                if a.is_homa() {
                    "homa:K".into()
                } else {
                    a.key()
                }
            };
            let keys: Vec<String> = all.iter().map(key).collect();
            format!(
                "unknown algorithm {s:?} (expected one of: {})",
                keys.join(", ")
            )
        })
    }

    /// Whether this algorithm runs on the HOMA transport (everything else
    /// uses the windowed sender transport).
    pub fn is_homa(self) -> bool {
        matches!(self, Algo::Homa(_))
    }

    /// Does it need switches to append INT?
    pub fn needs_int(self) -> bool {
        matches!(self, Algo::PowerTcp | Algo::Hpcc | Algo::ReTcp)
    }

    /// Does it need ECN marking at switches?
    pub fn needs_ecn(self) -> bool {
        matches!(self, Algo::Dcqcn)
    }

    /// The switch config this algorithm runs on: the default switch with
    /// its requirements applied.
    /// ECN thresholds follow the DCQCN recommendation scaled to the
    /// narrowest (host) link bandwidth. The windowed-transport algorithms
    /// run on a *lossless* fabric (PFC), matching their RDMA deployment
    /// context in the paper (DCQCN/TIMELY/HPCC/PowerTCP all assume it);
    /// HOMA runs lossy — the paper explicitly attributes part of HOMA's
    /// behaviour to limited, DT-shared buffers.
    pub fn switch_config(self, host_bw: Bandwidth) -> SwitchConfig {
        let mut cfg = SwitchConfig {
            int_enabled: self.needs_int(),
            ..SwitchConfig::default()
        };
        if !self.is_homa() {
            cfg.pfc = Some(PfcConfig {
                xoff_bytes: 100_000,
                xon_bytes: 50_000,
            });
        }
        if self.needs_ecn() {
            // DCQCN: Kmin/Kmax/Pmax per [HPCC §5 config], scaled by bw.
            let gbps = host_bw.as_gbps_f64();
            cfg.ecn = Some(EcnConfig {
                kmin_bytes: (1_000.0 * gbps) as u64,
                kmax_bytes: (4_000.0 * gbps) as u64,
                pmax: 0.2,
            });
        }
        cfg
    }

    /// Build the per-flow CC factory for the windowed transport. Panics
    /// for HOMA (which is a transport, not a CC law).
    pub fn cc_factory(self, tcfg: TransportConfig) -> CcFactory {
        self.cc_factory_tuned(tcfg, ParamSpec::default())
    }

    /// [`Algo::cc_factory`] with algorithm-parameter overrides applied:
    /// `gamma` reconfigures PowerTCP / θ-PowerTCP's EWMA gain. A law it
    /// does not apply to ignores it, so one params grid can sweep a mixed
    /// lineup.
    pub fn cc_factory_tuned(self, tcfg: TransportConfig, param: ParamSpec) -> CcFactory {
        assert!(!self.is_homa(), "HOMA runs on its own transport");
        Box::new(move |_flow, nic_bw| -> Box<dyn CongestionControl> {
            let ctx = tcfg.cc_context(nic_bw);
            let gamma = param.gamma.unwrap_or(GAMMA);
            match self {
                Algo::PowerTcp => Box::new(PowerTcp::new(gamma, ctx)),
                Algo::ThetaPowerTcp => Box::new(ThetaPowerTcp::new(gamma, ctx)),
                Algo::Hpcc => Box::new(Hpcc::new(ctx)),
                Algo::Dcqcn => Box::new(Dcqcn::new(ctx)),
                Algo::Timely => Box::new(Timely::new(ctx)),
                Algo::ReTcp => Box::new(ReTcp::new(ctx)),
                Algo::Homa(_) => unreachable!(),
            }
        })
    }

    /// Build the host endpoint that sends `flows` under this algorithm:
    /// the HOMA transport at its overcommitment level for `Algo::Homa`,
    /// the windowed transport under [`Algo::cc_factory_tuned`] otherwise.
    /// Every simulated host of a sweep point or a trace entry is one of
    /// these.
    pub fn endpoint(
        self,
        tcfg: TransportConfig,
        param: ParamSpec,
        host_bw: Bandwidth,
        metrics: &SharedMetrics,
        flows: &[FlowSpec],
    ) -> Box<dyn Endpoint> {
        if let Algo::Homa(oc) = self {
            let mut h = HomaHost::new(tcfg, oc, host_bw, metrics.clone());
            flows.iter().for_each(|f| h.add_flow(*f));
            Box::new(h)
        } else {
            let factory = self.cc_factory_tuned(tcfg, param);
            let mut h = TransportHost::new(tcfg, metrics.clone(), factory);
            flows.iter().for_each(|f| h.add_flow(*f));
            Box::new(h)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powertcp_core::Tick;

    #[test]
    fn switch_requirements() {
        assert!(Algo::PowerTcp.needs_int());
        assert!(!Algo::PowerTcp.needs_ecn());
        assert!(Algo::Dcqcn.needs_ecn());
        assert!(!Algo::Timely.needs_int());
        let cfg = Algo::Dcqcn.switch_config(Bandwidth::gbps(25));
        let ecn = cfg.ecn.expect("DCQCN needs ECN");
        assert_eq!(ecn.kmin_bytes, 25_000);
        assert_eq!(ecn.kmax_bytes, 100_000);
    }

    #[test]
    fn factories_build_for_all_non_homa() {
        let tcfg = TransportConfig {
            base_rtt: Tick::from_micros(20),
            ..TransportConfig::default()
        };
        for algo in Algo::all().into_iter().filter(|a| !a.is_homa()) {
            let mut f = algo.cc_factory(tcfg);
            let cc = f(dcn_sim::FlowId(1), Bandwidth::gbps(25));
            assert!(cc.cwnd() > 0.0, "{}", algo.name());
        }
    }

    #[test]
    #[should_panic]
    fn homa_has_no_cc_factory() {
        let _ = Algo::Homa(1).cc_factory(TransportConfig::default());
    }

    #[test]
    fn keys_round_trip_through_parse() {
        for algo in Algo::all() {
            assert_eq!(Algo::parse(&algo.key()), Ok(algo), "{}", algo.key());
        }
        // The labels of Figure 6's legend, which reports print.
        let labels = [
            (Algo::PowerTcp, "PowerTCP-INT"),
            (Algo::ThetaPowerTcp, "PowerTCP-Delay"),
            (Algo::Hpcc, "HPCC"),
            (Algo::Dcqcn, "DCQCN"),
            (Algo::Timely, "TIMELY"),
            (Algo::Homa(1), "HOMA(oc=1)"),
        ];
        for (algo, label) in labels {
            assert_eq!(algo.name(), label);
        }
        assert_eq!(Algo::parse("homa:4"), Ok(Algo::Homa(4)));
        assert!(Algo::parse("homa:0").is_err());
        // A name outside the registry is refused naming it, and the
        // error lists the registry.
        let err = Algo::parse("homa").unwrap_err();
        assert!(err.contains("\"homa\""), "{err}");
        assert!(err.contains("timely, homa:K, retcp)"), "{err}");
    }
}
