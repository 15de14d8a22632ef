//! Algorithm registry: one place mapping the paper's protocol names to
//! constructors, switch requirements (INT / ECN), and transport choices.

use crate::spec::ParamSpec;
use cc_baselines::{
    Dcqcn, DcqcnConfig, Dctcp, DctcpConfig, Hpcc, HpccConfig, NewReno, NewRenoConfig, ReTcp,
    ReTcpConfig, Swift, SwiftConfig, Timely, TimelyConfig,
};
use dcn_sim::{EcnConfig, Endpoint, PfcConfig, SwitchConfig};
use dcn_transport::{
    CcFactory, FlowSpec, HomaConfig, HomaHost, SharedMetrics, TransportConfig, TransportHost,
};
use powertcp_core::{Bandwidth, CongestionControl, PowerTcp, PowerTcpConfig, ThetaPowerTcp};

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
    /// Swift (delay baseline; extension beyond the paper's Figure 6 set).
    Swift,
    /// DCTCP (ECN baseline; extension).
    Dctcp,
    /// TCP NewReno (loss-based anchor; extension).
    NewReno,
    /// HOMA receiver-driven transport with an overcommitment level.
    Homa(usize),
    /// reTCP (RDCN case study only).
    ReTcp,
}

impl Algo {
    /// The paper's Figure 4/6/7 comparison set.
    pub fn paper_set() -> Vec<Algo> {
        vec![
            Algo::PowerTcp,
            Algo::ThetaPowerTcp,
            Algo::Hpcc,
            Algo::Dcqcn,
            Algo::Timely,
            Algo::Homa(1),
        ]
    }

    /// Every variant (HOMA at overcommitment 1), for `xp list` and spec
    /// validation messages.
    pub fn all() -> Vec<Algo> {
        vec![
            Algo::PowerTcp,
            Algo::ThetaPowerTcp,
            Algo::Hpcc,
            Algo::Dcqcn,
            Algo::Timely,
            Algo::Swift,
            Algo::Dctcp,
            Algo::NewReno,
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
            Algo::Swift => "Swift".into(),
            Algo::Dctcp => "DCTCP".into(),
            Algo::NewReno => "NewReno".into(),
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
            Algo::Swift => "swift".into(),
            Algo::Dctcp => "dctcp".into(),
            Algo::NewReno => "newreno".into(),
            Algo::Homa(oc) => format!("homa:{oc}"),
            Algo::ReTcp => "retcp".into(),
        }
    }

    /// Parse a spec identifier: any [`Algo::key`] plus the aliases
    /// `theta` and bare `homa` (= `homa:1`).
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
        match s {
            "powertcp" => Ok(Algo::PowerTcp),
            "theta-powertcp" | "theta" => Ok(Algo::ThetaPowerTcp),
            "hpcc" => Ok(Algo::Hpcc),
            "dcqcn" => Ok(Algo::Dcqcn),
            "timely" => Ok(Algo::Timely),
            "swift" => Ok(Algo::Swift),
            "dctcp" => Ok(Algo::Dctcp),
            "newreno" => Ok(Algo::NewReno),
            "homa" => Ok(Algo::Homa(1)),
            "retcp" => Ok(Algo::ReTcp),
            other => Err(format!(
                "unknown algorithm {other:?} (expected one of: powertcp, \
                 theta-powertcp, hpcc, dcqcn, timely, swift, dctcp, newreno, \
                 homa[:N], retcp)"
            )),
        }
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
        matches!(self, Algo::Dcqcn | Algo::Dctcp)
    }

    /// Apply this algorithm's switch requirements to a base config.
    /// ECN thresholds follow the DCQCN recommendation scaled to the
    /// narrowest (host) link bandwidth. The windowed-transport algorithms
    /// run on a *lossless* fabric (PFC), matching their RDMA deployment
    /// context in the paper (DCQCN/TIMELY/HPCC/PowerTCP all assume it);
    /// HOMA runs lossy — the paper explicitly attributes part of HOMA's
    /// behaviour to limited, DT-shared buffers.
    pub fn switch_config(self, base: SwitchConfig, host_bw: Bandwidth) -> SwitchConfig {
        let mut cfg = base;
        cfg.int_enabled = self.needs_int();
        if !self.is_homa() {
            cfg.pfc = Some(PfcConfig {
                xoff_bytes: 100_000,
                xon_bytes: 50_000,
            });
        }
        if self.needs_ecn() {
            let gbps = host_bw.as_gbps_f64();
            cfg.ecn = Some(match self {
                // DCQCN: Kmin/Kmax/Pmax per [HPCC §5 config], scaled by bw.
                Algo::Dcqcn => EcnConfig {
                    kmin_bytes: (1_000.0 * gbps) as u64,
                    kmax_bytes: (4_000.0 * gbps) as u64,
                    pmax: 0.2,
                },
                // DCTCP: step marking at ~1.2 KB per Gbps.
                _ => EcnConfig::step((1_200.0 * gbps) as u64),
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
    /// `gamma` reconfigures PowerTCP / θ-PowerTCP's EWMA gain, `hpcc_eta`
    /// HPCC's target utilization. (`expected_flows` acts through `tcfg`,
    /// which the caller adjusts — it shapes β for every windowed law.)
    /// Overrides that do not apply to `self` are ignored, so one params
    /// grid can sweep a mixed lineup.
    pub fn cc_factory_tuned(self, tcfg: TransportConfig, param: ParamSpec) -> CcFactory {
        assert!(!self.is_homa(), "HOMA runs on its own transport");
        Box::new(move |_flow, nic_bw| -> Box<dyn CongestionControl> {
            let ctx = tcfg.cc_context(nic_bw);
            let ptcfg = || PowerTcpConfig {
                gamma: param.gamma.unwrap_or(PowerTcpConfig::default().gamma),
                ..PowerTcpConfig::default()
            };
            match self {
                Algo::PowerTcp => Box::new(PowerTcp::new(ptcfg(), ctx)),
                Algo::ThetaPowerTcp => Box::new(ThetaPowerTcp::new(ptcfg(), ctx)),
                Algo::Hpcc => Box::new(Hpcc::new(
                    HpccConfig {
                        eta: param.hpcc_eta.unwrap_or(HpccConfig::default().eta),
                        ..HpccConfig::default()
                    },
                    ctx,
                )),
                Algo::Dcqcn => Box::new(Dcqcn::new(DcqcnConfig::default(), ctx)),
                Algo::Timely => Box::new(Timely::new(TimelyConfig::default(), ctx)),
                Algo::Swift => Box::new(Swift::new(SwiftConfig::default(), ctx)),
                Algo::Dctcp => Box::new(Dctcp::new(DctcpConfig::default(), ctx)),
                Algo::NewReno => Box::new(NewReno::new(NewRenoConfig::default(), ctx)),
                Algo::ReTcp => Box::new(ReTcp::new(ReTcpConfig::default(), ctx)),
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
            let mut hcfg = HomaConfig::paper_defaults(host_bw, tcfg.base_rtt);
            hcfg.overcommit = oc;
            let mut h = HomaHost::new(hcfg, metrics.clone());
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
    fn paper_set_matches_figure6_legend() {
        let names: Vec<String> = Algo::paper_set().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "PowerTCP-INT",
                "PowerTCP-Delay",
                "HPCC",
                "DCQCN",
                "TIMELY",
                "HOMA(oc=1)"
            ]
        );
    }

    #[test]
    fn switch_requirements() {
        assert!(Algo::PowerTcp.needs_int());
        assert!(!Algo::PowerTcp.needs_ecn());
        assert!(Algo::Dcqcn.needs_ecn());
        assert!(!Algo::Timely.needs_int());
        let cfg = Algo::Dcqcn.switch_config(SwitchConfig::default(), Bandwidth::gbps(25));
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
        for algo in [
            Algo::PowerTcp,
            Algo::ThetaPowerTcp,
            Algo::Hpcc,
            Algo::Dcqcn,
            Algo::Timely,
            Algo::Swift,
            Algo::Dctcp,
            Algo::NewReno,
            Algo::ReTcp,
        ] {
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
        assert_eq!(Algo::parse("homa:4"), Ok(Algo::Homa(4)));
        assert_eq!(Algo::parse("theta"), Ok(Algo::ThetaPowerTcp));
        assert_eq!(Algo::parse("homa"), Ok(Algo::Homa(1)));
        assert!(Algo::parse("bbr").is_err());
        assert!(Algo::parse("homa:0").is_err());
    }
}
