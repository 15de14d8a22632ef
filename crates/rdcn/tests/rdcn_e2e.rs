//! End-to-end RDCN tests: real transports over the rotor-scheduled
//! circuit + packet hybrid fabric (the §5 case-study substrate).

use cc_baselines::{ReTcp, ReTcpConfig};
use dcn_sim::Simulator;
use dcn_transport::{CcFactory, MetricsHub, SharedMetrics, TransportConfig};
use powertcp_core::{CongestionControl, PowerTcp, PowerTcpConfig, Tick};
use rdcn::{build_rack_pair, Rdcn, RdcnConfig};

/// Build a small RDCN where every host of rack 0 sends a long flow to its
/// counterpart in rack 1.
fn rack_pair_setup(cfg: RdcnConfig, flow_bytes: u64, use_retcp: bool) -> (Rdcn, SharedMetrics) {
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: cfg.base_rtt(),
        rto: Tick::from_micros(2000),
        expected_flows: 1,
        ..TransportConfig::default()
    };
    let mut make_cc = || -> CcFactory {
        Box::new(move |_f, nic_bw| -> Box<dyn CongestionControl> {
            let ctx = tcfg.cc_context(nic_bw);
            if use_retcp {
                Box::new(ReTcp::new(ReTcpConfig::default(), ctx))
            } else {
                Box::new(PowerTcp::new(PowerTcpConfig::default(), ctx))
            }
        })
    };
    let r = build_rack_pair(cfg, &metrics, tcfg, flow_bytes, &mut make_cc);
    (r, metrics)
}

#[test]
fn flows_complete_over_hybrid_fabric() {
    let cfg = RdcnConfig::small();
    // 2 hosts per rack, 500 KB each: needs both packet and circuit phases.
    let (r, metrics) = rack_pair_setup(cfg, 500_000, false);
    let mut sim = Simulator::new(r.net);
    sim.run_until(Tick::from_millis(8));
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio(), (2, 2), "flows must finish");
}

#[test]
fn circuit_carries_bulk_of_bytes_during_days() {
    let cfg = RdcnConfig::small();
    let (r, _metrics) = rack_pair_setup(cfg, 2_000_000, false);
    let tors = r.tors.clone();
    let hpt = r.cfg.hosts_per_tor;
    let mut sim = Simulator::new(r.net);
    sim.run_until(Tick::from_millis(6));
    // Inspect ToR 0 port counters.
    let dcn_sim::Node::Custom(c) = sim.net.node(tors[0]) else {
        panic!()
    };
    let circuit_tx = c.ports[hpt + 1].tx_bytes;
    let uplink_tx = c.ports[hpt].tx_bytes;
    assert!(
        circuit_tx > uplink_tx,
        "circuit (100G, day 0 immediately up) should carry more than the \
         25G uplink: circuit={circuit_tx} uplink={uplink_tx}"
    );
    assert!(circuit_tx > 0 && uplink_tx > 0, "both paths exercised");
}

#[test]
fn retcp_prebuffering_builds_then_blasts_voq() {
    let mut cfg = RdcnConfig::small();
    cfg.prebuffer = Tick::from_micros(150);
    let (r, metrics) = rack_pair_setup(cfg, 1_500_000, true);
    let gauge = r.voq_gauges[0].clone();
    let sinks = r.latency_sinks[0].clone();
    let schedule = r.cfg.schedule;
    let mut sim = Simulator::new(r.net);
    // Sample the VOQ gauge during the prebuffer window before the second
    // rack-1 day (week = 735us, so prebuffer window is [585, 735)us).
    let mut held_max = 0u64;
    let g2 = gauge.clone();
    let probe = std::rc::Rc::new(std::cell::RefCell::new(Vec::<(Tick, u64)>::new()));
    let p2 = probe.clone();
    sim.add_tracer(Tick::from_micros(5), move |_net, now| {
        let v = g2.borrow().get(1).copied().unwrap_or(0);
        p2.borrow_mut().push((now, v));
    });
    sim.run_until(Tick::from_millis(3));
    let week = schedule.week();
    let pre_lo = week - Tick::from_micros(150);
    for &(t, v) in probe.borrow().iter() {
        if t >= pre_lo && t < week {
            held_max = held_max.max(v);
        }
    }
    assert!(
        held_max > 50_000,
        "prebuffering must accumulate a VOQ before the day (got {held_max}B)"
    );
    // Latency samples include long waits (held packets) — the reTCP cost.
    let lat = sinks.borrow();
    let max_wait = lat.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max_wait > 100e-6,
        "prebuffered packets wait ~the prebuffer window (max {max_wait})"
    );
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio().0, 2, "flows still complete");
}

#[test]
fn powertcp_keeps_voq_short_without_losing_completion() {
    let cfg = RdcnConfig::small();
    let (r, metrics) = rack_pair_setup(cfg, 1_500_000, false);
    let sink = r.latency_sinks[0].clone();
    let mut sim = Simulator::new(r.net);
    sim.run_until(Tick::from_millis(6));
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio().0, 2);
    // Tail VOQ latency without prebuffering stays far below reTCP's.
    let mut lat: Vec<f64> = sink.borrow().clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if let Some(&max) = lat.last() {
        assert!(
            max < 300e-6,
            "PowerTCP VOQ tail wait should be bounded by schedule, got {max}"
        );
    }
}

#[test]
fn deterministic_rdcn_replay() {
    let run = || {
        let (r, metrics) = rack_pair_setup(RdcnConfig::small(), 800_000, false);
        let mut sim = Simulator::new(r.net);
        sim.run_until(Tick::from_millis(5));
        let m = metrics.borrow();
        let mut v: Vec<(u64, Option<Tick>)> =
            m.records().map(|r| (r.spec.id.0, r.completed)).collect();
        v.sort();
        v
    };
    assert_eq!(run(), run());
}
