//! Closed-loop behaviour of every baseline over the real simulator: each
//! algorithm must complete flows on a shared bottleneck, and exhibit its
//! defining queue signature (the property the PowerTCP paper's taxonomy
//! hangs on).

use cc_baselines::{hpcc::ETA, Dcqcn, Dctcp, Hpcc, NewReno, Swift, Timely};
use dcn_sim::{
    build_star, queue_tracer, series, EcnConfig, Endpoint, FlowId, NodeId, PfcConfig, PortId,
    Simulator, SwitchConfig,
};
use dcn_transport::{FlowSpec, MetricsHub, TransportConfig, TransportHost};
use powertcp_core::{Bandwidth, CongestionControl, Tick};

type MkCc = Box<dyn Fn(TransportConfig, Bandwidth) -> Box<dyn CongestionControl>>;

/// 6 senders × 1 MB to one receiver; returns (completed, total, peak queue,
/// steady queue mean, drops).
fn run(make: MkCc, ecn: bool, pfc: bool) -> (usize, usize, f64, f64, u64) {
    let metrics = MetricsHub::new_shared();
    let base_rtt = Tick::from_micros(8);
    let tcfg = TransportConfig {
        base_rtt,
        rto: Tick::from_micros(200),
        expected_flows: 8,
        ..TransportConfig::default()
    };
    let host_bw = Bandwidth::gbps(25);
    let m2 = metrics.clone();
    let make = std::rc::Rc::new(make);
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mc = make.clone();
        let mut h = TransportHost::new(tcfg, m2.clone(), Box::new(move |_f, nic| mc(tcfg, nic)));
        if idx >= 1 {
            h.add_flow(FlowSpec {
                id: FlowId(idx as u64),
                src: id,
                dst: NodeId(1),
                size_bytes: 1_000_000,
                start: Tick::from_micros(idx as u64 * 20),
            });
        }
        Box::new(h)
    };
    let sw_cfg = SwitchConfig {
        ecn: ecn.then_some(EcnConfig {
            kmin_bytes: 25_000,
            kmax_bytes: 100_000,
            pmax: 0.2,
        }),
        pfc: pfc.then_some(PfcConfig {
            xoff_bytes: 100_000,
            xon_bytes: 50_000,
        }),
        ..SwitchConfig::default()
    };
    let star = build_star(7, host_bw, Tick::from_micros(1), sw_cfg, &mut mk);
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    let qs = series();
    sim.add_tracer(
        Tick::from_micros(10),
        queue_tracer(sw, PortId(0), qs.clone()),
    );
    sim.run_until(Tick::from_millis(10));
    sim.audit().expect("conservation audit");
    let q = qs.borrow();
    let peak = q.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    // Steady window: [0.5ms, 1.8ms] — all six flows active (6 MB total
    // lasts ~1.9 ms at 25 Gbps).
    let win: Vec<f64> = q
        .iter()
        .filter(|(t, _)| *t >= Tick::from_micros(500) && *t < Tick::from_micros(1_800))
        .map(|&(_, v)| v)
        .collect();
    let steady = win.iter().sum::<f64>() / win.len().max(1) as f64;
    let (done, total) = metrics.borrow().completion_ratio();
    (done, total, peak, steady, sim.net.switch(sw).total_drops())
}

#[test]
fn hpcc_completes_with_near_zero_steady_queue() {
    let (done, total, _, steady, _) = run(
        Box::new(|t, nic| Box::new(Hpcc::new(ETA, t.cc_context(nic)))),
        false,
        true,
    );
    assert_eq!(done, total);
    assert!(
        steady < 30_000.0,
        "HPCC targets η=0.95: steady {steady:.0}B"
    );
}

#[test]
fn dcqcn_completes_and_oscillates_around_marking_threshold() {
    let (done, total, peak, steady, _) = run(
        Box::new(|t, nic| Box::new(Dcqcn::new(t.cc_context(nic)))),
        true,
        true,
    );
    assert_eq!(done, total);
    // ECN-driven: the queue returns to the marking band rather than zero.
    // (Within this short window DCQCN is still in its slow post-CNP
    // recovery, so the average sits below Kmin; the defining property is
    // that it never converges to an empty queue like the INT protocols.)
    assert!(
        steady > 2_000.0,
        "DCQCN holds a standing queue: steady {steady:.0}B"
    );
    assert!(peak > steady);
}

#[test]
fn timely_completes_but_does_not_control_queue() {
    let (done, total, _, t_steady, _) = run(
        Box::new(|t, nic| Box::new(Timely::new(t.cc_context(nic)))),
        false,
        true,
    );
    assert_eq!(done, total);
    let (_, _, _, h_steady, _) = run(
        Box::new(|t, nic| Box::new(Hpcc::new(ETA, t.cc_context(nic)))),
        false,
        true,
    );
    assert!(
        t_steady > 2.0 * h_steady,
        "gradient-based CC holds more queue than voltage-based: {t_steady:.0} vs {h_steady:.0}"
    );
}

#[test]
fn swift_completes_and_bounds_delay() {
    let (done, total, _, steady, _) = run(
        Box::new(|t, nic| Box::new(Swift::new(t.cc_context(nic)))),
        false,
        true,
    );
    assert_eq!(done, total);
    // Target delay 1.25×base: queue bounded near (target−base)·bw ≈ 6KB,
    // plus flow-scaling slack.
    assert!(steady < 80_000.0, "Swift delay target: steady {steady:.0}B");
}

#[test]
fn dctcp_completes_with_ecn() {
    let (done, total, _, _, drops) = run(
        Box::new(|t, nic| Box::new(Dctcp::new(t.cc_context(nic)))),
        true,
        true,
    );
    assert_eq!(done, total);
    assert_eq!(drops, 0, "ECN + PFC: no loss");
}

#[test]
fn newreno_completes_on_lossy_fabric() {
    // The loss-based anchor runs without ECN or PFC: drops are its signal.
    let (done, total, _, _, _) = run(
        Box::new(|t, nic| Box::new(NewReno::new(t.cc_context(nic)))),
        false,
        false,
    );
    assert_eq!(done, total);
}
