//! Full-stack closed-loop tests: PowerTCP / θ-PowerTCP flows running over
//! the simulated fabric through the windowed transport, plus HOMA message
//! exchange. These are the first end-to-end checks that the control law,
//! INT echo path, pacing, and go-back-N all compose.

use dcn_sim::{
    build_dumbbell, build_star, queue_tracer, series, DumbbellConfig, Endpoint, FlowId, NodeId,
    PortId, Simulator, SwitchConfig,
};
use dcn_transport::{
    FlowSpec, HomaHost, MetricsHub, SharedMetrics, TransportConfig, TransportHost,
};
use powertcp_core::{
    Bandwidth, CcContext, CongestionControl, PowerTcp, ThetaPowerTcp, Tick, GAMMA,
};

fn powertcp_factory(
    cfg: TransportConfig,
) -> impl FnMut(FlowId, Bandwidth) -> Box<dyn CongestionControl> {
    move |_id, nic_bw| {
        let ctx: CcContext = cfg.cc_context(nic_bw);
        Box::new(PowerTcp::new(GAMMA, ctx))
    }
}

fn theta_factory(
    cfg: TransportConfig,
) -> impl FnMut(FlowId, Bandwidth) -> Box<dyn CongestionControl> {
    move |_id, nic_bw| {
        let ctx: CcContext = cfg.cc_context(nic_bw);
        Box::new(ThetaPowerTcp::new(GAMMA, ctx))
    }
}

/// Two-sender dumbbell with one long flow each; returns (sim, metrics,
/// queue series, bottleneck switch).
fn dumbbell_long_flows(
    make_cc: impl Fn(TransportConfig) -> Box<dyn FnMut(FlowId, Bandwidth) -> Box<dyn CongestionControl>>,
    flow_bytes: u64,
) -> (Simulator, SharedMetrics, dcn_sim::Series) {
    let metrics = MetricsHub::new_shared();
    let dcfg = DumbbellConfig {
        pairs: 2,
        ..DumbbellConfig::default()
    };
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(12),
        expected_flows: 2,
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut host = TransportHost::new(tcfg, m2.clone(), make_cc(tcfg));
        if idx < 2 {
            // Senders 0,1 are hosts node ids 2,3; receivers 4,5.
            host.add_flow(FlowSpec {
                id: FlowId(idx as u64 + 1),
                src: NodeId(2 + idx as u32),
                dst: NodeId(4 + idx as u32),
                size_bytes: flow_bytes,
                start: Tick::from_micros(idx as u64 * 5),
            });
        }
        Box::new(host)
    };
    let d = build_dumbbell(dcfg, &mut mk);
    let sw = d.left;
    let bport = d.bottleneck_port;
    let mut sim = Simulator::new(d.net);
    let qs = series();
    sim.add_tracer(Tick::from_micros(5), queue_tracer(sw, bport, qs.clone()));
    (sim, metrics, qs)
}

#[test]
fn powertcp_two_flows_complete_and_share() {
    let (mut sim, metrics, qs) = dumbbell_long_flows(
        |cfg| Box::new(powertcp_factory(cfg)),
        2_000_000, // 2 MB each over a 25G bottleneck ≈ 1.28 ms total
    );
    sim.run_until(Tick::from_millis(10));
    sim.audit().expect("conservation audit");
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio(), (2, 2), "both flows must finish");
    // Aggregate goodput must be near the bottleneck line rate: 4 MB at
    // 25 Gbps is ~1.28 ms; allow 2x for startup/sharing losses.
    let last_done = m.records().map(|r| r.completed.unwrap()).max().unwrap();
    assert!(
        last_done < Tick::from_micros(2600),
        "finished too slowly: {last_done}"
    );
    // PowerTCP's equilibrium queue is tiny (≈ β̂); the time-average queue
    // must stay far below one BDP (37.5 KB at 25G × 12µs).
    let qv = qs.borrow();
    let avg = qv.iter().map(|&(_, v)| v).sum::<f64>() / qv.len().max(1) as f64;
    assert!(avg < 40_000.0, "avg bottleneck queue {avg:.0}B too high");
}

#[test]
fn theta_powertcp_two_flows_complete() {
    let (mut sim, metrics, _qs) =
        dumbbell_long_flows(|cfg| Box::new(theta_factory(cfg)), 1_000_000);
    sim.run_until(Tick::from_millis(10));
    sim.audit().expect("conservation audit");
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio(), (2, 2));
}

#[test]
fn powertcp_controls_incast_queue() {
    // 8:1 incast of long flows on a star; PowerTCP must keep the receiver
    // downlink queue bounded well below the no-CC case.
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(10),
        expected_flows: 1,
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut host = TransportHost::new(tcfg, m2.clone(), Box::new(powertcp_factory(tcfg)));
        if idx >= 1 {
            // Hosts 1..9 send to host 0 (node ids: switch=0, hosts=1..).
            host.add_flow(FlowSpec {
                id: FlowId(idx as u64),
                src: NodeId(1 + idx as u32),
                dst: NodeId(1),
                size_bytes: 500_000,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    let star = build_star(
        9,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    let qs = series();
    sim.add_tracer(
        Tick::from_micros(5),
        queue_tracer(sw, PortId(0), qs.clone()),
    );
    sim.run_until(Tick::from_millis(5));
    sim.audit().expect("conservation audit");
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio(), (8, 8), "all incast flows finish");
    // After the first-RTT line-rate burst (8 × BDP ≈ 250 KB), the
    // steady-state queue must collapse to near zero.
    let qv = qs.borrow();
    let tail_avg: f64 = {
        let n = qv.len();
        let tail = &qv[n / 2..];
        tail.iter().map(|&(_, v)| v).sum::<f64>() / tail.len() as f64
    };
    assert!(
        tail_avg < 30_000.0,
        "steady-state incast queue {tail_avg:.0}B too high"
    );
    // No drops: the 7MB default buffer absorbs the initial burst.
    assert_eq!(sim.net.switch(sw).total_drops(), 0);
}

#[test]
fn short_flow_completes_in_couple_rtts() {
    // A 10 KB flow at line rate should finish in ~1 RTT + serialization.
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(12),
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut host = TransportHost::new(tcfg, m2.clone(), Box::new(powertcp_factory(tcfg)));
        if idx == 0 {
            host.add_flow(FlowSpec {
                id: FlowId(1),
                src: NodeId(2),
                dst: NodeId(4),
                size_bytes: 10_000,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    let d = build_dumbbell(DumbbellConfig::default(), &mut mk);
    let mut sim = Simulator::new(d.net);
    sim.run_until(Tick::from_millis(1));
    sim.audit().expect("conservation audit");
    let m = metrics.borrow();
    let fct = m.get(FlowId(1)).unwrap().fct().expect("finished");
    // one-way prop 4us + 10 packets ser (3.2us at 25G) + slack.
    assert!(fct < Tick::from_micros(20), "FCT {fct} too slow");
}

#[test]
fn lossy_path_recovers_via_gbn() {
    // Tiny switch buffer forces drops during the first-RTT burst; the
    // flow must still complete through NACK/RTO recovery.
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(10),
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut host = TransportHost::new(tcfg, m2.clone(), Box::new(powertcp_factory(tcfg)));
        if idx >= 1 {
            host.add_flow(FlowSpec {
                id: FlowId(idx as u64),
                src: NodeId(1 + idx as u32),
                dst: NodeId(1),
                size_bytes: 200_000,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    let star = build_star(
        9,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig {
            buffer_bytes: 60_000, // tiny: the 8×BDP burst must overflow
            ..SwitchConfig::default()
        },
        &mut mk,
    );
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    sim.run_until(Tick::from_millis(20));
    sim.audit().expect("conservation audit");
    assert!(
        sim.net.switch(sw).total_drops() > 0,
        "test needs drops to exercise recovery"
    );
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio(), (8, 8), "GBN must recover all flows");
    let retx: u64 = m.records().map(|r| r.retransmitted_bytes).sum();
    assert!(retx > 0, "recovery implies retransmissions");
}

#[test]
fn homa_messages_complete() {
    // 4 hosts; host 1,2,3 each send one message to host 0.
    let metrics = MetricsHub::new_shared();
    let base_rtt = Tick::from_micros(10);
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let tcfg = TransportConfig {
            base_rtt,
            ..TransportConfig::default()
        };
        let mut host = HomaHost::new(tcfg, 1, Bandwidth::gbps(25), m2.clone());
        if idx >= 1 {
            host.add_flow(FlowSpec {
                id: FlowId(idx as u64),
                src: NodeId(1 + idx as u32),
                dst: NodeId(1),
                size_bytes: 300_000,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    let star = build_star(
        4,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let mut sim = Simulator::new(star.net);
    sim.run_until(Tick::from_millis(5));
    sim.audit().expect("conservation audit");
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio(), (3, 3), "all HOMA messages complete");
    // 3×300KB over 25G ≈ 288µs minimum; allow generous slack for grant
    // serialization (overcommit 1 serializes messages).
    let last = m.records().map(|r| r.completed.unwrap()).max().unwrap();
    assert!(last < Tick::from_millis(2), "HOMA too slow: {last}");
}

#[test]
fn homa_short_message_single_rtt() {
    // A single-MTU message needs no grants: unscheduled delivery ~ 0.5 RTT.
    let metrics = MetricsHub::new_shared();
    let base_rtt = Tick::from_micros(10);
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let tcfg = TransportConfig {
            base_rtt,
            ..TransportConfig::default()
        };
        let mut host = HomaHost::new(tcfg, 1, Bandwidth::gbps(25), m2.clone());
        if idx == 1 {
            host.add_flow(FlowSpec {
                id: FlowId(1),
                src: NodeId(2),
                dst: NodeId(1),
                size_bytes: 900,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    let star = build_star(
        2,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let mut sim = Simulator::new(star.net);
    sim.run_until(Tick::from_millis(1));
    sim.audit().expect("conservation audit");
    let fct = metrics.borrow().get(FlowId(1)).unwrap().fct().unwrap();
    assert!(fct < Tick::from_micros(5), "unscheduled FCT {fct}");
}

#[test]
fn deterministic_replay_full_stack() {
    let run = || {
        let (mut sim, metrics, qs) =
            dumbbell_long_flows(|cfg| Box::new(powertcp_factory(cfg)), 500_000);
        sim.run_until(Tick::from_millis(5));
        sim.audit().expect("conservation audit");
        let m = metrics.borrow();
        let fcts: Vec<_> = {
            let mut v: Vec<_> = m.records().map(|r| (r.spec.id, r.completed)).collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        let qv = qs.borrow().clone();
        (fcts, qv)
    };
    assert_eq!(run(), run());
}
