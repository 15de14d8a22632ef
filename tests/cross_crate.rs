//! Cross-crate integration tests: the paper's headline claims checked
//! end-to-end through the public APIs of the workspace crates.

use dcn_sim::{
    build_dumbbell, build_fat_tree, build_star, queue_tracer, series, DumbbellConfig, Endpoint,
    FatTreeConfig, FlowId, NodeId, PortId, Simulator, SwitchConfig,
};
use dcn_stats::{slowdown, Summary};
use dcn_transport::{FlowSpec, MetricsHub, SharedMetrics, TransportConfig, TransportHost};
use dcn_workloads::{poisson_flows, HostMap, PoissonConfig, SizeCdf};
use powertcp_core::{Bandwidth, CongestionControl, PowerTcp, PowerTcpConfig, ThetaPowerTcp, Tick};

/// A tiny shared harness: N senders → 1 receiver on a star, one algorithm.
fn star_incast_queue(
    make_cc: impl Fn(TransportConfig, Bandwidth) -> Box<dyn CongestionControl> + 'static,
    n_senders: usize,
    flow_bytes: u64,
) -> (f64, f64, SharedMetrics) {
    let metrics = MetricsHub::new_shared();
    let base_rtt = Tick::from_micros(8);
    let tcfg = TransportConfig {
        base_rtt,
        expected_flows: 8,
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let make_cc = std::rc::Rc::new(make_cc);
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mc = make_cc.clone();
        let mut host = TransportHost::new(tcfg, m2.clone(), Box::new(move |_f, nic| mc(tcfg, nic)));
        if idx >= 1 {
            host.add_flow(FlowSpec {
                id: FlowId(idx as u64),
                src: id,
                dst: NodeId(1),
                size_bytes: flow_bytes,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    let star = build_star(
        n_senders + 1,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    let qs = series();
    sim.add_tracer(
        Tick::from_micros(10),
        queue_tracer(sw, PortId(0), qs.clone()),
    );
    sim.run_until(Tick::from_millis(8));
    let peak = qs.borrow().iter().map(|&(_, v)| v).fold(0.0, f64::max);
    // Steady-state window: [2ms, 3.5ms] — past the start-up transient,
    // before the flows drain (8 × 1.5 MB at 25 Gbps lasts ~3.8 ms).
    let q = qs.borrow();
    let win: Vec<f64> = q
        .iter()
        .filter(|(t, _)| *t >= Tick::from_millis(2) && *t < Tick::from_micros(3_500))
        .map(|&(_, v)| v)
        .collect();
    let steady_mean = win.iter().sum::<f64>() / win.len().max(1) as f64;
    (peak, steady_mean, metrics)
}

#[test]
fn powertcp_beats_timely_on_steady_state_queue() {
    // §2's thesis end-to-end: power-based CC controls the absolute queue;
    // gradient-based CC does not.
    let (_, p_steady, pm) = star_incast_queue(
        |tcfg, nic| {
            Box::new(PowerTcp::new(
                PowerTcpConfig::default(),
                tcfg.cc_context(nic),
            ))
        },
        8,
        1_500_000,
    );
    let (_, t_steady, tm) = star_incast_queue(
        |tcfg, nic| {
            Box::new(cc_baselines::Timely::new(
                cc_baselines::TimelyConfig::default(),
                tcfg.cc_context(nic),
            ))
        },
        8,
        1_500_000,
    );
    assert_eq!(pm.borrow().completion_ratio().0, 8);
    assert_eq!(tm.borrow().completion_ratio().0, 8);
    assert!(
        p_steady < t_steady * 0.8,
        "PowerTCP steady queue {p_steady:.0}B must undercut TIMELY {t_steady:.0}B"
    );
}

#[test]
fn theta_powertcp_needs_no_switch_support() {
    // θ-PowerTCP must work with INT disabled at every switch.
    let metrics = MetricsHub::new_shared();
    let base_rtt = Tick::from_micros(8);
    let tcfg = TransportConfig {
        base_rtt,
        expected_flows: 4,
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut host = TransportHost::new(
            tcfg,
            m2.clone(),
            Box::new(move |_f, nic| -> Box<dyn CongestionControl> {
                Box::new(ThetaPowerTcp::new(
                    PowerTcpConfig::default(),
                    tcfg.cc_context(nic),
                ))
            }),
        );
        if idx >= 1 {
            host.add_flow(FlowSpec {
                id: FlowId(idx as u64),
                src: id,
                dst: NodeId(1),
                size_bytes: 400_000,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    let star = build_star(
        5,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig {
            int_enabled: false, // legacy switches
            ..SwitchConfig::default()
        },
        &mut mk,
    );
    let mut sim = Simulator::new(star.net);
    sim.run_until(Tick::from_millis(6));
    assert_eq!(metrics.borrow().completion_ratio(), (4, 4));
}

#[test]
fn powertcp_requires_int_and_holds_without_it() {
    // PowerTCP with INT disabled receives no power signal: the window
    // stays at the (line-rate) initial value — documented behaviour, and
    // flows still complete through pacing.
    let metrics = MetricsHub::new_shared();
    let base_rtt = Tick::from_micros(8);
    let tcfg = TransportConfig {
        base_rtt,
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut host = TransportHost::new(
            tcfg,
            m2.clone(),
            Box::new(move |_f, nic| -> Box<dyn CongestionControl> {
                Box::new(PowerTcp::new(
                    PowerTcpConfig::default(),
                    tcfg.cc_context(nic),
                ))
            }),
        );
        if idx == 1 {
            host.add_flow(FlowSpec {
                id: FlowId(1),
                src: id,
                dst: NodeId(1),
                size_bytes: 300_000,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    let star = build_star(
        3,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig {
            int_enabled: false,
            ..SwitchConfig::default()
        },
        &mut mk,
    );
    let mut sim = Simulator::new(star.net);
    sim.run_until(Tick::from_millis(5));
    assert_eq!(metrics.borrow().completion_ratio(), (1, 1));
}

#[test]
fn fluid_and_packet_models_agree_on_equilibrium() {
    // The fluid crate predicts w_e = bτ + β̂, q_e = β̂ for the aggregate;
    // the packet simulation must land near it. One long PowerTCP flow on
    // a dumbbell: β̂ = HostBw·τ/N with N = expected_flows.
    let metrics = MetricsHub::new_shared();
    let base_rtt = Tick::from_micros(12);
    let tcfg = TransportConfig {
        base_rtt,
        expected_flows: 2,
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut host = TransportHost::new(
            tcfg,
            m2.clone(),
            Box::new(move |_f, nic| -> Box<dyn CongestionControl> {
                Box::new(PowerTcp::new(
                    PowerTcpConfig::default(),
                    tcfg.cc_context(nic),
                ))
            }),
        );
        if idx == 0 {
            host.add_flow(FlowSpec {
                id: FlowId(1),
                src: NodeId(2),
                dst: NodeId(4),
                size_bytes: 40_000_000,
                start: Tick::ZERO,
            });
        }
        Box::new(host)
    };
    // Bottleneck at half the host rate: the queue must form at the
    // switch (with bottleneck == line rate it would sit in the sender's
    // NIC instead and the switch queue would rightly be zero).
    let d = build_dumbbell(
        DumbbellConfig {
            bottleneck_bw: Bandwidth::from_bps(12_500_000_000),
            ..DumbbellConfig::default()
        },
        &mut mk,
    );
    let (sw, port) = (d.left, d.bottleneck_port);
    let mut sim = Simulator::new(d.net);
    let qs = series();
    sim.add_tracer(Tick::from_micros(20), queue_tracer(sw, port, qs.clone()));
    sim.run_until(Tick::from_millis(8));
    // Steady state: sample the second half.
    let q = qs.borrow();
    let half = q.len() / 2;
    let mean_q = q[half..].iter().map(|&(_, v)| v).sum::<f64>() / (q.len() - half) as f64;
    // β̂ = one flow × HostBw·τ/2 = 25G·12us/8/2 = 18750 B.
    let beta_hat = Bandwidth::gbps(25).bdp_bytes(base_rtt) / 2.0;
    assert!(
        (mean_q - beta_hat).abs() < beta_hat * 0.6 + 3_000.0,
        "steady queue {mean_q:.0}B should approximate β̂ = {beta_hat:.0}B"
    );
}

#[test]
fn workload_generator_drives_fat_tree_experiment() {
    // End-to-end: workloads → fat-tree → transport → stats.
    let cfg = FatTreeConfig::small();
    let hosts = (0..cfg.num_hosts())
        .map(|i| cfg.host_node_id(i))
        .collect::<Vec<_>>();
    let map = HostMap {
        hosts: hosts.clone(),
        rack_of: (0..cfg.num_hosts())
            .map(|i| i / cfg.hosts_per_tor)
            .collect(),
    };
    let flows = poisson_flows(
        &PoissonConfig {
            load: 0.3,
            fabric_uplink_capacity: Bandwidth::gbps(100),
            sizes: SizeCdf::websearch(),
            horizon: Tick::from_millis(3),
            inter_rack_only: true,
            seed: 5,
            first_flow_id: 1,
        },
        &map,
    );
    assert!(!flows.is_empty());
    let mut per_host: Vec<Vec<FlowSpec>> = vec![Vec::new(); cfg.num_hosts()];
    for f in &flows {
        per_host[f.src.index() - cfg.num_switches()].push(*f);
    }
    let metrics = MetricsHub::new_shared();
    let base_rtt = cfg.max_base_rtt();
    let tcfg = TransportConfig {
        base_rtt,
        rto: base_rtt * 10,
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut h = TransportHost::new(
            tcfg,
            m2.clone(),
            Box::new(move |_f, nic| -> Box<dyn CongestionControl> {
                Box::new(PowerTcp::new(
                    PowerTcpConfig::default(),
                    tcfg.cc_context(nic),
                ))
            }),
        );
        for f in &per_host[idx] {
            h.add_flow(*f);
        }
        Box::new(h)
    };
    let ft = build_fat_tree(cfg, &mut mk);
    let mut sim = Simulator::new(ft.net);
    sim.run_until(Tick::from_millis(12));
    let m = metrics.borrow();
    let (done, total) = m.completion_ratio();
    assert!(
        done as f64 >= 0.9 * total as f64,
        "fat-tree websearch run must mostly complete: {done}/{total}"
    );
    // Slowdowns are computable and sane.
    let slowdowns: Vec<f64> = m
        .records()
        .filter_map(|r| {
            r.fct()
                .map(|f| slowdown(f, r.spec.size_bytes, base_rtt, Bandwidth::gbps(25)))
        })
        .collect();
    let s = Summary::of(&slowdowns).expect("has samples");
    assert!(s.p50 >= 1.0 && s.p50 < 20.0, "p50 slowdown {:.2}", s.p50);
}

#[test]
fn deterministic_across_full_public_api() {
    let run = || {
        let (peak, tail, m) = star_incast_queue(
            |tcfg, nic| {
                Box::new(PowerTcp::new(
                    PowerTcpConfig::default(),
                    tcfg.cc_context(nic),
                ))
            },
            6,
            700_000,
        );
        let mut fcts: Vec<(u64, Option<Tick>)> = m
            .borrow()
            .records()
            .map(|r| (r.spec.id.0, r.completed))
            .collect();
        fcts.sort();
        (peak.to_bits(), tail.to_bits(), fcts)
    };
    assert_eq!(run(), run());
}
