//! Failure-injection tests: the transport must degrade gracefully, not
//! wedge, under hostile conditions — unresponsive receivers, severe
//! buffer starvation, and asymmetric (ACK-path) congestion.

use dcn_sim::{
    build_star, Endpoint, EndpointCtx, FlowId, NodeId, Packet, PacketKind, Simulator, SwitchConfig,
};
use dcn_transport::{FlowSpec, MetricsHub, TransportConfig, TransportHost};
use powertcp_core::{Bandwidth, CongestionControl, PowerTcp, Tick, GAMMA};
use std::cell::RefCell;
use std::rc::Rc;

fn powertcp_host(tcfg: TransportConfig, metrics: dcn_transport::SharedMetrics) -> TransportHost {
    TransportHost::new(
        tcfg,
        metrics,
        Box::new(move |_f, nic| -> Box<dyn CongestionControl> {
            Box::new(PowerTcp::new(GAMMA, tcfg.cc_context(nic)))
        }),
    )
}

/// A receiver that silently discards everything (black hole).
struct BlackHole;
impl Endpoint for BlackHole {
    fn on_packet(&mut self, _pkt: Box<Packet>, _ctx: &mut EndpointCtx<'_>) {}
    fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
}

#[test]
fn black_hole_receiver_triggers_rtos_not_hangs() {
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(8),
        rto: Tick::from_micros(100),
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        if idx == 0 {
            Box::new(BlackHole)
        } else {
            let mut h = powertcp_host(tcfg, m2.clone());
            h.add_flow(FlowSpec {
                id: FlowId(1),
                src: id,
                dst: NodeId(1),
                size_bytes: 100_000,
                start: Tick::ZERO,
            });
            Box::new(h)
        }
    };
    let star = build_star(
        2,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let mut sim = Simulator::new(star.net);
    // Must terminate (no infinite event storm) within the horizon.
    sim.run_until(Tick::from_millis(5));
    sim.audit().expect("conservation audit");
    let m = metrics.borrow();
    let rec = m.get(FlowId(1)).unwrap();
    assert!(rec.completed.is_none(), "black hole: flow cannot finish");
    assert!(
        rec.timeouts >= 3,
        "RTO clock must keep firing: {}",
        rec.timeouts
    );
    // The sender keeps retrying at a bounded rate (window collapsed), not
    // blasting: retransmitted bytes stay well under line-rate × horizon.
    assert!(rec.retransmitted_bytes < 10_000_000);
}

/// A receiver that ACKs normally but *drops every third data packet*
/// before processing (models a corrupting last hop).
struct LossyReceiver {
    inner: TransportHost,
    count: Rc<RefCell<u64>>,
}
impl Endpoint for LossyReceiver {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        if matches!(pkt.kind, PacketKind::Data { .. }) {
            let mut c = self.count.borrow_mut();
            *c += 1;
            if (*c).is_multiple_of(3) {
                return; // dropped on the floor
            }
        }
        self.inner.on_packet(pkt, ctx);
    }
    fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
        self.inner.on_timer(key, ctx);
    }
}

#[test]
fn one_third_receiver_loss_still_completes() {
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(8),
        rto: Tick::from_micros(150),
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        if idx == 0 {
            Box::new(LossyReceiver {
                inner: powertcp_host(tcfg, m2.clone()),
                count: Rc::new(RefCell::new(0)),
            })
        } else {
            let mut h = powertcp_host(tcfg, m2.clone());
            h.add_flow(FlowSpec {
                id: FlowId(1),
                src: id,
                dst: NodeId(1),
                size_bytes: 60_000,
                start: Tick::ZERO,
            });
            Box::new(h)
        }
    };
    let star = build_star(
        2,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let mut sim = Simulator::new(star.net);
    sim.run_until(Tick::from_millis(50));
    sim.audit().expect("conservation audit");
    let m = metrics.borrow();
    let rec = m.get(FlowId(1)).unwrap();
    assert!(
        rec.completed.is_some(),
        "go-back-N must grind through 33% loss (timeouts={} retx={})",
        rec.timeouts,
        rec.retransmitted_bytes
    );
    assert!(rec.retransmitted_bytes > 0);
}

#[test]
fn starved_buffer_quarter_bdp_still_completes() {
    // Buffer smaller than one window: heavy drops from the first RTT.
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(8),
        rto: Tick::from_micros(200),
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut h = powertcp_host(tcfg, m2.clone());
        if idx >= 1 {
            h.add_flow(FlowSpec {
                id: FlowId(idx as u64),
                src: id,
                dst: NodeId(1),
                size_bytes: 150_000,
                start: Tick::ZERO,
            });
        }
        Box::new(h)
    };
    let star = build_star(
        5,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig {
            buffer_bytes: 6_000, // ~quarter of one 25KB window
            ..SwitchConfig::default()
        },
        &mut mk,
    );
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    sim.run_until(Tick::from_millis(60));
    sim.audit().expect("conservation audit");
    assert!(
        sim.net.switch(sw).total_drops() > 50,
        "starvation must drop"
    );
    let m = metrics.borrow();
    assert_eq!(m.completion_ratio(), (4, 4), "all flows must still finish");
}

#[test]
fn ack_path_congestion_does_not_deadlock() {
    // Bidirectional traffic: A→B data competes with B→A data whose ACKs
    // share the reverse path. Both directions must complete.
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(8),
        rto: Tick::from_micros(200),
        ..TransportConfig::default()
    };
    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut h = powertcp_host(tcfg, m2.clone());
        // Hosts 0 and 1 (node ids 1 and 2) flood each other.
        if idx == 0 {
            h.add_flow(FlowSpec {
                id: FlowId(1),
                src: id,
                dst: NodeId(2),
                size_bytes: 2_000_000,
                start: Tick::ZERO,
            });
        } else if idx == 1 {
            h.add_flow(FlowSpec {
                id: FlowId(2),
                src: id,
                dst: NodeId(1),
                size_bytes: 2_000_000,
                start: Tick::ZERO,
            });
        }
        Box::new(h)
    };
    let star = build_star(
        2,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let mut sim = Simulator::new(star.net);
    sim.run_until(Tick::from_millis(10));
    sim.audit().expect("conservation audit");
    assert_eq!(metrics.borrow().completion_ratio(), (2, 2));
}
