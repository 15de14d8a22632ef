//! End-to-end engine tests: packets actually flow host → switch → host
//! with exact timing, INT accumulation, ECN marking, and PFC behaviour.

use dcn_sim::topology::CORE_DELAY;
use dcn_sim::{
    build_dumbbell, build_fat_tree, build_star, queue_tracer, series, Dumbbell, DumbbellConfig,
    EcnConfig, Endpoint, EndpointCtx, FatTreeConfig, FlowId, NodeId, Packet, PacketKind, PfcConfig,
    PortId, Simulator, Star, SwitchConfig, DEFAULT_MTU,
};
use powertcp_core::{Bandwidth, IntHop, Tick, MAX_INT_HOPS};
use std::cell::RefCell;
use std::rc::Rc;

/// Records every packet a host receives.
#[derive(Default)]
struct RxLog {
    arrivals: Rc<RefCell<Vec<(Tick, u64)>>>, // (time, seq)
    echo_ints: Rc<RefCell<Vec<usize>>>,      // INT hop counts seen
}

struct Sink {
    log: RxLog,
}

impl Endpoint for Sink {
    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        if let PacketKind::Data { seq, .. } = pkt.kind {
            self.log.arrivals.borrow_mut().push((ctx.now, seq));
            self.log.echo_ints.borrow_mut().push(pkt.int.len());
        }
    }
    fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
}

/// Sends `n` back-to-back MTU packets at start.
struct Blaster {
    dst: NodeId,
    n: u64,
}

impl Endpoint for Blaster {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        for i in 0..self.n {
            let pkt = Packet::data(
                FlowId(1),
                ctx.node,
                self.dst,
                i * DEFAULT_MTU as u64,
                DEFAULT_MTU,
                i + 1 == self.n,
                ctx.now,
            );
            ctx.send(pkt);
        }
    }
    fn on_packet(&mut self, _pkt: Box<Packet>, _ctx: &mut EndpointCtx<'_>) {}
    fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
}

fn star_with(n: usize, blaster_count: u64, switch_cfg: SwitchConfig) -> (Star, RxLog) {
    let log = RxLog::default();
    let arrivals = log.arrivals.clone();
    let echo = log.echo_ints.clone();
    // Host 0 is the receiver; hosts 1.. blast at it.
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        if idx == 0 {
            Box::new(Sink {
                log: RxLog {
                    arrivals: arrivals.clone(),
                    echo_ints: echo.clone(),
                },
            })
        } else {
            Box::new(Blaster {
                dst: NodeId(1), // star: switch is node 0, host 0 is node 1
                n: blaster_count,
            })
        }
    };
    let star = build_star(
        n,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        switch_cfg,
        &mut mk,
    );
    (star, log)
}

#[test]
fn single_packet_timing_is_exact() {
    let (star, log) = star_with(2, 1, SwitchConfig::default());
    let mut sim = Simulator::new(star.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    let arr = log.arrivals.borrow();
    assert_eq!(arr.len(), 1);
    // Host NIC: 1000B at 25G = 320ns + 1us prop; switch: 320ns + 1us.
    let expect = Tick::from_nanos(320 + 1000 + 320 + 1000);
    assert_eq!(arr[0].0, expect, "got {}", arr[0].0);
    // Exactly one INT hop (the switch).
    assert_eq!(log.echo_ints.borrow()[0], 1);
}

#[test]
fn back_to_back_packets_serialize_at_bottleneck() {
    let (star, log) = star_with(2, 10, SwitchConfig::default());
    let mut sim = Simulator::new(star.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    let arr = log.arrivals.borrow();
    assert_eq!(arr.len(), 10);
    // Consecutive arrivals exactly one serialization time (320ns) apart.
    for w in arr.windows(2) {
        assert_eq!(w[1].0 - w[0].0, Tick::from_nanos(320));
    }
    // In-order delivery.
    for (i, (_, seq)) in arr.iter().enumerate() {
        assert_eq!(*seq, i as u64 * DEFAULT_MTU as u64);
    }
}

#[test]
fn incast_queue_builds_and_drains() {
    // 4 blasters, 50 packets each at the receiver downlink: with all
    // senders at equal rate the downlink queue must grow then drain.
    let (star, log) = star_with(5, 50, SwitchConfig::default());
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    let qs = series();
    sim.add_tracer(
        Tick::from_micros(2),
        queue_tracer(sw, PortId(0), qs.clone()),
    );
    sim.run_until(Tick::from_millis(1));
    sim.audit().expect("conservation audit");
    assert_eq!(log.arrivals.borrow().len(), 200, "all packets delivered");
    let peak = qs.borrow().iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    // 4 senders × 25G into one 25G downlink: 3/4 of arriving bytes queue.
    assert!(peak > 50_000.0, "peak queue {peak} too small");
    let last = qs.borrow().last().unwrap().1;
    assert_eq!(last, 0.0, "queue must fully drain");
}

#[test]
fn dynamic_thresholds_drop_under_extreme_incast() {
    let cfg = SwitchConfig {
        buffer_bytes: 50_000, // tiny pool to force drops
        ..SwitchConfig::default()
    };
    let (star, log) = star_with(9, 100, cfg);
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    let delivered = log.arrivals.borrow().len();
    let drops = sim.net.switch(sw).total_drops();
    assert!(drops > 0, "expected drops with a 50KB pool");
    assert_eq!(delivered as u64 + drops, 800, "every packet accounted for");
}

#[test]
fn ecn_marks_are_carried_to_receiver() {
    let cfg = SwitchConfig {
        ecn: Some(EcnConfig {
            kmin_bytes: 10_000,
            kmax_bytes: 10_000,
            pmax: 1.0,
        }),
        ..SwitchConfig::default()
    };
    let marked = Rc::new(RefCell::new(0u64));
    let marked2 = marked.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        if idx == 0 {
            struct EcnSink(Rc<RefCell<u64>>);
            impl Endpoint for EcnSink {
                fn on_packet(&mut self, pkt: Box<Packet>, _ctx: &mut EndpointCtx<'_>) {
                    if pkt.ecn_ce {
                        *self.0.borrow_mut() += 1;
                    }
                }
                fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
            }
            Box::new(EcnSink(marked2.clone()))
        } else {
            Box::new(Blaster {
                dst: NodeId(1),
                n: 100,
            })
        }
    };
    let star = build_star(4, Bandwidth::gbps(25), Tick::from_micros(1), cfg, &mut mk);
    let mut sim = Simulator::new(star.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    assert!(*marked.borrow() > 50, "CE marks must reach the receiver");
}

#[test]
fn int_metadata_reflects_queue_growth() {
    // Deep incast: later packets must report larger qlen in INT.
    let (star, _log) = star_with(3, 100, SwitchConfig::default());
    let observed = Rc::new(RefCell::new(Vec::<u64>::new()));
    // Rebuild with a sink that records INT qlen. Simpler: use echo_ints...
    // Instead attach a custom sink directly here.
    let obs = observed.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        if idx == 0 {
            struct IntSink(Rc<RefCell<Vec<u64>>>);
            impl Endpoint for IntSink {
                fn on_packet(&mut self, pkt: Box<Packet>, _ctx: &mut EndpointCtx<'_>) {
                    if let Some(h) = pkt.int.hops().first() {
                        self.0.borrow_mut().push(h.qlen_bytes);
                    }
                }
                fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
            }
            Box::new(IntSink(obs.clone()))
        } else {
            Box::new(Blaster {
                dst: NodeId(1),
                n: 100,
            })
        }
    };
    let star2 = build_star(
        3,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    drop(star);
    let mut sim = Simulator::new(star2.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    let v = observed.borrow();
    assert_eq!(v.len(), 200);
    let early: u64 = v[..20].iter().sum();
    let mid: u64 = v[80..120].iter().sum();
    assert!(
        mid > early,
        "INT qlen must grow as the incast queue builds (early={early} mid={mid})"
    );
    // txBytes in INT must be monotonically non-decreasing per hop.
}

#[test]
fn pfc_prevents_drops_on_tiny_buffer() {
    // Same extreme incast as the drop test, but with PFC: zero drops.
    let cfg = SwitchConfig {
        buffer_bytes: 200_000,
        pfc: Some(PfcConfig {
            xoff_bytes: 15_000,
            xon_bytes: 8_000,
        }),
        ..SwitchConfig::default()
    };
    let (star, log) = star_with(9, 100, cfg);
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    assert_eq!(sim.net.switch(sw).total_drops(), 0, "PFC must be lossless");
    assert_eq!(log.arrivals.borrow().len(), 800, "all packets delivered");
}

#[test]
fn dumbbell_end_to_end() {
    let delivered = Rc::new(RefCell::new(0u64));
    let d2 = delivered.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        if idx < 2 {
            // Senders towards receiver idx+2 (hosts: senders 2,3; recv 4,5
            // — node ids offset by the two switches).
            Box::new(Blaster {
                dst: NodeId(4 + idx as u32),
                n: 20,
            })
        } else {
            struct CountSink(Rc<RefCell<u64>>);
            impl Endpoint for CountSink {
                fn on_packet(&mut self, _pkt: Box<Packet>, _ctx: &mut EndpointCtx<'_>) {
                    *self.0.borrow_mut() += 1;
                }
                fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
            }
            Box::new(CountSink(d2.clone()))
        }
    };
    let d: Dumbbell = build_dumbbell(DumbbellConfig::default(), &mut mk);
    assert_eq!(d.senders, vec![NodeId(2), NodeId(3)]);
    assert_eq!(d.receivers, vec![NodeId(4), NodeId(5)]);
    let mut sim = Simulator::new(d.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    assert_eq!(*delivered.borrow(), 40);
}

#[test]
fn deterministic_replay() {
    // Two identical runs produce identical arrival traces.
    let run = || {
        let (star, log) = star_with(5, 30, SwitchConfig::default());
        let mut sim = Simulator::new(star.net);
        sim.run_until_idle();
        sim.audit().expect("conservation audit");
        let trace = log.arrivals.borrow().clone();
        trace
    };
    assert_eq!(run(), run());
}

#[test]
fn packet_pool_goes_allocation_free_in_steady_state() {
    // Ping-pong: each side recycles the delivered box and sends a fresh
    // packet, so after the first exchange every send reuses a pooled box.
    struct Ponger {
        peer: NodeId,
        remaining: u64,
        serve: bool,
    }
    impl Endpoint for Ponger {
        fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
            if self.serve {
                let pkt = Packet::data(FlowId(1), ctx.node, self.peer, 0, 1000, false, ctx.now);
                ctx.send(pkt);
            }
        }
        fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
            ctx.recycle(pkt);
            if self.remaining > 0 {
                self.remaining -= 1;
                let pkt = Packet::data(FlowId(1), ctx.node, self.peer, 0, 1000, false, ctx.now);
                ctx.send(pkt);
            }
        }
        fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
    }
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        Box::new(Ponger {
            peer: if idx == 0 { NodeId(2) } else { NodeId(1) },
            remaining: 500,
            serve: idx == 0,
        })
    };
    let star = build_star(
        2,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let mut sim = Simulator::new(star.net);
    // Both sides recycle and hold nothing: mid-rally the one box out is
    // the one in the network.
    sim.run_until(Tick::from_micros(100));
    sim.audit_closed().expect("conservation audit, mid-run");
    assert_eq!(sim.pool_stats().free, 0, "the ball is in play");
    sim.run_until_idle();
    sim.audit_closed().expect("conservation audit");
    assert_eq!(sim.delivered, 1001);
    let stats = sim.pool_stats();
    assert_eq!(
        stats.fresh, 1,
        "only the opening packet may allocate: {stats:?}"
    );
    assert_eq!(stats.reused, 1000, "every pong must reuse: {stats:?}");
    assert_eq!(stats.free, 1, "the last box parks on the free list");
}

#[test]
fn an_inter_pod_ack_echoes_a_full_int_stack() {
    // The deepest route any builder makes: ToR, agg, core, agg, ToR. Each
    // stamps one hop, which fills the stack exactly (a sixth would trip
    // the stamping site's debug assertion).
    type Echoes = Rc<RefCell<Vec<Vec<IntHop>>>>;
    struct Ends {
        peer: NodeId,
        send: u64,
        echoes: Echoes,
    }
    impl Endpoint for Ends {
        fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
            for i in 0..self.send {
                let pkt = Packet::data(FlowId(1), ctx.node, self.peer, i, 1000, false, ctx.now);
                ctx.send(pkt);
            }
        }
        fn on_packet(&mut self, mut pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
            match pkt.kind {
                PacketKind::Data { .. } => {
                    pkt.into_ack(0, false, ctx.now);
                    ctx.send_boxed(pkt);
                }
                _ => {
                    self.echoes.borrow_mut().push(pkt.int.hops().to_vec());
                    ctx.recycle(pkt);
                }
            }
        }
        fn on_timer(&mut self, _key: u64, _ctx: &mut EndpointCtx<'_>) {}
    }
    let cfg = FatTreeConfig::small();
    let last = cfg.num_hosts() - 1;
    const SENT: u64 = 4;
    let echoes = Echoes::default();
    let log = echoes.clone();
    // Host ids are dense after the switches': host 0 sends to the last
    // host, in the last pod.
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        Box::new(Ends {
            peer: NodeId(id.0 + last as u32),
            send: if idx == 0 { SENT } else { 0 },
            echoes: log.clone(),
        })
    };
    let ft = build_fat_tree(cfg, &mut mk);
    assert_eq!(ft.hosts[last].0, ft.hosts[0].0 + last as u32);
    let mut sim = Simulator::new(ft.net);
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    let echoes = echoes.borrow();
    assert_eq!(echoes.len(), SENT as usize);
    for hops in echoes.iter() {
        assert_eq!(hops.len(), MAX_INT_HOPS, "{hops:?}");
        assert!(hops.windows(2).all(|w| w[0].ts < w[1].ts), "{hops:?}");
        // Four fabric egresses, then the last ToR's port to its host.
        let rates: Vec<_> = hops.iter().map(|h| h.bandwidth).collect();
        let (fabric, host) = (cfg.fabric_bw, cfg.host_bw);
        assert_eq!(rates, [fabric, fabric, fabric, fabric, host], "{hops:?}");
        // Hops 1 → 2 and 2 → 3 cross the agg–core links, the only ones
        // with `CORE_DELAY`: the middle hop is a core switch.
        assert!(hops[2].ts - hops[1].ts >= CORE_DELAY, "{hops:?}");
        assert!(hops[3].ts - hops[2].ts >= CORE_DELAY, "{hops:?}");
    }
}

#[test]
fn an_idle_nic_puts_a_packet_straight_on_the_wire() {
    // Sends one MTU packet to `dst` at each instant of `at`.
    struct Spaced {
        dst: NodeId,
        at: Vec<Tick>,
    }
    impl Endpoint for Spaced {
        fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
            for (k, &t) in self.at.iter().enumerate() {
                ctx.set_timer(t, k as u64);
            }
        }
        fn on_packet(&mut self, _pkt: Box<Packet>, _ctx: &mut EndpointCtx<'_>) {}
        fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
            let seq = key * DEFAULT_MTU as u64;
            let (src, now) = (ctx.node, ctx.now);
            ctx.send(Packet::data(
                FlowId(1),
                src,
                self.dst,
                seq,
                DEFAULT_MTU,
                false,
                now,
            ));
        }
    }
    // 1 µs apart on a NIC that serializes one in 320 ns, then two at one
    // instant.
    let us = Tick::from_micros;
    let at = vec![Tick::ZERO, us(1), us(2), us(3), us(3)];
    let log = RxLog::default();
    let arrivals = log.arrivals.clone();
    let mut b = dcn_sim::NetworkBuilder::new();
    let sw = b.add_switch(SwitchConfig::default());
    let rx = b.add_host(Box::new(Sink { log }));
    let tx = b.add_host(Box::new(Spaced {
        dst: rx,
        at: at.clone(),
    }));
    for h in [rx, tx] {
        b.connect(sw, h, Bandwidth::gbps(25), us(1));
    }
    let mut net = b.build();
    net.switch_mut(sw).set_route(rx, vec![PortId(0)]);
    let mut sim = Simulator::new(net);
    // (NIC busy, packets queued, queue capacity)
    let nic = |sim: &Simulator| {
        let nic = &sim.net.host(tx).nic;
        (nic.tx.busy, nic.txq.len(), nic.txq.capacity())
    };
    // The first packet is on the wire the instant it is sent, and while
    // the packets come 1 µs apart the NIC's queue never holds one.
    sim.run_until(Tick::ZERO);
    assert_eq!(nic(&sim), (true, 0, 0));
    sim.run_until(us(2) + Tick::from_nanos(500));
    assert_eq!(nic(&sim), (false, 0, 0));
    // Of the two sent at 3 µs, the second waits behind the first.
    sim.run_until(us(3));
    assert!(matches!(nic(&sim), (true, 1, c) if c > 0));
    sim.run_until_idle();
    sim.audit().expect("conservation audit");
    // NIC and switch each serialize for 320 ns and each wire delays 1 µs;
    // the fifth packet also waits out the fourth's serialization.
    let path = Tick::from_nanos(2 * 320 + 2 * 1000);
    let mut want: Vec<(Tick, u64)> = (0..4).map(|k| (at[k] + path, k as u64 * 1000)).collect();
    want.push((at[4] + Tick::from_nanos(320) + path, 4000));
    assert_eq!(*arrivals.borrow(), want);
}
