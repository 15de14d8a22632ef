//! Recorded callback streams: the oracle for the engine's dispatcher.
//!
//! `dispatch_golden.txt` holds, for fixed scenarios, what every endpoint
//! observed and what the engine counted: the number of callbacks, an
//! FNV-1a hash over every callback in global order — time, node, kind,
//! flow or timer key, sequence number, and for packets the ECN mark and
//! the INT record the switch stamped — and the run's final [`SimStats`]
//! minus wall-clock. Any change to event order, to what a switch stamps
//! or marks, or to what the pool and the queue are asked to do moves a
//! line.
//!
//! The file was generated at the last commit whose engine had two
//! dispatchers — one event per dispatch, and a same-tick batching loop
//! behind a `Simulator` switch — with batching on, and checked
//! equal with it off, before the loop was deleted; it is what the live
//! batched ≡ unbatched property test left behind.
//!
//! Refresh (only for an intended behaviour change, with an
//! `ENGINE_VERSION` bump):
//! `GOLDEN_REGEN=1 cargo test -p dcn-sim --test dispatch_golden`.

use dcn_sim::{
    build_dumbbell, build_star, DumbbellConfig, EcnConfig, Endpoint, EndpointCtx, FlowId, NodeId,
    Packet, PacketKind, PfcConfig, SimStats, Simulator, SwitchConfig,
};
use powertcp_core::{Bandwidth, Tick};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// Timer keys at or above this are echo timers (see [`Script::echo`]):
/// logged, nothing sent.
const ECHO_KEY: u64 = 1 << 32;

/// The global callback stream, reduced as it is produced.
struct Stream {
    callbacks: u64,
    fnv: u64,
    /// Timer callbacks as `(node, key)`, kept for the insertion-order test.
    timers: Vec<(u32, u64)>,
}

impl Stream {
    fn new() -> Self {
        Stream {
            callbacks: 0,
            fnv: 0xcbf2_9ce4_8422_2325,
            timers: Vec::new(),
        }
    }

    fn callback(&mut self, fields: &[u64]) {
        self.callbacks += 1;
        for byte in fields.iter().flat_map(|f| f.to_le_bytes()) {
            self.fnv = (self.fnv ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One host's part in a scenario.
#[derive(Clone, Default)]
struct Script {
    /// `(start offset in ns, destination node, packets)`; burst `i` is
    /// fired by timer key `i`.
    bursts: Vec<(u64, u32, u32)>,
    /// Spread a burst's packets over all eight priority classes instead
    /// of the data default (class 7).
    spread_priorities: bool,
    /// On every packet received, set a timer at the same instant: a host
    /// whose arrivals and timers share ticks.
    echo: bool,
}

struct Recorder {
    script: Script,
    echoes: u64,
    stream: Rc<RefCell<Stream>>,
}

impl Endpoint for Recorder {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        for (i, &(off, _, _)) in self.script.bursts.iter().enumerate() {
            ctx.set_timer(Tick::from_nanos(off), i as u64);
        }
    }

    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        let seq = match pkt.kind {
            PacketKind::Data { seq, .. } => seq,
            _ => u64::MAX,
        };
        let hop = pkt.int.hops().first();
        self.stream.borrow_mut().callback(&[
            ctx.now.as_ps(),
            ctx.node.0 as u64,
            1,
            pkt.flow.0,
            seq,
            pkt.ecn_ce as u64,
            pkt.int.len() as u64,
            hop.map_or(0, |h| h.qlen_bytes),
            hop.map_or(0, |h| h.tx_bytes),
            hop.map_or(0, |h| h.ts.as_ps()),
        ]);
        ctx.recycle(pkt);
        if self.script.echo {
            ctx.set_timer(ctx.now, ECHO_KEY + self.echoes);
            self.echoes += 1;
        }
    }

    fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
        let mut stream = self.stream.borrow_mut();
        stream.callback(&[ctx.now.as_ps(), ctx.node.0 as u64, 0, key, 0]);
        stream.timers.push((ctx.node.0, key));
        if key >= ECHO_KEY {
            return;
        }
        let (_, dst, count) = self.script.bursts[key as usize];
        for s in 0..count {
            let mut pkt = Packet::data(
                FlowId((ctx.node.0 as u64) << 32 | key << 16 | s as u64),
                ctx.node,
                NodeId(dst),
                s as u64 * 1000,
                1000,
                s + 1 == count,
                ctx.now,
            );
            if self.script.spread_priorities {
                pkt.priority = (s % 8) as u8;
            }
            ctx.send(pkt);
        }
    }
}

struct Scenario {
    name: &'static str,
    cfg: SwitchConfig,
    /// One script per host. On the star, host `i` is node `i + 1` (the
    /// switch is 0).
    hosts: Vec<Script>,
    /// Build a dumbbell instead (25 G hosts, 100 G trunk): the first half
    /// of `hosts` hang off the left switch, the rest off the right, and
    /// host `i` is node `i + 2`. The only shape here where a *switch* is
    /// paused by its peer.
    dumbbell: bool,
}

fn lossless(xoff_bytes: u64, xon_bytes: u64) -> SwitchConfig {
    SwitchConfig {
        buffer_bytes: 2_000_000,
        pfc: Some(PfcConfig {
            xoff_bytes,
            xon_bytes,
        }),
        ..SwitchConfig::default()
    }
}

/// `senders` hosts each fire `packets` at host 0 (node 1) at `at_ns`.
fn incast(senders: usize, packets: u32, at_ns: u64) -> Vec<Script> {
    let mut hosts = vec![Script::default(); senders + 1];
    for h in &mut hosts[1..] {
        h.bursts.push((at_ns, 1, packets));
    }
    hosts
}

fn scenarios() -> Vec<Scenario> {
    let stock = SwitchConfig::default();
    let mut all = Vec::new();

    // Same-tick fan-in, 2- to 64-way: every sender's timer fires at t = 0
    // and every first packet reaches the switch at the same instant.
    for (name, senders, packets) in [
        ("burst_2way", 2, 8),
        ("burst_4way", 4, 8),
        ("burst_8way", 8, 8),
        ("burst_16way", 16, 6),
        ("burst_32way", 32, 4),
        ("burst_64way", 64, 4),
    ] {
        all.push(Scenario {
            name,
            cfg: stock,
            hosts: incast(senders, packets, 0),
            dumbbell: false,
        });
    }

    // Two waves whose arrivals interleave with the first wave's drain.
    let mut hosts = incast(6, 20, 0);
    for h in &mut hosts[1..] {
        h.bursts.push((10_000, 1, 20));
    }
    all.push(Scenario {
        name: "two_waves",
        cfg: stock,
        hosts,
        dumbbell: false,
    });

    // All-to-all: several same-tick timers per host, every port busy in
    // both directions.
    let n = 6u32;
    let hosts = (0..n)
        .map(|i| Script {
            bursts: (0..n).filter(|&j| j != i).map(|j| (0, j + 1, 5)).collect(),
            ..Script::default()
        })
        .collect();
    all.push(Scenario {
        name: "all_to_all_same_tick",
        cfg: stock,
        hosts,
        dumbbell: false,
    });

    // One host whose timers and arrivals share ticks: it echoes a timer
    // per packet, and its own scripted timers sit on the instants its
    // downlink delivers (first arrival at 2.64 us, then every 320 ns).
    let mut hosts = incast(4, 12, 0);
    hosts[0].echo = true;
    hosts[0].bursts = (0..10)
        .map(|k| (2_640 + 320 * k, 2 + k as u32 % 4, 2))
        .collect();
    all.push(Scenario {
        name: "timers_and_arrivals_one_host",
        cfg: stock,
        hosts,
        dumbbell: false,
    });

    // Strict priority: a fan-in whose packets ride all eight classes.
    let mut hosts = incast(6, 24, 0);
    for h in &mut hosts[1..] {
        h.spread_priorities = true;
    }
    all.push(Scenario {
        name: "eight_priority_classes",
        cfg: stock,
        hosts,
        dumbbell: false,
    });

    // PFC: senders paused and resumed.
    all.push(Scenario {
        name: "pfc_incast",
        cfg: lossless(30_000, 15_000),
        hosts: incast(8, 60, 0),
        dumbbell: false,
    });
    // Thresholds of a few packets: a pause/resume cycle every few events.
    all.push(Scenario {
        name: "pfc_tiny_thresholds",
        cfg: lossless(3_000, 1_500),
        hosts: incast(16, 20, 0),
        dumbbell: false,
    });
    // Paused hosts that are also receivers, priorities mixed in.
    let n = 5u32;
    let hosts = (0..n)
        .map(|i| Script {
            bursts: vec![
                (0, 1 + (i + 1) % n, 40),
                (5_000, 1 + (i + 2) % n, 40),
                (5_000, 1, 10),
            ]
            .into_iter()
            .filter(|&(_, dst, _)| dst != i + 1)
            .collect(),
            spread_priorities: i % 2 == 0,
            echo: i == 0,
        })
        .collect();
    all.push(Scenario {
        name: "pfc_cross_traffic",
        cfg: lossless(8_000, 4_000),
        hosts,
        dumbbell: false,
    });

    // Four senders behind one switch, one receiver behind the other: the
    // right switch pauses the left switch's trunk port, whose backlog then
    // pauses the senders; a trickle of reverse traffic crosses the pauses.
    let mut hosts = vec![Script::default(); 8];
    for h in &mut hosts[..4] {
        h.bursts.push((0, 6, 60));
    }
    hosts[4].bursts = vec![(3_000, 2, 10), (20_000, 3, 10)];
    all.push(Scenario {
        name: "pfc_dumbbell_switch_paused",
        cfg: lossless(8_000, 4_000),
        hosts,
        dumbbell: true,
    });

    // Lossy: a pool of 40 packets under a 9-way fan-in; Dynamic
    // Thresholds refuses most of it.
    all.push(Scenario {
        name: "lossy_dt_drops",
        cfg: SwitchConfig {
            buffer_bytes: 40_000,
            ..stock
        },
        hosts: incast(9, 100, 0),
        dumbbell: false,
    });

    // RED/ECN: the per-switch mark PRNG is consumed in arrival order.
    all.push(Scenario {
        name: "ecn_red_marks",
        cfg: SwitchConfig {
            ecn: Some(EcnConfig {
                kmin_bytes: 5_000,
                kmax_bytes: 60_000,
                pmax: 0.3,
            }),
            ..stock
        },
        hosts: incast(6, 60, 0),
        dumbbell: false,
    });

    all
}

/// Run one scenario to idle; returns the reduced stream and final stats.
fn run(s: &Scenario) -> (Stream, SimStats) {
    let stream = Rc::new(RefCell::new(Stream::new()));
    let mut mk = |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        Box::new(Recorder {
            script: s.hosts[idx].clone(),
            echoes: 0,
            stream: stream.clone(),
        })
    };
    let net = if s.dumbbell {
        let cfg = DumbbellConfig {
            pairs: s.hosts.len() / 2,
            bottleneck_bw: Bandwidth::gbps(100),
            switch: s.cfg,
            ..DumbbellConfig::default()
        };
        build_dumbbell(cfg, &mut mk).net
    } else {
        let (bw, delay) = (Bandwidth::gbps(25), Tick::from_micros(1));
        build_star(s.hosts.len(), bw, delay, s.cfg, &mut mk).net
    };
    let mut sim = Simulator::new(net);
    // Every `Recorder` recycles what it is delivered and keeps no box, so
    // at every stop the boxes the pool has out are exactly the ones
    // queued or on a wire — none at all once the run is idle. (Stopping
    // moves nothing: `run_until` pops the same events in the same order.)
    for stop_us in (5..=200).step_by(5) {
        sim.run_until(Tick::from_micros(stop_us));
        sim.audit_closed()
            .unwrap_or_else(|e| panic!("{} at {stop_us} us: {e}", s.name));
    }
    sim.run_until_idle();
    sim.audit_closed()
        .unwrap_or_else(|e| panic!("{}: {e}", s.name));
    let stats = sim.stats();
    drop(sim);
    let stream = Rc::try_unwrap(stream)
        .ok()
        .expect("endpoints dropped with the simulator")
        .into_inner();
    (stream, stats)
}

/// One golden line: everything but wall-clock and the always-zero batch
/// counters.
fn line(name: &str, stream: &Stream, st: &SimStats) -> String {
    let mut out = String::new();
    write!(
        out,
        "{name} callbacks={} fnv={:016x} events_processed={} events_scheduled={} \
         overflow_scheduled={} delivered={} forwarded={} drops_no_route={} drops_buffer={} \
         drops_custom={} pfc_frames={} pool_fresh={} pool_reused={}",
        stream.callbacks,
        stream.fnv,
        st.events_processed,
        st.events_scheduled,
        st.overflow_scheduled,
        st.delivered,
        st.forwarded,
        st.drops_no_route,
        st.drops_buffer,
        st.drops_custom,
        st.pfc_frames,
        st.pool_fresh,
        st.pool_reused,
    )
    .expect("write to a String");
    out
}

#[test]
fn callback_streams_match_the_recorded_dispatcher() {
    let all = scenarios();
    assert!(all.len() >= 12);
    let mut got = String::new();
    for s in &all {
        let (stream, stats) = run(s);
        assert!(stream.callbacks > 0, "{}: nothing happened", s.name);
        // Each scenario earns its name.
        if s.cfg.pfc.is_some() {
            assert!(stats.pfc_frames > 0, "{}: no PFC frame", s.name);
            assert_eq!(stats.drops_buffer, 0, "{}: PFC dropped", s.name);
        }
        if s.name == "lossy_dt_drops" {
            assert!(stats.drops_buffer > 0, "{}: nothing dropped", s.name);
        }
        got.push_str(&line(s.name, &stream, &stats));
        got.push('\n');
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/dispatch_golden.txt");
    #[expect(
        clippy::disallowed_methods,
        reason = "GOLDEN_REGEN is the golden-regen toggle: it picks write-then-compare, never a result"
    )]
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    if regen {
        std::fs::write(path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(path)
        .expect("dispatch golden missing; regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        got, want,
        "the callback stream moved; if that is intended, bump ENGINE_VERSION \
         and regenerate with GOLDEN_REGEN=1"
    );
}

/// Same-tick timers reach the endpoint in insertion order.
#[test]
fn same_tick_timers_reach_the_endpoint_in_insertion_order() {
    let s = Scenario {
        name: "same_tick_timers",
        cfg: SwitchConfig::default(),
        hosts: vec![
            Script {
                bursts: vec![(0, 2, 1), (0, 3, 1), (0, 2, 1), (0, 3, 1)],
                ..Script::default()
            },
            Script::default(),
            Script::default(),
        ],
        dumbbell: false,
    };
    let (stream, _) = run(&s);
    assert_eq!(stream.timers, vec![(1, 0), (1, 1), (1, 2), (1, 3)]);
}
