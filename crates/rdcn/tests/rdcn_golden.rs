//! Recorded delivery streams over the rotor fabric: the oracle for the
//! engine's custom-node path.
//!
//! `dcn-sim`'s `dispatch_golden.txt` pins hosts and stock switches; what a
//! [`dcn_sim::CustomSwitch`] asks for — `start_tx` with the VOQ occupancy
//! it wants stamped, timers, drops — goes through a different arm of the
//! engine, and this file pins that one. `rdcn_golden.txt` holds, for three
//! runs of the Figure 8 fixture (4 hosts per ToR, rack 0 → rack 1) on a
//! 6-ToR rotor, what every host was delivered and what the engine
//! counted: the number of deliveries, an FNV-1a hash over every
//! delivery in global order — time, node, kind, flow, sequence numbers,
//! ECN mark, and every INT hop's node, port, queue length, `tx_bytes`,
//! timestamp and bandwidth — every ToR's per-port `tx_bytes`, and the
//! run's final [`SimStats`] minus wall-clock.
//!
//! The file was generated at the last commit whose engine kept a global
//! link table and rebuilt a port view per custom-node event.
//!
//! Only PowerTCP runs the two rotor weeks. Under reTCP past 1.5 ms and
//! HPCC past 0.4 ms a go-back-N sender on this fabric is ACKed beyond a
//! next-to-send byte it has just rewound, and `dcn-transport`'s `SendSeq`
//! then computes `nxt - una`: a debug build traps, a release build wraps
//! (ROADMAP, open defects). Those two runs stop short of it, so the file
//! pins neither behaviour.
//!
//! Refresh (only for an intended behaviour change, with an
//! `ENGINE_VERSION` bump):
//! `GOLDEN_REGEN=1 cargo test -p rdcn --test rdcn_golden`.

use cc_baselines::{hpcc::ETA, Hpcc, ReTcp};
use dcn_sim::{Endpoint, EndpointCtx, Node, NullEndpoint, Packet, PacketKind, SimStats, Simulator};
use dcn_transport::{CcFactory, MetricsHub, TransportConfig};
use powertcp_core::{CongestionControl, PowerTcp, Tick, GAMMA};
use rdcn::{build_rack_pair, topology::CIRCUIT_BW, RdcnConfig, RotorSchedule};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// The global delivery stream, reduced as it is produced.
#[derive(Clone, Copy)]
struct Stream {
    delivered: u64,
    fnv: u64,
}

impl Stream {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.fnv = (self.fnv ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Logs every packet its host is delivered, then hands it to the real
/// endpoint.
struct Tap {
    inner: Box<dyn Endpoint>,
    stream: Rc<RefCell<Stream>>,
}

impl Endpoint for Tap {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        let (kind, seq, aux, mark) = match &pkt.kind {
            PacketKind::Data { seq, len, is_last } => {
                (1, *seq, (*len as u64) << 1 | *is_last as u64, pkt.ecn_ce)
            }
            PacketKind::Ack(a) => (2, a.data_seq, a.cum_ack << 1 | a.nack as u64, a.ecn_echo),
            other => panic!("unexpected delivery {other:?}"),
        };
        {
            let mut s = self.stream.borrow_mut();
            s.delivered += 1;
            for w in [
                ctx.now.as_ps(),
                ctx.node.0 as u64,
                kind,
                pkt.flow.0,
                seq,
                aux,
                mark as u64,
                pkt.int.len() as u64,
            ] {
                s.word(w);
            }
            for h in pkt.int.hops() {
                for w in [
                    h.node as u64,
                    h.port as u64,
                    h.qlen_bytes,
                    h.tx_bytes,
                    h.ts.as_ps(),
                    h.bandwidth.bps(),
                ] {
                    s.word(w);
                }
            }
        }
        self.inner.on_packet(pkt, ctx);
    }

    fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
        self.inner.on_timer(key, ctx);
    }
}

#[derive(Clone, Copy)]
enum Law {
    PowerTcp,
    ReTcp,
    Hpcc,
}

struct Run {
    name: &'static str,
    law: Law,
    prebuffer: Tick,
    horizon: Tick,
}

/// Six ToRs as in `examples/rdcn_circuit.rs`: a 1.225 ms week, so a
/// debug-build run stays well under a second.
const ROTOR: RotorSchedule = RotorSchedule {
    n_tors: 6,
    day: Tick::from_micros(225),
    night: Tick::from_micros(20),
};

/// Per-ToR, per-port cumulative transmitted bytes.
type TorTx = Vec<Vec<u64>>;

/// Run one lineup entry to its horizon; returns the reduced stream, every
/// ToR's port counters and the final stats.
fn run(r: &Run) -> (Stream, TorTx, SimStats) {
    let cfg = RdcnConfig {
        schedule: ROTOR,
        hosts_per_tor: 4,
        prebuffer: r.prebuffer,
        ..RdcnConfig::default()
    };
    let base_rtt = cfg.base_rtt();
    let law = r.law;
    let metrics = MetricsHub::new_shared();
    let stream = Rc::new(RefCell::new(Stream {
        delivered: 0,
        fnv: 0xcbf2_9ce4_8422_2325,
    }));

    let tcfg = TransportConfig {
        base_rtt,
        rto: Tick::from_micros(2_000),
        nack_guard: base_rtt,
        expected_flows: 1,
        mtu: 1000,
    };
    let mut make_cc = || -> CcFactory {
        Box::new(move |_flow, nic_bw| -> Box<dyn CongestionControl> {
            let ctx = tcfg.cc_context(nic_bw);
            match law {
                Law::PowerTcp => Box::new(PowerTcp::new(GAMMA, ctx)),
                Law::ReTcp => Box::new(ReTcp::new(ctx)),
                Law::Hpcc => Box::new(Hpcc::new(ETA, ctx)),
            }
        })
    };
    // Enough bytes to stay active the whole run at 100 G.
    let flow_bytes = CIRCUIT_BW.bytes_per_sec() as u64 / 100;
    let mut rdcn = build_rack_pair(cfg, &metrics, tcfg, flow_bytes, &mut make_cc);
    // Every host goes behind a tap.
    for &h in &rdcn.hosts {
        let Node::Host(host) = rdcn.net.node_mut(h) else {
            panic!("{h} is not a host");
        };
        let inner = std::mem::replace(&mut host.app, Box::new(NullEndpoint));
        host.app = Box::new(Tap {
            inner,
            stream: stream.clone(),
        });
    }
    let tors = rdcn.tors.clone();
    let mut sim = Simulator::new(rdcn.net);
    sim.run_until(r.horizon);
    sim.audit().unwrap_or_else(|e| panic!("{}: {e}", r.name));

    let tor_tx = tors
        .iter()
        .map(|&t| {
            let Node::Custom(c) = sim.net.node(t) else {
                panic!("{t} is not a custom node");
            };
            c.ports.iter().map(|p| p.tx_bytes).collect()
        })
        .collect();
    let stream = *stream.borrow();
    (stream, tor_tx, sim.stats())
}

/// One golden line: everything but wall-clock and the always-zero batch
/// counters.
fn line(name: &str, stream: &Stream, tor_tx: &TorTx, st: &SimStats) -> String {
    let ports: Vec<String> = tor_tx
        .iter()
        .map(|tor| {
            let ports: Vec<String> = tor.iter().map(u64::to_string).collect();
            ports.join(",")
        })
        .collect();
    let mut out = String::new();
    write!(
        out,
        "{name} delivered_callbacks={} fnv={:016x} tor_tx_bytes={} events_processed={} \
         events_scheduled={} overflow_scheduled={} delivered={} forwarded={} drops_no_route={} \
         drops_buffer={} drops_custom={} pfc_frames={} pool_fresh={} pool_reused={}",
        stream.delivered,
        stream.fnv,
        ports.join(";"),
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
fn delivery_streams_match_the_recorded_custom_path() {
    // The rack pair's own day opens each week.
    let week = ROTOR.week();
    let runs = [
        Run {
            name: "powertcp_two_weeks",
            law: Law::PowerTcp,
            prebuffer: Tick::ZERO,
            horizon: week * 2,
        },
        // Through the hold before the pair's second day and the blast of
        // the held VOQ onto the circuit during it.
        Run {
            name: "retcp_prebuffer_600us_week_and_day",
            law: Law::ReTcp,
            prebuffer: Tick::from_micros(600),
            horizon: week + ROTOR.day,
        },
        // The pair's day, the night, and the packet network after it.
        Run {
            name: "hpcc_350us",
            law: Law::Hpcc,
            prebuffer: Tick::ZERO,
            horizon: Tick::from_micros(350),
        },
    ];
    let mut got = String::new();
    for r in &runs {
        let (stream, tor_tx, stats) = run(r);
        assert_eq!(stream.delivered, stats.delivered, "{}", r.name);
        // Each run earns its place: both egresses of ToR 0 carried data
        // (ports: 4 hosts, then the packet uplink, then the circuit).
        assert!(
            tor_tx[0][4] > 0 && tor_tx[0][5] > 0,
            "{}: {tor_tx:?}",
            r.name
        );
        got.push_str(&line(r.name, &stream, &tor_tx, &stats));
        got.push('\n');
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/rdcn_golden.txt");
    #[expect(
        clippy::disallowed_methods,
        reason = "GOLDEN_REGEN is the golden-regen toggle: it picks write-then-compare, never a result"
    )]
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    if regen {
        std::fs::write(path, &got).expect("write golden");
    }
    let want =
        std::fs::read_to_string(path).expect("rdcn golden missing; regenerate with GOLDEN_REGEN=1");
    assert_eq!(
        got, want,
        "the delivery stream moved; if that is intended, bump ENGINE_VERSION \
         and regenerate with GOLDEN_REGEN=1"
    );
}
