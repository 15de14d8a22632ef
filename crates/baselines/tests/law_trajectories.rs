//! Every control law's trajectory, pinned bit for bit.
//!
//! One fixed synthetic event stream drives every windowed law of the
//! `Algo` registry, and NewReno, reTCP's base law: ACKs carrying a
//! two-hop INT stack whose queue lengths and transmit counters move,
//! rising and falling RTTs, ECN marks, timer polls over several
//! milliseconds, reorder and timeout losses, and circuit up/down signals.
//! After every event each law's `cwnd` bits, pacing rate, normalised
//! power bits and (on a poll) next deadline fold into one FNV-1a digest
//! per law. A builtin report runs each law only along its own few
//! paths; this stream reaches every clamp, timer and loss branch.
//!
//! A digest that moves means a law's arithmetic moved. The failure
//! message prints every law's digest. Changing any one of the laws'
//! module constants (γ, η, every clamp, gain, timer and threshold) moves
//! at least one digest.

use cc_baselines::NewReno;
use dcn_scenarios::Algo;
use dcn_sim::FlowId;
use dcn_transport::TransportConfig;
use powertcp_core::{
    AckInfo, Bandwidth, CcContext, CongestionControl, IntHeader, IntHop, LossKind, NetSignal, Tick,
};

/// The registry's windowed laws (HOMA is a transport, not a law).
fn windowed() -> impl Iterator<Item = Algo> {
    Algo::all().into_iter().filter(|a| !a.is_homa())
}

/// The laws' names, in [`laws`] order.
fn names() -> Vec<String> {
    windowed()
        .map(Algo::key)
        .chain(["newreno".into()])
        .collect()
}

/// The laws, each built by `Algo::cc_factory`, then NewReno.
fn laws(ctx: CcContext) -> Vec<Box<dyn CongestionControl>> {
    let tcfg = TransportConfig {
        base_rtt: ctx.base_rtt,
        mtu: ctx.mtu,
        expected_flows: ctx.expected_flows,
        ..TransportConfig::default()
    };
    let registry = windowed().map(|algo| algo.cc_factory(tcfg)(FlowId(1), ctx.host_bw));
    let base: Box<dyn CongestionControl> = Box::new(NewReno::new(ctx));
    registry.chain([base]).collect()
}

/// One stretch of the stream: `acks` ACKs `gap_ns` apart, the bottleneck
/// queue and the RTT moving linearly from the first value to the second.
struct Segment {
    acks: u64,
    gap_ns: u64,
    queue: (f64, f64),
    /// Fraction of the bottleneck's line rate it transmits at.
    util: f64,
    rtt_us: (f64, f64),
    /// Every `mark_every`-th ACK carries an ECN mark (0: none).
    mark_every: u64,
    acked: u64,
    inflight: u64,
}

const SEGMENTS: &[Segment] = &[
    // Ramp: a queue builds at line rate, the RTT climbs, marks start.
    Segment {
        acks: 300,
        gap_ns: 800,
        queue: (0.0, 400_000.0),
        util: 1.0,
        rtt_us: (20.0, 60.0),
        mark_every: 3,
        acked: 1_000,
        inflight: 20_000,
    },
    // Overload: a deep standing queue, every ACK marked.
    Segment {
        acks: 600,
        gap_ns: 2_000,
        queue: (2_000_000.0, 3_000_000.0),
        util: 1.0,
        rtt_us: (150.0, 400.0),
        mark_every: 1,
        acked: 1_000,
        inflight: 8_000,
    },
    // Drain: the queue empties, the link is under-used, the RTT falls.
    Segment {
        acks: 300,
        gap_ns: 1_000,
        queue: (400_000.0, 0.0),
        util: 0.3,
        rtt_us: (60.0, 20.0),
        mark_every: 0,
        acked: 1_000,
        inflight: 30_000,
    },
    // Quiet: sparse large ACKs at the base RTT while the timers run 6 ms.
    Segment {
        acks: 600,
        gap_ns: 10_000,
        queue: (0.0, 0.0),
        util: 0.25,
        rtt_us: (20.0, 21.0),
        mark_every: 0,
        acked: 400_000,
        inflight: 60_000,
    },
    // Churn: a shallow queue near full use, the RTT inside the guard bands.
    Segment {
        acks: 800,
        gap_ns: 1_500,
        queue: (50_000.0, 150_000.0),
        util: 0.9,
        rtt_us: (21.0, 30.0),
        mark_every: 5,
        acked: 1_500,
        inflight: 12_000,
    },
];

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn observe(&mut self, cc: &dyn CongestionControl) {
        self.word(cc.cwnd().to_bits());
        self.word(cc.pacing_rate().bps());
        self.word(cc.norm_power().map_or(u64::MAX, f64::to_bits));
    }
}

/// Apply one event to every law, then fold what each shows into its digest.
fn step(
    ccs: &mut [Box<dyn CongestionControl>],
    digests: &mut [Fnv],
    event: impl Fn(&mut dyn CongestionControl) -> Option<Tick>,
) {
    for (cc, d) in ccs.iter_mut().zip(digests.iter_mut()) {
        let next = event(cc.as_mut());
        d.word(next.map_or(u64::MAX, Tick::as_ps));
        d.observe(cc.as_ref());
    }
}

/// Run the stream on one context, folding every observation into `digests`.
fn drive(ctx: CcContext, digests: &mut [Fnv]) {
    let mut ccs = laws(ctx);
    let bottleneck = ctx.host_bw;
    let core = Bandwidth::gbps(100);
    let mut now = Tick::from_micros(100);
    let (mut tx0, mut tx1) = (0.0f64, 0.0f64);
    let mut ack_seq = 0u64;
    let mut k = 0u64;
    for seg in SEGMENTS {
        for i in 0..seg.acks {
            let x = i as f64 / seg.acks as f64;
            let gap = Tick::from_nanos(seg.gap_ns);
            now += gap;
            k += 1;
            let dt = gap.as_secs_f64();
            tx0 += seg.util * bottleneck.bytes_per_sec() * dt;
            tx1 += seg.util * 0.5 * core.bytes_per_sec() * dt;
            // Deterministic jitter, so gradients change sign.
            let jitter = ((k * 7_919) % 3_000) as f64;
            let q = seg.queue.0 + (seg.queue.1 - seg.queue.0) * x + jitter * 10.0;
            let rtt_ns = 1e3 * (seg.rtt_us.0 + (seg.rtt_us.1 - seg.rtt_us.0) * x) + jitter;
            let mut int = IntHeader::new();
            int.push(IntHop {
                qlen_bytes: q as u64,
                ts: now - Tick::from_micros(2),
                tx_bytes: tx0 as u64,
                bandwidth: bottleneck,
            });
            int.push(IntHop {
                qlen_bytes: (q / 8.0) as u64,
                ts: now - Tick::from_micros(1),
                tx_bytes: tx1 as u64,
                bandwidth: core,
            });
            ack_seq += seg.acked;
            let ack = AckInfo {
                now,
                ack_seq,
                newly_acked: seg.acked,
                snd_nxt: ack_seq + seg.inflight,
                rtt: Tick::from_nanos(rtt_ns as u64),
                // Every 50th ACK is a control packet without telemetry.
                int: (k % 50 != 7).then_some(&int),
                ecn_marked: seg.mark_every != 0 && k.is_multiple_of(seg.mark_every),
            };
            step(&mut ccs, digests, |cc| {
                cc.on_ack(&ack);
                None
            });
            if k.is_multiple_of(4) {
                step(&mut ccs, digests, |cc| cc.poll_timer(now));
            }
            if k % 211 == 100 {
                step(&mut ccs, digests, |cc| {
                    cc.on_loss(now, LossKind::Reorder);
                    None
                });
            }
            if k % 487 == 300 {
                step(&mut ccs, digests, |cc| {
                    cc.on_loss(now, LossKind::Timeout);
                    None
                });
            }
            if k % 173 == 20 || k % 173 == 120 {
                let signal = NetSignal::Circuit {
                    up: k % 173 == 20,
                    bandwidth: core,
                };
                step(&mut ccs, digests, |cc| {
                    cc.on_signal(now, signal);
                    None
                });
            }
        }
    }
}

#[test]
fn every_law_follows_its_pinned_trajectory() {
    let names = names();
    let mut digests: Vec<Fnv> = names.iter().map(|_| Fnv(0xcbf2_9ce4_8422_2325)).collect();
    // Many flows per NIC (a small β) lets the windows reach their floors;
    // few flows lets them reach their caps.
    for expected_flows in [256, 4] {
        let ctx = CcContext {
            base_rtt: Tick::from_micros(20),
            host_bw: Bandwidth::gbps(25),
            mtu: 1000,
            expected_flows,
        };
        drive(ctx, &mut digests);
    }
    let got: Vec<(&str, u64)> = names
        .iter()
        .map(String::as_str)
        .zip(digests.iter().map(|d| d.0))
        .collect();
    assert_eq!(got, EXPECTED, "a law's trajectory moved");
}

/// Taken from the laws while their parameters were still config-struct
/// defaults; the constants that replaced them must reproduce every bit.
const EXPECTED: [(&str, u64); 7] = [
    ("powertcp", 9915048454432671610),
    ("theta-powertcp", 15824202551895861589),
    ("hpcc", 17967967318521217729),
    ("dcqcn", 15124862163827007813),
    ("timely", 3633125445179015165),
    ("retcp", 8824097775454240713),
    ("newreno", 4578082194682728081),
];
