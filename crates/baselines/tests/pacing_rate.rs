//! The INT laws' pacing rate is a function of their window: PowerTCP,
//! θ-PowerTCP (through the window it shares with PowerTCP) and HPCC each
//! remember the rate of the last window they were asked about, and must
//! answer exactly what `rate_from_cwnd` computes from scratch, after every
//! ACK and every loss of any stream.

use cc_baselines::Hpcc;
use powertcp_core::{
    rate_from_cwnd, AckInfo, Bandwidth, CcContext, CongestionControl, IntHeader, IntHop, LossKind,
    PowerTcp, ThetaPowerTcp, Tick, GAMMA,
};
use proptest::prelude::*;

/// One event, decoded from raw draws: an ACK (with or without INT, on a
/// path of one to three hops whose counters and queues move) or a loss.
fn events() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
    prop::collection::vec((0u8..=255, 0u64..u64::MAX, 0u64..u64::MAX), 1..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pacing_rate_is_rate_from_cwnd_after_every_event(
        rtt_us in 2u64..200,
        gbps in 0usize..4,
        flows in 1u32..64,
        stream in events(),
    ) {
        let ctx = CcContext {
            base_rtt: Tick::from_micros(rtt_us),
            host_bw: [10, 25, 40, 100].map(Bandwidth::gbps)[gbps],
            mtu: 1000,
            expected_flows: flows,
        };
        let mut laws: Vec<Box<dyn CongestionControl>> = vec![
            Box::new(PowerTcp::new(GAMMA, ctx)),
            Box::new(ThetaPowerTcp::new(GAMMA, ctx)),
            Box::new(Hpcc::new(ctx)),
        ];
        let (mut now, mut seq, mut tx) = (Tick::from_micros(100), 0u64, [0u64; 3]);
        for (step, (op, a, b)) in stream.into_iter().enumerate() {
            match op % 8 {
                0 => laws.iter_mut().for_each(|cc| cc.on_loss(now, LossKind::Timeout)),
                1 => laws.iter_mut().for_each(|cc| cc.on_loss(now, LossKind::Reorder)),
                _ => {
                    // 0–5 µs on: a zero gap leaves every hop's Δt zero.
                    now += Tick::from_nanos(a % 5_000);
                    seq += 1_000;
                    let mut int = IntHeader::new();
                    for (h, sent) in tx.iter_mut().enumerate().take(1 + op as usize / 8 % 3) {
                        *sent += (b >> (8 * h)) % 70_000;
                        int.push(IntHop {
                            qlen_bytes: (a >> (16 + 8 * h)) % 3_000_000,
                            ts: now,
                            tx_bytes: *sent,
                            bandwidth: Bandwidth::gbps(if h == 1 { 25 } else { 100 }),
                        });
                    }
                    let ack = AckInfo {
                        now,
                        ack_seq: seq,
                        newly_acked: 1_000,
                        snd_nxt: seq + b % 200_000,
                        rtt: ctx.base_rtt + Tick::from_nanos(b >> 40 & 0x3_ffff),
                        int: (op / 32 != 0).then_some(&int),
                        ecn_marked: op & 1 == 1,
                    };
                    laws.iter_mut().for_each(|cc| cc.on_ack(&ack));
                }
            }
            for cc in &laws {
                let want = rate_from_cwnd(cc.cwnd(), ctx.base_rtt, ctx.host_bw);
                // Twice: the second call answers from what the first kept.
                for _ in 0..2 {
                    prop_assert_eq!(cc.pacing_rate(), want, "{} at event {}", cc.name(), step);
                }
            }
        }
    }
}
