//! Quickstart: two PowerTCP flows over a dumbbell bottleneck.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 2-pair dumbbell (25 G hosts, 25 G bottleneck), runs two 2 MB
//! PowerTCP flows through the full stack (INT-appending switches, windowed
//! go-back-N transport), and prints flow completion times plus bottleneck
//! queue statistics.

use dcn_sim::{
    build_dumbbell, queue_tracer, series, DumbbellConfig, Endpoint, FlowId, NodeId, Simulator,
};
use dcn_stats::slowdown;
use dcn_transport::{FlowSpec, MetricsHub, TransportConfig, TransportHost};
use powertcp_core::{Bandwidth, CongestionControl, PowerTcp, Tick, GAMMA};

fn main() {
    // Shared metrics hub: endpoints report completions here.
    let metrics = MetricsHub::new_shared();

    // Transport/CC parameters: τ is the topology's max base RTT.
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(12),
        expected_flows: 2,
        ..TransportConfig::default()
    };

    // Endpoint factory: senders are hosts 0..1 (node ids 2..3 — the two
    // switches come first), receivers 4..5.
    let m2 = metrics.clone();
    let mut mk = move |_id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let make_cc = {
            let tcfg = tcfg;
            move |_flow: FlowId, nic_bw: Bandwidth| -> Box<dyn CongestionControl> {
                Box::new(PowerTcp::new(GAMMA, tcfg.cc_context(nic_bw)))
            }
        };
        let mut host = TransportHost::new(tcfg, m2.clone(), Box::new(make_cc));
        if idx < 2 {
            host.add_flow(FlowSpec {
                id: FlowId(idx as u64 + 1),
                src: NodeId(2 + idx as u32),
                dst: NodeId(4 + idx as u32),
                size_bytes: 2_000_000,
                start: Tick::from_micros(idx as u64 * 50),
            });
        }
        Box::new(host)
    };

    let d = build_dumbbell(DumbbellConfig::default(), &mut mk);
    let bottleneck = (d.left, d.bottleneck_port);

    let mut sim = Simulator::new(d.net);
    let queue = series();
    sim.add_tracer(
        Tick::from_micros(10),
        queue_tracer(bottleneck.0, bottleneck.1, queue.clone()),
    );
    sim.run_until(Tick::from_millis(10));

    println!("PowerTCP quickstart — 2 x 2MB flows over a shared 25G bottleneck\n");
    let m = metrics.borrow();
    for rec in m.records() {
        let fct = rec.fct().expect("flow finished");
        let s = slowdown(
            fct,
            rec.spec.size_bytes,
            Tick::from_micros(12),
            Bandwidth::gbps(25),
        );
        println!(
            "flow {:?}: {} bytes, FCT {}, slowdown {:.2}",
            rec.spec.id, rec.spec.size_bytes, fct, s
        );
    }
    let q = queue.borrow();
    let avg = q.iter().map(|&(_, v)| v).sum::<f64>() / q.len() as f64;
    let peak = q.iter().map(|&(_, v)| v).fold(0.0, f64::max);
    println!(
        "\nbottleneck queue: avg {:.1} KB, peak {:.1} KB",
        avg / 1e3,
        peak / 1e3
    );
    println!("(PowerTCP's equilibrium queue is the aggregate additive increase β̂ — near zero)");
}
