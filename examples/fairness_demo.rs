//! Fairness demo: four θ-PowerTCP flows joining a 25 G bottleneck at 1 ms
//! intervals (the Figure 5 scenario) — prints the per-flow rate matrix.
//!
//! ```sh
//! cargo run --release --example fairness_demo
//! ```

use dcn_sim::{
    build_star, host_throughput_tracer, series, Endpoint, FlowId, NodeId, Simulator, SwitchConfig,
};
use dcn_stats::jain_index;
use dcn_transport::{FlowSpec, MetricsHub, TransportConfig, TransportHost};
use powertcp_core::{Bandwidth, CongestionControl, ThetaPowerTcp, Tick, GAMMA};

fn main() {
    let metrics = MetricsHub::new_shared();
    let base_rtt = Tick::from_micros(8);
    let tcfg = TransportConfig {
        base_rtt,
        expected_flows: 4,
        ..TransportConfig::default()
    };
    let receiver = NodeId(1);
    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let make_cc = move |_f: FlowId, nic: Bandwidth| -> Box<dyn CongestionControl> {
            Box::new(ThetaPowerTcp::new(GAMMA, tcfg.cc_context(nic)))
        };
        let mut host = TransportHost::new(tcfg, m2.clone(), Box::new(make_cc));
        if idx >= 1 {
            host.add_flow(FlowSpec {
                id: FlowId(idx as u64),
                src: id,
                dst: receiver,
                size_bytes: 30_000_000,
                start: Tick::from_millis(idx as u64 - 1),
            });
        }
        Box::new(host)
    };
    let star = build_star(
        5,
        Bandwidth::gbps(25),
        Tick::from_micros(1),
        SwitchConfig::default(),
        &mut mk,
    );
    let senders: Vec<NodeId> = (2..=5).map(NodeId).collect();
    let mut sim = Simulator::new(star.net);
    let handles: Vec<_> = senders.iter().map(|_| series()).collect();
    for (s, h) in senders.iter().zip(&handles) {
        sim.add_tracer(
            Tick::from_micros(100),
            host_throughput_tracer(*s, h.clone()),
        );
    }
    sim.run_until(Tick::from_millis(6));

    println!("θ-PowerTCP fairness: flows join at t = 0, 1, 2, 3 ms\n");
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "time (ms)", "flow1", "flow2", "flow3", "flow4", "Jain"
    );
    let f0 = handles[0].borrow();
    for (i, &(t, _)) in f0.iter().enumerate() {
        if i % 5 != 0 {
            continue;
        }
        let rates: Vec<f64> = handles
            .iter()
            .map(|h| h.borrow().get(i).map(|&(_, v)| v).unwrap_or(0.0))
            .collect();
        let active: Vec<f64> = rates.iter().copied().filter(|&r| r > 0.05).collect();
        let jain = jain_index(&active).unwrap_or(1.0);
        println!(
            "{:>10.1} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.3}",
            t.as_millis_f64(),
            rates[0],
            rates[1],
            rates[2],
            rates[3],
            jain
        );
    }
    println!(
        "\nExpected shape (paper Fig. 5c): each join re-divides the bottleneck \
         evenly within\na few RTTs — 25 → 12.5 → 8.3 → 6.25 Gbps with Jain ≈ 1."
    );
}
