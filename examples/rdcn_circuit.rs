//! Reconfigurable datacenter demo: PowerTCP riding a rotor-scheduled
//! optical circuit (the §5 case study, self-contained).
//!
//! ```sh
//! cargo run --release --example rdcn_circuit
//! ```
//!
//! Four hosts in rack 0 send to rack 1. Once per "week" the rotor switch
//! connects the two racks with a 100 G circuit for a 225 µs "day"; the
//! rest of the time traffic shares a 25 G packet path. Watch PowerTCP
//! discover and fill the circuit within an RTT of each day starting.

use dcn_sim::{series, Simulator};
use dcn_transport::{CcFactory, MetricsHub, TransportConfig};
use powertcp_core::{CongestionControl, PowerTcp, Tick, GAMMA};
use rdcn::{build_rack_pair, RdcnConfig, RotorSchedule};

fn main() {
    let cfg = RdcnConfig {
        schedule: RotorSchedule {
            n_tors: 6,
            day: Tick::from_micros(225),
            night: Tick::from_micros(20),
        },
        hosts_per_tor: 4,
        ..RdcnConfig::default()
    };
    let schedule = cfg.schedule;
    let metrics = MetricsHub::new_shared();
    let tcfg = TransportConfig {
        base_rtt: cfg.base_rtt(),
        rto: Tick::from_micros(2000),
        expected_flows: 1,
        ..TransportConfig::default()
    };
    let mut make_cc = || -> CcFactory {
        Box::new(move |_f, nic| -> Box<dyn CongestionControl> {
            Box::new(PowerTcp::new(GAMMA, tcfg.cc_context(nic)))
        })
    };
    let r = build_rack_pair(cfg, &metrics, tcfg, 50_000_000, &mut make_cc);
    let tor0 = r.tors[0];
    let gauge = r.voq_gauges[0].clone();
    let hpt = r.cfg.hosts_per_tor;

    let mut sim = Simulator::new(r.net);
    let thr = series();
    {
        let thr = thr.clone();
        let mut last: Option<(Tick, u64)> = None;
        sim.add_tracer(Tick::from_micros(25), move |net, now| {
            if let dcn_sim::Node::Custom(c) = net.node(tor0) {
                let total = c.ports[hpt].tx_bytes + c.ports[hpt + 1].tx_bytes;
                if let Some((t0, b0)) = last {
                    let dt = now.saturating_sub(t0).as_secs_f64();
                    if dt > 0.0 {
                        thr.borrow_mut()
                            .push((now, (total - b0) as f64 * 8.0 / dt / 1e9));
                    }
                }
                last = Some((now, total));
            }
        });
    }
    let voq = series();
    {
        let voq = voq.clone();
        sim.add_tracer(Tick::from_micros(25), move |_net, now| {
            let v = gauge.borrow().get(1).copied().unwrap_or(0);
            voq.borrow_mut().push((now, v as f64));
        });
    }
    // Two weeks of the 6-ToR schedule.
    let horizon = Tick::from_ps(schedule.week().as_ps() * 2);
    sim.run_until(horizon);

    println!("rack-0 → rack-1 egress over two rotor weeks (day = circuit up):\n");
    println!(
        "{:>10} {:>12} {:>10} phase",
        "time (us)", "Gbps", "VOQ (KB)"
    );
    for (i, &(t, g)) in thr.borrow().iter().enumerate() {
        if i % 8 != 0 {
            continue;
        }
        let v = voq
            .borrow()
            .iter()
            .find(|(tv, _)| *tv >= t)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        let up = schedule.circuit_up(0, 1, t);
        println!(
            "{:>10.0} {:>12.1} {:>10.1} {}",
            t.as_micros_f64(),
            g,
            v / 1e3,
            if up { "DAY  ████" } else { "night" }
        );
    }
    println!(
        "\nExpected shape (paper Fig. 8a): ~100 Gbps during the rack pair's day, \
         ~25 Gbps otherwise,\nwith the VOQ staying near zero — high circuit \
         utilization without prebuffering latency."
    );
}
