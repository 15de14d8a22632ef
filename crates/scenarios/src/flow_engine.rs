//! The flow-level sweep engine: `engine = "flow"` points run here.
//!
//! This is the `dcn-flow` adapter — it reuses the packet engine's
//! topology [`plan`](crate::engine::plan) and workload generation
//! ([`crate::engine::offered_flows`]) verbatim, so a flow-engine sweep
//! offers the *exact same flow population* as its packet twin, then
//! progresses those flows with max-min fair water-filling instead of
//! per-packet simulation. The reduction (slowdown, censoring) is the
//! packet engine's own ([`engine::FctReduction`]), so the same
//! [`crate::SweepResult`] rows come out.
//!
//! ## Path model (the fidelity envelope)
//!
//! The abstract link set keeps exactly the capacities that bound
//! steady-state throughput:
//!
//! * every host NIC, in both directions (`host_bw` each way);
//! * **fat-tree**: one aggregate up- and one aggregate downlink per ToR,
//!   each an equal share of the plan's load denominator
//!   (`FatTreeConfig::uplink_capacity`): `fabric_bw × AGGS_PER_POD`, the
//!   rack's total fabric capacity. The agg/core layers are treated as
//!   non-blocking (per-path ECMP imbalance is averaged away), which is
//!   the standard flow-model simplification;
//! * **star**: NICs only (the hub is non-blocking);
//! * **dumbbell**: NICs plus one capacitated link per bottleneck
//!   direction.
//!
//! What the flow abstraction drops is transport dynamics: no slow
//! start, no CC law, no switch buffers, drops, or PFC. Rates converge
//! instantly to the fair share, so flow-engine slowdowns are an ideal
//! lower envelope of packet-engine slowdowns — the cross-check test
//! (`flow_determinism.rs`) pins that band. Per-packet knobs (the
//! `params` axis' γ/N/η/α overrides) don't exist at this level: the
//! spec layer rejects them for flow sweeps. Buffer-occupancy samples
//! come back empty and drops are zero by construction.

use crate::engine::{self, FctReduction, PointOutcome};
use crate::spec::{SweepBody, TopologySpec};
use crate::sweep::SweepPoint;
use dcn_flow::{simulate, FlowDef, FlowNet, LinkId};
use dcn_sim::{NodeId, SimStats};
use dcn_transport::FlowSpec;
use dcn_workloads::HostMap;
use powertcp_core::Tick;
use std::time::Instant;

/// Run one flow-engine sweep point. Deterministic: identical arguments
/// replay bit-for-bit on any thread or process layout.
pub(crate) fn run_flow_point_observed(
    sweep: &SweepBody,
    point: &SweepPoint,
) -> (PointOutcome, SimStats) {
    #[expect(
        clippy::disallowed_methods,
        reason = "executor span timing — observability only, never in report bytes"
    )]
    let t0 = Instant::now();
    let mut plan = engine::plan(&sweep.topology, point.algo);
    let flows = engine::offered_flows(
        &sweep.topology,
        &sweep.workload,
        &plan,
        sweep.horizon(),
        point.load,
        point.seed,
    );
    let offered = flows.len();

    let (net, defs) = build_network(&sweep.topology, &plan, &flows);
    // The host map is the point's only per-host state; the paths are
    // laid, so nothing reads it again.
    plan.map = HostMap {
        hosts: Vec::new(),
        rack_of: Vec::new(),
    };
    let run_end = sweep.run_end();
    let (results, fstats) = simulate(&net, &defs, run_end.as_secs_f64());
    drop((net, defs));

    // ---- Reduce. No switch buffers and no drops at this abstraction
    // level: the outcome keeps the reduction's empty `buffer` and zero
    // `drops`.
    let mut fcts = FctReduction::new(point, &plan, run_end, offered);
    for (f, r) in flows.iter().zip(&results) {
        // First-byte delivery (half the ideal FCT's RTT) plus the
        // fair-share transfer time.
        let fct = r.finish_s.map(|finish| {
            fcts.ideal_rtt(f) / 2 + Tick::from_secs_f64(finish - f.start.as_secs_f64())
        });
        fcts.push(f, fct);
    }
    let outcome = fcts.outcome;
    // Observability sidecar (never a report input): map the flow
    // engine's counters onto the shared SimStats shape — events are
    // allocation events, `delivered` is completed flows.
    let stats = SimStats {
        events_processed: fstats.events,
        events_scheduled: fstats.events,
        delivered: fstats.completed,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        ..SimStats::default()
    };
    (outcome, stats)
}

/// Build the capacitated link set and per-flow paths for a topology.
///
/// Link layout (ids are assigned in this order so runs are reproducible
/// from the spec alone): host uplinks `0..n`, host downlinks `n..2n`,
/// then per-rack ToR uplinks/downlinks (fat-tree) or the two bottleneck
/// directions (dumbbell). Host `i`'s links are therefore ids `i` and
/// `n + i`, with no table.
fn build_network(
    topo: &TopologySpec,
    plan: &engine::Plan,
    flows: &[FlowSpec],
) -> (FlowNet, Vec<FlowDef>) {
    let n = plan.map.hosts.len();
    let host_bytes = plan.host_bw.bytes_per_sec();
    let mut net = FlowNet::new();
    for _ in 0..2 * n {
        net.add_link(host_bytes);
    }
    enum Fabric {
        /// Per-rack aggregate ToR up/downlinks (fat-tree).
        Racks {
            tor_up: Vec<LinkId>,
            tor_down: Vec<LinkId>,
        },
        /// Non-blocking hub (star).
        Hub,
        /// One capacitated link per direction (dumbbell).
        Bottleneck { lr: LinkId, rl: LinkId },
    }
    let fabric = match *topo {
        TopologySpec::FatTree { .. } => {
            let racks = plan.map.num_racks();
            let rack_bytes = plan.capacity.bytes_per_sec() / racks as f64;
            Fabric::Racks {
                tor_up: (0..racks).map(|_| net.add_link(rack_bytes)).collect(),
                tor_down: (0..racks).map(|_| net.add_link(rack_bytes)).collect(),
            }
        }
        TopologySpec::Star { .. } => Fabric::Hub,
        TopologySpec::Dumbbell {
            bottleneck_gbps, ..
        } => {
            let bn = crate::spec::gbps(bottleneck_gbps).bytes_per_sec();
            Fabric::Bottleneck {
                lr: net.add_link(bn),
                rl: net.add_link(bn),
            }
        }
    };
    // Every plan numbers its hosts in ascending node-id order, so the
    // host list is its own index (a miss or an unsorted list panics; it
    // cannot resolve to the wrong host).
    let index_of = |node: NodeId| {
        plan.map
            .hosts
            .binary_search(&node)
            .expect("flow endpoint is a planned host")
    };
    let defs = flows
        .iter()
        .map(|f| {
            let (src, dst) = (index_of(f.src), index_of(f.dst));
            let mut path = vec![LinkId(src as u32), LinkId((n + dst) as u32)];
            let (rs, rd) = (plan.map.rack_of[src], plan.map.rack_of[dst]);
            match &fabric {
                Fabric::Racks { tor_up, tor_down } if rs != rd => {
                    path.push(tor_up[rs]);
                    path.push(tor_down[rd]);
                }
                Fabric::Bottleneck { lr, rl } if rs != rd => {
                    path.push(if rs < rd { *lr } else { *rl });
                }
                _ => {}
            }
            FlowDef {
                seq: f.id.0,
                size_bytes: f.size_bytes,
                start_s: f.start.as_secs_f64(),
                path,
            }
        })
        .collect();
    (net, defs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algo;
    use crate::spec::{EngineKind, IncastSpec, ParamSpec, ScenarioSpec, SizeSpec};

    fn run_flow_point_observed(
        spec: &ScenarioSpec,
        point: &SweepPoint,
    ) -> (PointOutcome, SimStats) {
        super::run_flow_point_observed(spec.sweep_body("the flow engine"), point)
    }

    fn flow_spec(topology: TopologySpec) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("flow-test", topology)
            .poisson(SizeSpec::Websearch)
            .horizon_ms(2.0)
            .drain_ms(4.0);
        let sweep = spec.sweep_mut("test");
        sweep.engine = EngineKind::Flow;
        sweep.sweep.loads = vec![0.4];
        spec
    }

    fn point(algo: Algo, load: f64, seed: u64) -> SweepPoint {
        SweepPoint {
            index: 0,
            algo,
            param: ParamSpec::default(),
            load,
            seed,
        }
    }

    #[test]
    fn flow_point_completes_on_every_topology() {
        for topo in [
            TopologySpec::FatTree {
                hosts_per_tor: 2,
                host_gbps: 25.0,
                fabric_gbps: 12.5,
            },
            TopologySpec::Star {
                hosts: 8,
                host_gbps: 25.0,
            },
            TopologySpec::Dumbbell {
                pairs: 4,
                host_gbps: 25.0,
                bottleneck_gbps: 25.0,
            },
        ] {
            let mut spec = flow_spec(topo);
            if matches!(topo, TopologySpec::Dumbbell { .. }) {
                // A 25G bottleneck offers < 1 websearch-sized flow per
                // 2 ms horizon; use fixed 40 KB flows (as the packet
                // engine's dumbbell test does) to get a population.
                spec = spec.poisson(SizeSpec::Fixed(40_000));
            }
            let (out, stats) = run_flow_point_observed(&spec, &point(Algo::PowerTcp, 0.4, 7));
            assert!(out.offered > 5, "offered {}", out.offered);
            assert!(
                out.completed as f64 >= 0.9 * out.offered as f64,
                "completed {}/{}",
                out.completed,
                out.offered
            );
            assert!(out.buffer.is_empty(), "flow engine has no buffer samples");
            assert_eq!(out.drops, 0);
            assert!(stats.events_processed > 0);
            // Slowdowns are well-formed: >= 1 by construction.
            assert!(out.flows.iter().all(|&(_, s)| s >= 1.0));
        }
    }

    #[test]
    fn flow_points_replay_bit_for_bit() {
        let spec = flow_spec(TopologySpec::Star {
            hosts: 8,
            host_gbps: 25.0,
        });
        let a = run_flow_point_observed(&spec, &point(Algo::PowerTcp, 0.4, 17)).0;
        let b = run_flow_point_observed(&spec, &point(Algo::PowerTcp, 0.4, 17)).0;
        assert_eq!(a, b);
    }

    #[test]
    fn same_flow_population_as_the_packet_engine() {
        // The whole cross-check rests on this: both engines must offer
        // identical flows for identical (spec-physics, load, seed).
        let mut spec = flow_spec(TopologySpec::FatTree {
            hosts_per_tor: 2,
            host_gbps: 25.0,
            fabric_gbps: 12.5,
        });
        spec.sweep_mut("test").workload.incast = Some(IncastSpec {
            rate_per_sec: 8_000.0,
            request_bytes: 100_000,
            fan_in: 4,
            periodic: false,
        });
        let (flow_out, _) = run_flow_point_observed(&spec, &point(Algo::PowerTcp, 0.4, 3));
        spec.sweep_mut("test").engine = EngineKind::Packet;
        let packet_out = engine::run_point(&spec, Algo::PowerTcp, 0.4, 3);
        assert_eq!(flow_out.offered, packet_out.offered);
        // Same flows means the same sizes, even though the slowdown
        // values differ.
        let sizes = |o: &PointOutcome| {
            let mut sizes: Vec<u64> = o.flows.iter().map(|&(size, _)| size).collect();
            sizes.sort_unstable();
            sizes
        };
        assert_eq!(sizes(&flow_out), sizes(&packet_out));
    }

    #[test]
    fn dispatch_routes_flow_specs_through_run_sweep_point() {
        let spec = flow_spec(TopologySpec::Star {
            hosts: 8,
            host_gbps: 25.0,
        });
        let via_dispatch =
            engine::run_sweep_point_observed(&spec, &point(Algo::PowerTcp, 0.4, 17)).0;
        let direct = run_flow_point_observed(&spec, &point(Algo::PowerTcp, 0.4, 17)).0;
        assert_eq!(via_dispatch, direct);
    }

    /// The allocator's work at scale, which no report byte shows in full:
    /// `waterfill_rounds` is the round order in count form, and the hash
    /// covers every `finish_s` bit pattern (a censored flow hashes as
    /// `u64::MAX`). The values were written by the allocator that
    /// heapified every contended link on every run. `waterfill_rounds`
    /// was 72,991 while a single-bottleneck fast path served 6 events;
    /// each of those is now one filling round, and the hash held.
    #[test]
    fn fattree_100k_smoke_allocator_work_is_pinned() {
        let spec = crate::library::builtin("fattree-100k-smoke").expect("a builtin");
        let sweep = spec.sweep_body("the flow engine");
        let p = point(Algo::PowerTcp, 0.6, 42);
        let plan = engine::plan(&sweep.topology, p.algo);
        let flows = engine::offered_flows(
            &sweep.topology,
            &sweep.workload,
            &plan,
            sweep.horizon(),
            p.load,
            p.seed,
        );
        let (net, defs) = build_network(&sweep.topology, &plan, &flows);
        let (results, stats) = simulate(&net, &defs, sweep.run_end().as_secs_f64());
        let fnv = (results.iter())
            .flat_map(|r| r.finish_s.map_or(u64::MAX, f64::to_bits).to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let want = dcn_flow::FlowStats {
            events: 2556,
            arrivals: 1278,
            completed: 1278,
            censored: 0,
            waterfill_rounds: 72_997,
        };
        assert_eq!((stats, fnv), (want, 0x063f_e70d_0aa6_7c8a));
    }

    /// The flow engine's ToR uplinks add up to the packet engine's load
    /// denominator, on the builtins' three fat-tree shapes: each rack
    /// gets `fabric_bw × AGGS_PER_POD`, and both sides are exact in `f64`.
    #[test]
    fn both_sweep_engines_see_one_fabric() {
        for (hosts_per_tor, fabric_gbps) in [(2, 12.5), (32, 100.0), (12_500, 100.0)] {
            let topo = TopologySpec::FatTree {
                hosts_per_tor,
                host_gbps: 25.0,
                fabric_gbps,
            };
            let cfg = engine::fat_tree_config(&topo, Algo::PowerTcp, ParamSpec::default());
            assert_eq!(topo.num_hosts(), cfg.num_hosts(), "{topo:?}");
            let plan = engine::plan(&topo, Algo::PowerTcp);
            // One flow each way between the first and the last host: host
            // `i`'s links are ids `i` and `n + i`, so these paths name
            // both ends of the host uplink and downlink runs.
            let (first, last) = (plan.map.hosts[0], *plan.map.hosts.last().unwrap());
            let flows = [(first, last), (last, first)].map(|(src, dst)| FlowSpec {
                id: dcn_sim::FlowId(1),
                src,
                dst,
                size_bytes: 1,
                start: Tick::ZERO,
            });
            let (net, defs) = build_network(&topo, &plan, &flows);
            // Host up- and downlinks come first, then each rack's ToR
            // uplink, then each rack's ToR downlink.
            let n = plan.map.hosts.len();
            let tors = dcn_sim::topology::TORS;
            assert_eq!(net.num_links(), 2 * n + 2 * tors, "{topo:?}");
            let ids = |ls: [usize; 4]| ls.map(|l| LinkId(l as u32)).to_vec();
            assert_eq!(
                defs[0].path,
                ids([0, 2 * n - 1, 2 * n, 2 * n + 2 * tors - 1])
            );
            assert_eq!(
                defs[1].path,
                ids([n - 1, n, 2 * n + tors - 1, 2 * n + tors])
            );
            let host_bytes = cfg.host_bw.bytes_per_sec();
            for l in [0, n - 1, n, 2 * n - 1] {
                assert_eq!(
                    net.capacity(LinkId(l as u32)),
                    host_bytes,
                    "{topo:?} link {l}"
                );
            }
            let racks = (2 * n..2 * n + tors).map(|l| LinkId(l as u32));
            let rack_bytes: Vec<f64> = racks.map(|l| net.capacity(l)).collect();
            let per_rack = cfg.fabric_bw.bytes_per_sec() * dcn_sim::topology::AGGS_PER_POD as f64;
            assert!(rack_bytes.iter().all(|&b| b == per_rack), "{topo:?}");
            let total: f64 = rack_bytes.iter().sum();
            assert_eq!(plan.capacity.bps() as f64, 8.0 * total, "{topo:?}");
        }
    }

    #[test]
    fn heavier_load_means_worse_slowdowns() {
        let mut spec = flow_spec(TopologySpec::FatTree {
            hosts_per_tor: 4,
            host_gbps: 25.0,
            fabric_gbps: 25.0,
        });
        spec.sweep_mut("test").sweep.loads = vec![0.2, 0.9];
        let mean =
            |o: &PointOutcome| o.flows.iter().map(|f| f.1).sum::<f64>() / o.flows.len() as f64;
        let light = run_flow_point_observed(&spec, &point(Algo::PowerTcp, 0.2, 5)).0;
        let heavy = run_flow_point_observed(&spec, &point(Algo::PowerTcp, 0.9, 5)).0;
        assert!(
            mean(&heavy) > mean(&light),
            "contention must show up: {} vs {}",
            mean(&heavy),
            mean(&light)
        );
    }
}
