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

use crate::engine::{self, FctReduction, HostRange, PointOutcome};
use crate::spec::{SweepBody, TopologySpec};
use crate::sweep::SweepPoint;
use dcn_flow::{simulate, FlowNet, Flows, LinkId};
use dcn_sim::SimStats;
use dcn_transport::FlowSpec;
use dcn_workloads::Hosts;
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
    let plan = engine::plan(&sweep.topology, point.algo);
    let flows = engine::offered_flows(
        &sweep.topology,
        &sweep.workload,
        &plan,
        sweep.horizon(),
        point.load,
        point.seed,
    );
    let offered = flows.len();

    let (net, routes) = build_network(&sweep.topology, &plan, &flows);
    let run_end = sweep.run_end();
    let (results, fstats) = simulate(&net, &routes, run_end.as_secs_f64());

    // ---- Reduce. No switch buffers and no drops at this abstraction
    // level: the outcome keeps the reduction's empty `buffer` and zero
    // `drops`. A sample is as large as a `FlowResult`, so the collect
    // builds the samples in the results' own allocation instead of
    // holding a second per-flow buffer beside them.
    let mut fcts = FctReduction::new(point, &plan, run_end, offered);
    let samples = results
        .into_iter()
        .zip(&flows)
        .map(|(r, f)| {
            // First-byte delivery (half the ideal FCT's RTT) plus the
            // fair-share transfer time.
            let fct = r.finish_s.map(|finish| {
                fcts.ideal_rtt(f) / 2 + Tick::from_secs_f64(finish - f.start.as_secs_f64())
            });
            fcts.sample(f, fct)
        })
        .collect();
    let mut outcome = fcts.outcome;
    outcome.flows = samples;
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

/// Build the capacitated link set for a topology, and the offered flows
/// as [`simulate`] reads them.
///
/// Link layout (ids are assigned in this order so runs are reproducible
/// from the spec alone): host uplinks `0..n`, host downlinks `n..2n`,
/// then per-rack ToR uplinks and downlinks (fat-tree) or the two
/// bottleneck directions (dumbbell). Every link id is arithmetic on host
/// indices, so no path is stored.
fn build_network<'a>(
    topo: &TopologySpec,
    plan: &engine::Plan,
    flows: &'a [FlowSpec],
) -> (FlowNet, Routes<'a>) {
    let n = plan.map.count();
    let host_bytes = plan.host_bw.bytes_per_sec();
    let mut net = FlowNet::new();
    for _ in 0..2 * n {
        net.add_link(host_bytes);
    }
    let fabric = match *topo {
        TopologySpec::FatTree { .. } => {
            let racks = plan.map.racks();
            let rack_bytes = plan.capacity.bytes_per_sec() / racks as f64;
            for _ in 0..2 * racks {
                net.add_link(rack_bytes);
            }
            Fabric::Racks {
                up: (2 * n) as u32,
                down: (2 * n + racks) as u32,
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
    let routes = Routes {
        flows,
        hosts: plan.map,
        fabric,
    };
    (net, routes)
}

/// What a flow crosses between its source's and destination's racks.
enum Fabric {
    /// Rack `r`'s aggregate ToR uplink is link `up + r`, its downlink
    /// `down + r` (fat-tree).
    Racks { up: u32, down: u32 },
    /// Non-blocking hub (star).
    Hub,
    /// One capacitated link per direction (dumbbell).
    Bottleneck { lr: LinkId, rl: LinkId },
}

/// The offered flows with their paths computed on demand: source uplink,
/// destination downlink, then the fabric's links when the racks differ.
struct Routes<'a> {
    flows: &'a [FlowSpec],
    hosts: HostRange,
    fabric: Fabric,
}

impl Flows for Routes<'_> {
    fn count(&self) -> usize {
        self.flows.len()
    }
    fn seq(&self, i: usize) -> u64 {
        self.flows[i].id.0
    }
    fn size_bytes(&self, i: usize) -> u64 {
        self.flows[i].size_bytes
    }
    fn start_s(&self, i: usize) -> f64 {
        self.flows[i].start.as_secs_f64()
    }
    fn path(&self, i: usize, out: &mut Vec<LinkId>) {
        let f = &self.flows[i];
        let (src, dst) = (self.hosts.index_of(f.src), self.hosts.index_of(f.dst));
        out.push(LinkId(src as u32));
        out.push(LinkId((self.hosts.count + dst) as u32));
        let (rs, rd) = (self.hosts.rack(src), self.hosts.rack(dst));
        match self.fabric {
            Fabric::Racks { up, down } if rs != rd => {
                out.push(LinkId(up + rs as u32));
                out.push(LinkId(down + rd as u32));
            }
            Fabric::Bottleneck { lr, rl } if rs != rd => {
                out.push(if rs < rd { lr } else { rl });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algo;
    use crate::spec::{EngineKind, IncastSpec, ParamSpec, ScenarioSpec, SizeSpec};
    use dcn_workloads::HostMap;

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
        let (packet_out, _) =
            engine::run_sweep_point_observed(&spec, &point(Algo::PowerTcp, 0.4, 3));
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
            let cfg = engine::fat_tree_config(&topo, Algo::PowerTcp);
            assert_eq!(topo.num_hosts(), cfg.num_hosts(), "{topo:?}");
            let plan = engine::plan(&topo, Algo::PowerTcp);
            // One flow each way between the first and the last host: host
            // `i`'s links are ids `i` and `n + i`, so these paths name
            // both ends of the host uplink and downlink runs.
            let n = plan.map.count();
            let (first, last) = (plan.map.host(0), plan.map.host(n - 1));
            let flows = [(first, last), (last, first)].map(|(src, dst)| FlowSpec {
                id: dcn_sim::FlowId(1),
                src,
                dst,
                size_bytes: 1,
                start: Tick::ZERO,
            });
            let (net, routes) = build_network(&topo, &plan, &flows);
            // Host up- and downlinks come first, then each rack's ToR
            // uplink, then each rack's ToR downlink.
            let tors = dcn_sim::topology::TORS;
            assert_eq!(net.num_links(), 2 * n + 2 * tors, "{topo:?}");
            let ids = |ls: [usize; 4]| ls.map(|l| LinkId(l as u32)).to_vec();
            let path = |i| {
                let mut path = Vec::new();
                routes.path(i, &mut path);
                path
            };
            assert_eq!(path(0), ids([0, 2 * n - 1, 2 * n, 2 * n + 2 * tors - 1]));
            assert_eq!(path(1), ids([n - 1, n, 2 * n + tors - 1, 2 * n + tors]));
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

    /// `build_network` as it was before paths were computed: one laid
    /// `Vec` per flow over the plan's host tables. The oracle for
    /// [`Routes`].
    fn laid_paths(
        topo: &TopologySpec,
        plan: &engine::Plan,
        map: &HostMap,
        flows: &[FlowSpec],
    ) -> (FlowNet, Vec<Vec<LinkId>>) {
        let n = map.hosts.len();
        let host_bytes = plan.host_bw.bytes_per_sec();
        let mut net = FlowNet::new();
        for _ in 0..2 * n {
            net.add_link(host_bytes);
        }
        enum Laid {
            Racks {
                tor_up: Vec<LinkId>,
                tor_down: Vec<LinkId>,
            },
            Hub,
            Bottleneck {
                lr: LinkId,
                rl: LinkId,
            },
        }
        let fabric = match *topo {
            TopologySpec::FatTree { .. } => {
                let racks = map.racks();
                let rack_bytes = plan.capacity.bytes_per_sec() / racks as f64;
                Laid::Racks {
                    tor_up: (0..racks).map(|_| net.add_link(rack_bytes)).collect(),
                    tor_down: (0..racks).map(|_| net.add_link(rack_bytes)).collect(),
                }
            }
            TopologySpec::Star { .. } => Laid::Hub,
            TopologySpec::Dumbbell {
                bottleneck_gbps, ..
            } => {
                let bn = crate::spec::gbps(bottleneck_gbps).bytes_per_sec();
                Laid::Bottleneck {
                    lr: net.add_link(bn),
                    rl: net.add_link(bn),
                }
            }
        };
        let index_of = |node: dcn_sim::NodeId| {
            map.hosts
                .binary_search(&node)
                .expect("flow endpoint is a planned host")
        };
        let paths = flows
            .iter()
            .map(|f| {
                let (src, dst) = (index_of(f.src), index_of(f.dst));
                let mut path = vec![LinkId(src as u32), LinkId((n + dst) as u32)];
                let (rs, rd) = (map.rack_of[src], map.rack_of[dst]);
                match &fabric {
                    Laid::Racks { tor_up, tor_down } if rs != rd => {
                        path.push(tor_up[rs]);
                        path.push(tor_down[rd]);
                    }
                    Laid::Bottleneck { lr, rl } if rs != rd => {
                        path.push(if rs < rd { *lr } else { *rl });
                    }
                    _ => {}
                }
                path
            })
            .collect();
        (net, paths)
    }

    /// Every flow's computed path is the `Vec` the laid tables gave it,
    /// on a star, a dumbbell and the builtins' three fat-tree shapes,
    /// over a Poisson population that mixes same-rack pairs and both
    /// directions; the two nets agree link for link.
    #[test]
    fn computed_paths_match_the_laid_paths() {
        let fat_tree = |hosts_per_tor, fabric_gbps| TopologySpec::FatTree {
            hosts_per_tor,
            host_gbps: 25.0,
            fabric_gbps,
        };
        for topo in [
            TopologySpec::Star {
                hosts: 8,
                host_gbps: 25.0,
            },
            TopologySpec::Dumbbell {
                pairs: 4,
                host_gbps: 25.0,
                bottleneck_gbps: 10.0,
            },
            fat_tree(2, 12.5),
            fat_tree(32, 100.0),
            fat_tree(12_500, 100.0),
        ] {
            let plan = engine::plan(&topo, Algo::PowerTcp);
            let map = engine::tests::laid_host_map(&topo);
            let flows = dcn_workloads::poisson_flows(
                &dcn_workloads::PoissonConfig {
                    load: 0.6,
                    fabric_uplink_capacity: plan.capacity,
                    sizes: dcn_workloads::SizeCdf::fixed(10_000),
                    horizon: Tick::from_millis(2),
                    inter_rack_only: false,
                    seed: 11,
                    first_flow_id: 1,
                },
                &map,
            );
            assert!(flows.len() >= 100, "{topo:?}: {} flows", flows.len());
            let (want_net, want) = laid_paths(&topo, &plan, &map, &flows);
            let (net, routes) = build_network(&topo, &plan, &flows);
            assert_eq!(routes.count(), want.len(), "{topo:?}");
            let mut path = Vec::new();
            let (mut same_rack, mut fabric) = (0, 0);
            for (i, want) in want.iter().enumerate() {
                path.clear();
                routes.path(i, &mut path);
                assert_eq!(&path, want, "{topo:?} flow {i}");
                if path.len() == 2 {
                    same_rack += 1;
                } else {
                    fabric += 1;
                }
            }
            if !matches!(topo, TopologySpec::Star { .. }) {
                assert!(
                    same_rack > 0 && fabric > 0,
                    "{topo:?}: {same_rack}/{fabric}"
                );
            }
            assert_eq!(net.num_links(), want_net.num_links(), "{topo:?}");
            for l in (0..net.num_links()).map(|l| LinkId(l as u32)) {
                assert_eq!(net.capacity(l), want_net.capacity(l), "{topo:?} {l:?}");
            }
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
