//! Workload generators: load-targeted Poisson flow arrivals and the
//! synthetic incast ("distributed file request") pattern of §4.1.

use crate::dist::SizeCdf;
use dcn_sim::{FlowId, NodeId};
use dcn_transport::FlowSpec;
use powertcp_core::{Bandwidth, Tick};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Host placement as the generators read it: host `i` (`i < count()`)
/// is node `host(i)` in rack `rack(i)`, and racks are numbered
/// `0..racks()`. [`incast_flows`] also needs the hosts numbered rack by
/// rack, `count() / racks()` to a rack.
pub trait Hosts {
    /// Number of hosts.
    fn count(&self) -> usize;
    /// Node id of host `i`.
    fn host(&self, i: usize) -> NodeId;
    /// Rack of host `i`.
    fn rack(&self, i: usize) -> usize;
    /// Number of racks.
    fn racks(&self) -> usize;
}

/// Host placement as explicit tables (index into `hosts` == host index
/// used by topology builders).
#[derive(Clone, Debug)]
pub struct HostMap {
    /// Host node ids, in host-index order.
    pub hosts: Vec<NodeId>,
    /// Rack (ToR index) of each host.
    pub rack_of: Vec<usize>,
}

impl Hosts for HostMap {
    fn count(&self) -> usize {
        self.hosts.len()
    }
    fn host(&self, i: usize) -> NodeId {
        self.hosts[i]
    }
    fn rack(&self, i: usize) -> usize {
        self.rack_of[i]
    }
    fn racks(&self) -> usize {
        self.rack_of.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// Configuration for Poisson background traffic at a target load.
#[derive(Clone, Debug)]
pub struct PoissonConfig {
    /// Target average load on the ToR uplinks, 0.0–1.0 (the paper sweeps
    /// 20%–95%).
    pub load: f64,
    /// Aggregate ToR uplink capacity of the whole fabric (n_tors ×
    /// per-ToR uplink bandwidth); offered inter-rack traffic targets
    /// `load × this`.
    pub fabric_uplink_capacity: Bandwidth,
    /// Flow-size distribution.
    pub sizes: SizeCdf,
    /// Generation horizon: flows start in [0, horizon).
    pub horizon: Tick,
    /// Only inter-rack pairs (traffic that actually crosses uplinks).
    pub inter_rack_only: bool,
    /// RNG seed.
    pub seed: u64,
    /// First flow id to assign (generators compose).
    pub first_flow_id: u64,
}

/// Generate Poisson flow arrivals hitting the target load.
pub fn poisson_flows(cfg: &PoissonConfig, map: &impl Hosts) -> Vec<FlowSpec> {
    assert!(
        cfg.load > 0.0 && cfg.load < 1.5,
        "implausible load {}",
        cfg.load
    );
    assert!(map.count() >= 2);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mean_size = cfg.sizes.mean();
    let bytes_per_sec = cfg.fabric_uplink_capacity.bytes_per_sec() * cfg.load;
    let flows_per_sec = bytes_per_sec / mean_size;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let horizon = cfg.horizon.as_secs_f64();
    let mut id = cfg.first_flow_id;
    loop {
        // Exponential inter-arrival via inverse transform.
        let u: f64 = rng.random::<f64>().max(1e-12);
        t += -u.ln() / flows_per_sec;
        if t >= horizon {
            break;
        }
        let src_idx = rng.random_range(0..map.count());
        let dst_idx = loop {
            let d = rng.random_range(0..map.count());
            if d == src_idx {
                continue;
            }
            if cfg.inter_rack_only && map.rack(d) == map.rack(src_idx) {
                continue;
            }
            break d;
        };
        out.push(FlowSpec {
            id: FlowId(id),
            src: map.host(src_idx),
            dst: map.host(dst_idx),
            size_bytes: cfg.sizes.sample(&mut rng).max(1),
            start: Tick::from_secs_f64(t),
        });
        id += 1;
    }
    out
}

/// Configuration for the synthetic incast workload (§4.1: "each server
/// requests a file from a set of servers chosen uniformly at random from a
/// different rack; all servers which receive the request respond at the
/// same time").
#[derive(Clone, Debug)]
pub struct IncastConfig {
    /// Requests per second across the fabric (paper Figure 7c/d sweeps
    /// 1–16).
    pub request_rate_per_sec: f64,
    /// Total response size per request (paper Figure 7e/f sweeps 1–8 MB).
    pub request_size_bytes: u64,
    /// Fan-in: number of responding servers per request.
    pub fan_in: usize,
    /// Generation horizon.
    pub horizon: Tick,
    /// RNG seed.
    pub seed: u64,
    /// First flow id to assign.
    pub first_flow_id: u64,
    /// Use periodic request arrivals instead of Poisson (deterministic
    /// incast pressure; the paper's generator fires at a fixed rate).
    pub periodic: bool,
}

/// Generate incast responder flows.
pub fn incast_flows(cfg: &IncastConfig, map: &impl Hosts) -> Vec<FlowSpec> {
    assert!(cfg.fan_in >= 1);
    let (n, racks) = (map.count(), map.racks());
    assert!(racks >= 2, "incast needs at least two racks");
    let per_rack = n / racks;
    assert_eq!(per_rack * racks, n, "incast needs racks of equal size");
    assert!(n - per_rack >= cfg.fan_in, "not enough remote hosts");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();
    let mut id = cfg.first_flow_id;
    let horizon = cfg.horizon.as_secs_f64();
    let per_flow = (cfg.request_size_bytes / cfg.fan_in as u64).max(1);
    let mut t = 0.0f64;
    loop {
        t += if cfg.periodic {
            1.0 / cfg.request_rate_per_sec
        } else {
            let u: f64 = rng.random::<f64>().max(1e-12);
            -u.ln() / cfg.request_rate_per_sec
        };
        if t >= horizon {
            break;
        }
        let requester = rng.random_range(0..n);
        let req_rack = map.rack(requester);
        // Responders: uniform from hosts in other racks, distinct. The
        // remote hosts, in index order, skip the requester's rack.
        let skip = req_rack * per_rack;
        let mut chosen = Vec::with_capacity(cfg.fan_in);
        while chosen.len() < cfg.fan_in {
            let c = rng.random_range(0..n - per_rack);
            let c = if c < skip { c } else { c + per_rack };
            assert_ne!(map.rack(c), req_rack, "hosts are numbered rack by rack");
            if !chosen.contains(&c) {
                chosen.push(c);
            }
        }
        let start = Tick::from_secs_f64(t);
        for c in chosen {
            out.push(FlowSpec {
                id: FlowId(id),
                src: map.host(c),
                dst: map.host(requester),
                size_bytes: per_flow,
                start,
            });
            id += 1;
        }
    }
    out
}

/// Flow-size classes used throughout the paper's FCT figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SizeClass {
    /// < 10 KB ("short flows", Figure 6/7a).
    Short,
    /// 10 KB – 100 KB.
    SmallMedium,
    /// 100 KB – 1 MB ("medium", §4.2).
    Medium,
    /// ≥ 1 MB ("long flows", Figure 7b).
    Long,
}

/// Classify a flow size per the paper's buckets.
pub fn size_class(bytes: u64) -> SizeClass {
    if bytes < 10_000 {
        SizeClass::Short
    } else if bytes < 100_000 {
        SizeClass::SmallMedium
    } else if bytes < 1_000_000 {
        SizeClass::Medium
    } else {
        SizeClass::Long
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_two_racks(hosts_per_rack: usize) -> HostMap {
        let n = hosts_per_rack * 2;
        HostMap {
            hosts: (0..n).map(|i| NodeId(i as u32)).collect(),
            rack_of: (0..n).map(|i| i / hosts_per_rack).collect(),
        }
    }

    #[test]
    fn poisson_load_targets_offered_bytes() {
        let map = map_two_racks(16);
        let cfg = PoissonConfig {
            load: 0.6,
            fabric_uplink_capacity: Bandwidth::gbps(400),
            sizes: SizeCdf::websearch(),
            horizon: Tick::from_millis(200),
            inter_rack_only: true,
            seed: 42,
            first_flow_id: 0,
        };
        let flows = poisson_flows(&cfg, &map);
        let total: u64 = flows.iter().map(|f| f.size_bytes).sum();
        let offered = total as f64 / 0.2; // bytes/sec
        let target = Bandwidth::gbps(400).bytes_per_sec() * 0.6;
        assert!(
            (offered - target).abs() / target < 0.15,
            "offered {offered:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn poisson_inter_rack_only_respected() {
        let map = map_two_racks(8);
        let cfg = PoissonConfig {
            load: 0.4,
            fabric_uplink_capacity: Bandwidth::gbps(100),
            sizes: SizeCdf::websearch(),
            horizon: Tick::from_millis(50),
            inter_rack_only: true,
            seed: 1,
            first_flow_id: 0,
        };
        for f in poisson_flows(&cfg, &map) {
            let s = map.rack_of[f.src.0 as usize];
            let d = map.rack_of[f.dst.0 as usize];
            assert_ne!(s, d, "flow {f:?} is intra-rack");
        }
    }

    #[test]
    fn poisson_starts_sorted_within_horizon_and_unique_ids() {
        let map = map_two_racks(8);
        let cfg = PoissonConfig {
            load: 0.5,
            fabric_uplink_capacity: Bandwidth::gbps(200),
            sizes: SizeCdf::websearch(),
            horizon: Tick::from_millis(20),
            inter_rack_only: false,
            seed: 5,
            first_flow_id: 100,
        };
        let flows = poisson_flows(&cfg, &map);
        assert!(!flows.is_empty());
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(flows.iter().all(|f| f.start < cfg.horizon));
        let mut ids: Vec<u64> = flows.iter().map(|f| f.id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), flows.len());
        assert_eq!(ids[0], 100);
    }

    #[test]
    fn incast_fan_in_and_rack_separation() {
        let map = map_two_racks(20);
        let cfg = IncastConfig {
            request_rate_per_sec: 1000.0,
            request_size_bytes: 2_000_000,
            fan_in: 8,
            horizon: Tick::from_millis(10),
            seed: 3,
            first_flow_id: 0,
            periodic: true,
        };
        let flows = incast_flows(&cfg, &map);
        // 10 requests (1/ms for 10ms) x 8 responders.
        assert_eq!(flows.len(), 9 * 8, "9 full periods fit below horizon");
        // Group by start time: each group has fan_in flows to one dst.
        for chunk in flows.chunks(8) {
            let dst = chunk[0].dst;
            assert!(chunk.iter().all(|f| f.dst == dst));
            assert!(chunk.iter().all(|f| f.size_bytes == 250_000));
            let dst_rack = map.rack_of[dst.0 as usize];
            for f in chunk {
                assert_ne!(map.rack_of[f.src.0 as usize], dst_rack);
            }
            // Responders distinct.
            let mut srcs: Vec<_> = chunk.iter().map(|f| f.src).collect();
            srcs.sort();
            srcs.dedup();
            assert_eq!(srcs.len(), 8);
        }
    }

    /// The responder draw as it was before it became arithmetic: every
    /// remote host listed for each request. The oracle for
    /// [`incast_flows`].
    fn incast_by_candidate_list(cfg: &IncastConfig, map: &HostMap) -> Vec<FlowSpec> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut out = Vec::new();
        let mut id = cfg.first_flow_id;
        let horizon = cfg.horizon.as_secs_f64();
        let per_flow = (cfg.request_size_bytes / cfg.fan_in as u64).max(1);
        let mut t = 0.0f64;
        loop {
            t += if cfg.periodic {
                1.0 / cfg.request_rate_per_sec
            } else {
                let u: f64 = rng.random::<f64>().max(1e-12);
                -u.ln() / cfg.request_rate_per_sec
            };
            if t >= horizon {
                break;
            }
            let requester = rng.random_range(0..map.hosts.len());
            let req_rack = map.rack_of[requester];
            let candidates: Vec<usize> = (0..map.hosts.len())
                .filter(|&h| map.rack_of[h] != req_rack)
                .collect();
            let mut chosen = Vec::with_capacity(cfg.fan_in);
            while chosen.len() < cfg.fan_in {
                let c = candidates[rng.random_range(0..candidates.len())];
                if !chosen.contains(&c) {
                    chosen.push(c);
                }
            }
            let start = Tick::from_secs_f64(t);
            for c in chosen {
                out.push(FlowSpec {
                    id: FlowId(id),
                    src: map.hosts[c],
                    dst: map.hosts[requester],
                    size_bytes: per_flow,
                    start,
                });
                id += 1;
            }
        }
        out
    }

    #[test]
    fn incast_draws_match_the_candidate_list() {
        // (racks, hosts per rack, fan-in): the fat-tree's 8 racks, a
        // star's one-host racks and the dumbbell's two sides, each up to
        // every remote host.
        for (racks, per_rack, fan_in) in
            [(8, 2, 4), (8, 2, 14), (16, 1, 15), (2, 4, 4), (8, 32, 64)]
        {
            let n = racks * per_rack;
            // Node ids start past the switches, as every topology's do.
            let map = HostMap {
                hosts: (0..n).map(|i| NodeId(5 + i as u32)).collect(),
                rack_of: (0..n).map(|i| i / per_rack).collect(),
            };
            for (seed, periodic) in [(1, true), (2, false), (3, false)] {
                let cfg = IncastConfig {
                    request_rate_per_sec: 2_000.0,
                    request_size_bytes: 1_000_000,
                    fan_in,
                    horizon: Tick::from_millis(20),
                    seed,
                    first_flow_id: 9,
                    periodic,
                };
                let want = incast_by_candidate_list(&cfg, &map);
                assert!(want.len() >= 20 * fan_in, "{} flows", want.len());
                assert_eq!(
                    incast_flows(&cfg, &map),
                    want,
                    "{racks}x{per_rack}/{fan_in}"
                );
            }
        }
    }

    #[test]
    fn size_classes_match_paper_buckets() {
        assert_eq!(size_class(5_000), SizeClass::Short);
        assert_eq!(size_class(9_999), SizeClass::Short);
        assert_eq!(size_class(50_000), SizeClass::SmallMedium);
        assert_eq!(size_class(400_000), SizeClass::Medium);
        assert_eq!(size_class(30_000_000), SizeClass::Long);
    }

    #[test]
    fn generators_are_deterministic() {
        let map = map_two_racks(8);
        let cfg = PoissonConfig {
            load: 0.3,
            fabric_uplink_capacity: Bandwidth::gbps(100),
            sizes: SizeCdf::websearch(),
            horizon: Tick::from_millis(20),
            inter_rack_only: true,
            seed: 77,
            first_flow_id: 0,
        };
        assert_eq!(poisson_flows(&cfg, &map), poisson_flows(&cfg, &map));
    }
}
