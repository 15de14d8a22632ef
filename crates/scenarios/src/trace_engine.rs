//! The trace engine: run one `timeseries` scenario entry as an
//! instrumented simulation, sampling probes into ring-buffered telemetry
//! channels.
//!
//! The paper's temporal figures (fig4/fig5/fig8 and the HOMA traces of
//! fig9–11) run here: each
//! [`TraceScenario`] builds its fixture, registers `dcn-sim` probes
//! (switch queues, link TX counters, per-flow cwnd / pacing / PowerTCP Γ
//! via `Endpoint::cc_samples`) on the spec's tick grid, records into a
//! `dcn-telemetry` [`Recorder`], and reduces to scalar stats. One call to
//! [`run_trace_entry_observed`] is a pure function of `(timeseries, entry)` — the
//! property the executor ([`crate::sweep`]) relies on — so entries run in
//! parallel and the report is byte-identical at any thread count.

use crate::algo::Algo;
use crate::engine::EDGE_HOST_DELAY;
use crate::spec::{
    rotor_run_length, ParamSpec, TimeseriesBody, TraceScenario, FAIRNESS_STAGGER_MS, INCAST_AT_MS,
};
use dcn_sim::{
    build_star, cc_probe, host_throughput_probe, queue_probe, rate_probe, star_host_id,
    throughput_probe, Endpoint, FlowId, NodeId, PortId, Simulator,
};
use dcn_telemetry::{ChannelId, ChannelTrace, Recorder, SharedRecorder, TraceEntry};
use dcn_transport::{FlowSpec, MetricsHub, SharedMetrics, TransportConfig};
use powertcp_core::{Bandwidth, Tick};
use rdcn::{build_rack_pair, topology::CIRCUIT_BW, RdcnConfig, RotorSchedule};
use std::cell::RefCell;
use std::rc::Rc;

/// One entry of a timeseries lineup: an algorithm (plus, for the RDCN
/// scenario, a reTCP prebuffer) and its display label.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntrySpec {
    /// Position in the lineup (stable expansion order).
    pub index: usize,
    /// Display label ("PowerTCP-INT", "reTCP-600us", …).
    pub label: String,
    /// Algorithm under trace.
    pub algo: Algo,
    /// reTCP prebuffering (RDCN scenario only; zero elsewhere).
    pub prebuffer: Tick,
}

/// Expand a timeseries lineup into trace entries, in stable order:
/// algo-major, with reTCP expanding to one entry per configured prebuffer.
pub fn trace_entries(timeseries: &TimeseriesBody) -> Vec<TraceEntrySpec> {
    let mut out = Vec::new();
    let mut push = |label: String, algo: Algo, prebuffer: Tick| {
        out.push(TraceEntrySpec {
            index: out.len(),
            label,
            algo,
            prebuffer,
        });
    };
    let algos = &timeseries.lineup.algos;
    match &timeseries.trace {
        TraceScenario::Rdcn {
            retcp_prebuffer_us, ..
        } => {
            for &algo in algos {
                if algo == Algo::ReTcp {
                    for &us in retcp_prebuffer_us {
                        let prebuffer = Tick::from_secs_f64(us / 1e6);
                        push(format!("{}-{us}us", algo.name()), algo, prebuffer);
                    }
                } else {
                    push(algo.name(), algo, Tick::ZERO);
                }
            }
        }
        _ => {
            for &algo in algos {
                push(algo.name(), algo, Tick::ZERO);
            }
        }
    }
    out
}

/// Run one lineup entry and return it with the simulator's run
/// counters. Deterministic: identical arguments replay bit-for-bit, on
/// any thread. Panics if the `rdcn` weeks are more than `validate` takes.
pub fn run_trace_entry_observed(
    timeseries: &TimeseriesBody,
    entry: &TraceEntrySpec,
) -> (TraceEntry, dcn_sim::SimStats) {
    let ms = |ms: f64| Tick::from_secs_f64(ms / 1e3);
    let us = |us: f64| Tick::from_secs_f64(us / 1e6);
    match &timeseries.trace {
        TraceScenario::Incast {
            tick_us,
            fan_in,
            burst_bytes,
            horizon_ms,
        } => incast_trace(us(*tick_us), ms(*horizon_ms), entry, *fan_in, *burst_bytes),
        TraceScenario::Fairness {
            tick_us,
            flows,
            horizon_ms,
        } => fairness_trace(us(*tick_us), ms(*horizon_ms), entry, *flows),
        TraceScenario::Rdcn {
            tick_us,
            weeks,
            packet_gbps,
            ..
        } => rdcn_trace(us(*tick_us), entry, *weeks, *packet_gbps),
    }
}

/// Samples each channel's ring keeps (the oldest are evicted beyond
/// this; no builtin's run reaches it).
const RING_SAMPLES: usize = 4096;

/// Exported rows per channel, of trace probes here and of analytic
/// trajectories.
pub(crate) const MAX_CHANNEL_ROWS: usize = 120;

/// One channel of a trace scenario: its name and unit. The fixtures
/// register their channels from these tables, in recording order.
type ChannelRow = (&'static str, &'static str);

/// `incast` / `rdcn`: the bottleneck's throughput and backlog (the star's
/// `queue`, the rotor ToR's `voq`), then the first sender's window and Γ.
fn bottleneck_channels(backlog: &'static str) -> [ChannelRow; 4] {
    [
        ("throughput", "Gbps"),
        (backlog, "bytes"),
        ("cwnd", "bytes"),
        ("power", "gamma"),
    ]
}

/// `fairness`: the channels of the `i`-th flow (1-based).
fn fairness_channels(i: usize) -> [(String, &'static str); 3] {
    [("flow", "Gbps"), ("cwnd", "bytes"), ("power", "gamma")]
        .map(|(what, unit)| (format!("{what}-{i}"), unit))
}

// ---------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------

/// Streaming `[from, to)`-windowed accumulator: stats stay correct even
/// when the ring has evicted early samples.
#[derive(Clone, Copy, Debug)]
struct Window {
    from: f64,
    to: f64,
    sum: f64,
    n: u64,
    max: f64,
    min: f64,
}

impl Window {
    fn new(from: f64, to: f64) -> Rc<RefCell<Window>> {
        Rc::new(RefCell::new(Window {
            from,
            to,
            sum: 0.0,
            n: 0,
            max: f64::NEG_INFINITY,
            min: f64::INFINITY,
        }))
    }

    fn push(&mut self, x: f64, y: f64) {
        if x >= self.from && x < self.to {
            self.sum += y;
            self.n += 1;
            self.max = self.max.max(y);
            self.min = self.min.min(y);
        }
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    fn max0(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    fn min0(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }
}

/// Register every channel of a table, in its order.
fn open<const N: usize>(
    rec: &SharedRecorder,
    table: [(impl AsRef<str>, &str); N],
) -> [ChannelId; N] {
    let mut rec = rec.borrow_mut();
    table.map(|(name, unit)| rec.channel(name.as_ref(), unit))
}

/// A recorder sink that also feeds streaming window accumulators.
fn record_and(
    rec: SharedRecorder,
    ch: ChannelId,
    windows: Vec<Rc<RefCell<Window>>>,
) -> impl FnMut(Tick, f64) + 'static {
    move |t, v| {
        rec.borrow_mut().record_at(ch, t, v);
        let x = t.as_micros_f64();
        for w in &windows {
            w.borrow_mut().push(x, v);
        }
    }
}

/// Host NIC bandwidth of the single-switch star fixtures (fig4, fig5).
const STAR_HOST_BW: Bandwidth = Bandwidth::gbps(25);

/// Transport settings of the star fixtures.
/// The star's base RTT is ~6 µs; τ is configured generously like the
/// paper (max RTT in topology).
fn star_transport(expected_flows: u32) -> TransportConfig {
    let base_rtt = Tick::from_micros(8);
    TransportConfig {
        base_rtt,
        rto: base_rtt * 20,
        nack_guard: base_rtt,
        expected_flows,
        mtu: 1000,
    }
}

/// Sample one host's first active flow into cwnd / power channels.
fn cc_sink(
    rec: SharedRecorder,
    cwnd_ch: ChannelId,
    power_ch: ChannelId,
) -> impl FnMut(Tick, &[dcn_sim::CcFlowSample]) + 'static {
    move |t, flows| {
        let Some(f) = flows.first() else {
            return;
        };
        let mut r = rec.borrow_mut();
        r.record_at(cwnd_ch, t, f.cwnd_bytes);
        if let Some(p) = f.norm_power {
            r.record_at(power_ch, t, p);
        }
    }
}

fn export(rec: &Recorder) -> Vec<ChannelTrace> {
    rec.channels()
        .iter()
        .map(|c| ChannelTrace::from_channel(c, MAX_CHANNEL_ROWS))
        .collect()
}

// ---------------------------------------------------------------------
// fig4 — incast reaction on a star
// ---------------------------------------------------------------------

/// Figure 4: a long flow to one receiver; at [`INCAST_AT_MS`], `fan_in`
/// other hosts send `burst_bytes` each to the same receiver. A
/// single-switch star preserves the paper's bottleneck (the receiver's
/// ToR downlink) without the unrelated fat-tree machinery.
fn incast_trace(
    tick: Tick,
    horizon: Tick,
    entry: &TraceEntrySpec,
    fan_in: usize,
    burst_bytes: u64,
) -> (TraceEntry, dcn_sim::SimStats) {
    let algo = entry.algo;
    let host_bw = STAR_HOST_BW;
    let n = fan_in + 2; // receiver + long-flow sender + burst senders
    let incast_at = Tick::from_secs_f64(INCAST_AT_MS / 1e3);
    let sw_cfg = algo.switch_config(host_bw);

    let receiver = star_host_id(0);
    let long_sender = star_host_id(1);
    let metrics: SharedMetrics = MetricsHub::new_shared();
    let tcfg = star_transport(8);

    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut flows = Vec::new();
        if idx == 1 {
            // Long flow for the whole run.
            flows.push(FlowSpec {
                id: FlowId(1),
                src: id,
                dst: receiver,
                size_bytes: 3 * host_bw.bytes_per_sec() as u64 / 100, // ~30 ms worth /10
                start: Tick::ZERO,
            });
        } else if idx >= 2 {
            flows.push(FlowSpec {
                id: FlowId(idx as u64),
                src: id,
                dst: receiver,
                size_bytes: burst_bytes,
                start: incast_at,
            });
        }
        algo.endpoint(tcfg, ParamSpec::default(), host_bw, &m2, &flows)
    };
    let star = build_star(n, host_bw, EDGE_HOST_DELAY, sw_cfg, &mut mk);
    let sw = star.switch;
    let mut sim = Simulator::new(star.net);

    let rec = Recorder::new_shared(RING_SAMPLES);
    let [thr_ch, q_ch, cwnd_ch, pw_ch] = open(&rec, bottleneck_channels("queue"));
    // Reduction windows (in µs of trace time).
    let at_us = incast_at.as_micros_f64();
    let hor_us = horizon.as_micros_f64();
    // Post-incast tail: last quarter of the run.
    let tail_from = hor_us - (hor_us - at_us) / 4.0;
    // Recovery window: after the burst has been absorbed, before the
    // tail — reveals the "lose throughput after reacting" failure of
    // voltage- and current-based CC (Figure 4c/4d).
    let (rec_lo, rec_hi) = (at_us + 500.0, at_us + 2000.0);
    let peak_q = Window::new(at_us, f64::INFINITY);
    let tail_q = Window::new(tail_from, f64::INFINITY);
    let tail_t = Window::new(tail_from, f64::INFINITY);
    let recovery_t = Window::new(rec_lo, rec_hi);

    sim.add_tracer(
        tick,
        throughput_probe(
            sw,
            PortId(0),
            record_and(
                rec.clone(),
                thr_ch,
                vec![tail_t.clone(), recovery_t.clone()],
            ),
        ),
    );
    sim.add_tracer(
        tick,
        queue_probe(
            sw,
            PortId(0),
            record_and(rec.clone(), q_ch, vec![peak_q.clone(), tail_q.clone()]),
        ),
    );
    sim.add_tracer(
        tick,
        cc_probe(long_sender, cc_sink(rec.clone(), cwnd_ch, pw_ch)),
    );
    sim.run_until(horizon);
    debug_assert_eq!(sim.audit(), Ok(()), "conservation audit");

    let drops = sim.net.switch(sw).total_drops();
    let stats = vec![
        ("peak_queue_bytes".into(), peak_q.borrow().max0()),
        ("tail_queue_mean_bytes".into(), tail_q.borrow().mean()),
        (
            "recovery_min_throughput_gbps".into(),
            recovery_t.borrow().min0(),
        ),
        ("tail_throughput_mean_gbps".into(), tail_t.borrow().mean()),
        ("drops".into(), drops as f64),
    ];
    let channels = export(&rec.borrow());
    let trace_entry = TraceEntry {
        label: entry.label.clone(),
        stats,
        channels,
    };
    (trace_entry, sim.stats())
}

// ---------------------------------------------------------------------
// fig5 — fairness on a shared bottleneck
// ---------------------------------------------------------------------

/// Figure 5: `flows` senders to one receiver joining
/// [`FAIRNESS_STAGGER_MS`] apart; Jain index over the window where all
/// are active.
fn fairness_trace(
    tick: Tick,
    horizon: Tick,
    entry: &TraceEntrySpec,
    flows: usize,
) -> (TraceEntry, dcn_sim::SimStats) {
    let algo = entry.algo;
    let host_bw = STAR_HOST_BW;
    let receiver = star_host_id(0);
    let metrics: SharedMetrics = MetricsHub::new_shared();
    let tcfg = star_transport(flows as u32);
    let stagger = Tick::from_secs_f64(FAIRNESS_STAGGER_MS / 1e3);
    let m2 = metrics.clone();
    let mut mk = move |id: NodeId, idx: usize| -> Box<dyn Endpoint> {
        let mut specs = Vec::new();
        if idx >= 1 {
            specs.push(FlowSpec {
                id: FlowId(idx as u64),
                src: id,
                dst: receiver,
                // Big enough to outlive the run at full line rate.
                size_bytes: host_bw.bytes_per_sec() as u64 / 10,
                start: Tick::from_ps(stagger.as_ps() * (idx as u64 - 1)),
            });
        }
        algo.endpoint(tcfg, ParamSpec::default(), host_bw, &m2, &specs)
    };
    let star = build_star(
        flows + 1,
        host_bw,
        EDGE_HOST_DELAY,
        algo.switch_config(host_bw),
        &mut mk,
    );
    let senders: Vec<NodeId> = (1..=flows).map(star_host_id).collect();
    let mut sim = Simulator::new(star.net);

    let rec = Recorder::new_shared(RING_SAMPLES);
    // Jain window: all flows active, allowing 0.2 ms of join transient.
    let all_active_from = FAIRNESS_STAGGER_MS * (flows as f64 - 1.0) * 1e3 + 200.0;
    let mut means = Vec::new();
    for (i, &s) in senders.iter().enumerate() {
        let [thr_ch, cwnd_ch, pw_ch] = open(&rec, fairness_channels(i + 1));
        let w = Window::new(all_active_from, f64::INFINITY);
        means.push(w.clone());
        sim.add_tracer(
            tick,
            host_throughput_probe(s, record_and(rec.clone(), thr_ch, vec![w])),
        );
        sim.add_tracer(tick, cc_probe(s, cc_sink(rec.clone(), cwnd_ch, pw_ch)));
    }
    sim.run_until(horizon);
    debug_assert_eq!(sim.audit(), Ok(()), "conservation audit");

    let shares: Vec<f64> = means.iter().map(|w| w.borrow().mean()).collect();
    let mut stats = vec![(
        "jain_all_active".into(),
        dcn_stats::jain_index(&shares).unwrap_or(0.0),
    )];
    for (i, share) in shares.iter().enumerate() {
        stats.push((format!("flow-{}_mean_gbps", i + 1), *share));
    }
    let channels = export(&rec.borrow());
    let trace_entry = TraceEntry {
        label: entry.label.clone(),
        stats,
        channels,
    };
    (trace_entry, sim.stats())
}

// ---------------------------------------------------------------------
// fig8 — the reconfigurable-datacenter case study
// ---------------------------------------------------------------------

/// Figure 8: every host of rack 0 sends a long flow to its counterpart in
/// rack 1 for `weeks` of the rotor schedule; traces rack-pair throughput
/// and VOQ occupancy.
fn rdcn_trace(
    tick: Tick,
    entry: &TraceEntrySpec,
    weeks: u64,
    packet_gbps: f64,
) -> (TraceEntry, dcn_sim::SimStats) {
    let run = rotor_run_length(weeks).unwrap_or_else(|e| panic!("{e}"));
    let algo = entry.algo;
    let prebuffer = entry.prebuffer;
    let packet_bw = crate::spec::gbps(packet_gbps);
    let cfg = RdcnConfig {
        // Paper schedule (25 ToRs: 24 matchings, week = 5.88 ms) with one
        // full-rate rack pair (4 hosts saturate the 100 G circuit). The
        // long inter-day gap is what separates reTCP-600us from
        // reTCP-1800us — a shorter rotor would hold VOQs permanently.
        schedule: RotorSchedule::paper_defaults(),
        hosts_per_tor: 4,
        packet_bw,
        prebuffer,
    };
    let schedule = cfg.schedule;
    let metrics: SharedMetrics = MetricsHub::new_shared();

    let base_rtt = cfg.base_rtt();
    let tcfg = TransportConfig {
        base_rtt,
        rto: Tick::from_micros(2_000),
        nack_guard: base_rtt,
        expected_flows: 1,
        mtu: 1000,
    };
    // Enough bytes to stay active the whole run at 100 G.
    let flow_bytes = CIRCUIT_BW.bytes_per_sec() as u64 / 100;
    let mut make_cc = || algo.cc_factory(tcfg);
    let r = build_rack_pair(cfg, &metrics, tcfg, flow_bytes, &mut make_cc);
    let gauge = r.voq_gauges[0].clone();
    let sink = r.latency_sinks[0].clone();
    let tor0 = r.tors[0];
    let first_sender = r.hosts[0];
    let hpt = r.cfg.hosts_per_tor;
    let mut sim = Simulator::new(r.net);

    let rec = Recorder::new_shared(RING_SAMPLES);
    let [thr_ch, voq_ch, cwnd_ch, pw_ch] = open(&rec, bottleneck_channels("voq"));
    // Rack-0 egress throughput towards rack 1 (circuit + packet).
    let rec2 = rec.clone();
    let tx_bytes = move |net: &dcn_sim::Network| {
        let dcn_sim::Node::Custom(c) = net.node(tor0) else {
            panic!("ToR is a custom node")
        };
        c.ports[hpt].tx_bytes + c.ports[hpt + 1].tx_bytes
    };
    let record = move |now, gbps| rec2.borrow_mut().record_at(thr_ch, now, gbps);
    sim.add_tracer(tick, rate_probe(tx_bytes, record));
    // Rack-0 → rack-1 VOQ occupancy.
    let rec2 = rec.clone();
    sim.add_tracer(tick, move |_net, now| {
        let v = gauge.borrow().get(1).copied().unwrap_or(0);
        rec2.borrow_mut().record_at(voq_ch, now, v as f64);
    });
    sim.add_tracer(
        tick,
        cc_probe(first_sender, cc_sink(rec.clone(), cwnd_ch, pw_ch)),
    );
    sim.run_until(run);
    debug_assert_eq!(sim.audit(), Ok(()), "conservation audit");

    // Day utilization: circuit bytes transmitted / (circuit capacity ×
    // total day time for the rack pair).
    let dcn_sim::Node::Custom(c) = sim.net.node(tor0) else {
        panic!("ToR is a custom node")
    };
    let circuit_bytes = c.ports[hpt + 1].tx_bytes;
    let uplink_bytes = c.ports[hpt].tx_bytes;
    let day_seconds = schedule.day.as_secs_f64() * weeks as f64;
    let day_utilization = circuit_bytes as f64 / (CIRCUIT_BW.bytes_per_sec() * day_seconds);
    let mean_goodput = (circuit_bytes + uplink_bytes) as f64 * 8.0 / run.as_secs_f64() / 1e9;

    let latency = dcn_stats::Sorted::new(std::mem::take(&mut *sink.borrow_mut()));
    let (completed, offered) = metrics.borrow().completion_ratio();
    let tail = |pct: f64| latency.percentile(pct).unwrap_or(0.0) * 1e6;
    let stats = vec![
        ("day_utilization".into(), day_utilization),
        ("mean_goodput_gbps".into(), mean_goodput),
        ("p99_voq_wait_us".into(), tail(99.0)),
        ("p999_voq_wait_us".into(), tail(99.9)),
        ("completed".into(), completed as f64),
        ("offered".into(), offered as f64),
    ];
    let channels = export(&rec.borrow());
    let trace_entry = TraceEntry {
        label: entry.label.clone(),
        stats,
        channels,
    };
    (trace_entry, sim.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ScenarioKind, ScenarioSpec};

    fn ts(scenario: TraceScenario) -> ScenarioSpec {
        ScenarioSpec::timeseries("t", scenario)
    }

    fn body(spec: &ScenarioSpec) -> &TimeseriesBody {
        match &spec.kind {
            ScenarioKind::Timeseries(timeseries) => timeseries,
            _ => unreachable!("a trace spec"),
        }
    }

    fn entries(spec: &ScenarioSpec) -> Vec<TraceEntrySpec> {
        trace_entries(body(spec))
    }

    fn run_trace_entry(spec: &ScenarioSpec, entry: &TraceEntrySpec) -> TraceEntry {
        run_trace_entry_observed(body(spec), entry).0
    }

    fn incast_until(horizon_ms: f64) -> TraceScenario {
        TraceScenario::Incast {
            tick_us: 20.0,
            fan_in: 4,
            burst_bytes: 100_000,
            horizon_ms,
        }
    }

    #[test]
    fn incast_trace_builds_and_drains_a_queue() {
        let spec = ts(incast_until(3.0));
        let entries = entries(&spec);
        assert_eq!(entries.len(), 1);
        let e = run_trace_entry(&spec, &entries[0]);
        assert_eq!(e.label, "PowerTCP-INT");
        let peak = e.stat("peak_queue_bytes").unwrap();
        assert!(peak > 0.0, "incast must build a queue");
        // PowerTCP drains it.
        assert!(e.stat("tail_queue_mean_bytes").unwrap() < peak);
        // The streaming stat agrees with a post-hoc reduction of the
        // exported channel (nothing was evicted at this horizon, but the
        // export is decimated, so the post-hoc peak is a lower bound).
        let q = e.channel("queue").unwrap();
        assert_eq!(q.evicted, 0);
        let post_hoc_peak = q
            .samples
            .iter()
            .filter(|s| s.x >= 1_000.0)
            .map(|s| s.y)
            .reduce(f64::max)
            .expect("post-incast queue samples");
        assert!(post_hoc_peak <= peak);
        // The cwnd and power probes saw the long flow.
        assert!(!e.channel("cwnd").unwrap().samples.is_empty());
        assert!(!e.channel("power").unwrap().samples.is_empty());
        assert!(e.channel("queue").unwrap().samples.len() <= MAX_CHANNEL_ROWS);
    }

    #[test]
    fn fairness_trace_shares_fairly_under_powertcp() {
        let spec = ts(TraceScenario::Fairness {
            tick_us: 20.0,
            flows: 4,
            horizon_ms: 5.0,
        });
        let e = run_trace_entry(&spec, &entries(&spec)[0]);
        let jain = e.stat("jain_all_active").unwrap();
        assert!(jain > 0.9, "PowerTCP should share fairly (jain={jain})");
        assert_eq!(
            e.channels
                .iter()
                .filter(|c| c.name.starts_with("flow-"))
                .count(),
            4
        );
    }

    #[test]
    fn rdcn_trace_fills_the_circuit() {
        let mut spec = ts(TraceScenario::Rdcn {
            tick_us: 10.0,
            weeks: 2,
            packet_gbps: 25.0,
            retcp_prebuffer_us: vec![600.0],
        });
        let ScenarioKind::Timeseries(t) = &mut spec.kind else {
            unreachable!()
        };
        t.lineup.algos = vec![Algo::PowerTcp, Algo::ReTcp];
        let entries = entries(&spec);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].label, "reTCP-600us");
        let e = run_trace_entry(&spec, &entries[0]);
        assert!(!e.channel("throughput").unwrap().samples.is_empty());
        assert!(
            e.stat("day_utilization").unwrap() > 0.1,
            "util={}",
            e.stat("day_utilization").unwrap()
        );
    }

    /// Every run records its scenario's whole channel table, in order:
    /// the report's columns.
    #[test]
    fn an_unfiltered_run_records_exactly_the_channel_vocabulary() {
        let bottleneck = |backlog| ["throughput", backlog, "cwnd", "power"].to_vec();
        for (scenario, names) in [
            (
                TraceScenario::Incast {
                    tick_us: 20.0,
                    fan_in: 2,
                    burst_bytes: 20_000,
                    horizon_ms: 1.5,
                },
                bottleneck("queue"),
            ),
            (
                TraceScenario::Fairness {
                    tick_us: 20.0,
                    flows: 2,
                    horizon_ms: 1.5,
                },
                ["flow-1", "cwnd-1", "power-1", "flow-2", "cwnd-2", "power-2"].to_vec(),
            ),
            (
                TraceScenario::Rdcn {
                    tick_us: 20.0,
                    weeks: 1,
                    packet_gbps: 25.0,
                    retcp_prebuffer_us: vec![],
                },
                bottleneck("voq"),
            ),
        ] {
            let spec = ts(scenario.clone());
            spec.validate().unwrap();
            let e = run_trace_entry(&spec, &entries(&spec)[0]);
            let recorded: Vec<&str> = e.channels.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(recorded, names, "{}", scenario.key());
        }
    }
}
