//! The trace engine: run one `timeseries` scenario entry as an
//! instrumented simulation, sampling probes into ring-buffered telemetry
//! channels.
//!
//! The paper's temporal figures (fig2/fig4/fig5/fig8 and the HOMA
//! traces of fig9–11) run here: each
//! [`TraceScenario`] builds its fixture, registers `dcn-sim` probes
//! (switch queues, link TX counters, per-flow cwnd / pacing / PowerTCP Γ
//! via `Endpoint::cc_samples`) on the spec's tick grid, records into a
//! `dcn-telemetry` [`Recorder`], and reduces to scalar stats. One call to
//! [`run_trace_entry_observed`] is a pure function of `(spec, entry)` — the
//! property the executor ([`crate::sweep`]) relies on — so entries run in
//! parallel and the report is byte-identical at any thread count.

use crate::algo::Algo;
use crate::analytic_engine::{analytic_entries, run_analytic_entry};
use crate::engine::EDGE_HOST_DELAY;
use crate::spec::{
    rotor_run_length, ParamSpec, ScenarioKind, ScenarioSpec, TraceScenario, TraceSpec,
};
use dcn_sim::{
    build_star, cc_probe, host_throughput_probe, queue_probe, rate_probe, star_host_id,
    throughput_probe, Endpoint, FlowId, NodeId, PortId, Simulator,
};
use dcn_telemetry::{ChannelId, ChannelTrace, Recorder, SharedRecorder, TraceEntry};
use dcn_transport::{FlowSpec, MetricsHub, SharedMetrics, TransportConfig};
use fluid_model::{current_md, fig2c_cases, voltage_md};
use powertcp_core::{Bandwidth, Tick};
use rdcn::{build_rack_pair, topology::CIRCUIT_BW, RdcnConfig, RotorSchedule};
use std::cell::RefCell;
use std::rc::Rc;

/// One entry of a trace lineup: an algorithm (plus, for the RDCN
/// scenario, a reTCP prebuffer) and its display label.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntrySpec {
    /// Position in the lineup (stable expansion order).
    pub index: usize,
    /// Display label ("PowerTCP-INT", "reTCP-600us", …).
    pub label: String,
    /// Algorithm under trace (placeholder for the analytic `response`
    /// scenario, which has no algorithm).
    pub algo: Algo,
    /// reTCP prebuffering (RDCN scenario only; zero elsewhere).
    pub prebuffer: Tick,
}

/// Expand a timeseries spec's lineup into trace entries, in stable order:
/// algo-major, with reTCP expanding to one entry per configured prebuffer.
/// Analytic specs expand through [`crate::analytic_engine`] (same entry
/// shape, so executors and the runner treat both kinds uniformly); a
/// sweep has none.
pub fn trace_entries(spec: &ScenarioSpec) -> Vec<TraceEntrySpec> {
    let timeseries = match &spec.kind {
        ScenarioKind::Sweep(_) => return Vec::new(),
        ScenarioKind::Timeseries(timeseries) => timeseries,
        ScenarioKind::Analytic(analytic) => return analytic_entries(analytic),
    };
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
    match &timeseries.trace.scenario {
        TraceScenario::Response => {
            push("analytic".into(), Algo::PowerTcp, Tick::ZERO);
        }
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

/// Run one lineup entry and return it with the engine's run counters
/// when the entry actually ran a simulator (analytic/fluid entries
/// return `None`). Deterministic: identical arguments replay
/// bit-for-bit, on any thread. Panics if `spec` is a sweep (its work
/// items are points) or its `rdcn` weeks are more than `validate` takes.
pub fn run_trace_entry_observed(
    spec: &ScenarioSpec,
    entry: &TraceEntrySpec,
) -> (TraceEntry, Option<dcn_sim::SimStats>) {
    let timeseries = match &spec.kind {
        ScenarioKind::Sweep(_) => panic!("a lineup entry of the sweep {:?}", spec.name),
        ScenarioKind::Timeseries(timeseries) => timeseries,
        ScenarioKind::Analytic(analytic) => return (run_analytic_entry(analytic, entry), None),
    };
    let trace = &timeseries.trace;
    let ms = |ms: f64| Tick::from_secs_f64(ms / 1e3);
    match &trace.scenario {
        TraceScenario::Response => (response_trace(trace, entry), None),
        TraceScenario::Incast {
            fan_in,
            burst_bytes,
            at_ms,
            horizon_ms,
        } => incast_trace(trace, ms(*horizon_ms), entry, *fan_in, *burst_bytes, *at_ms),
        TraceScenario::Fairness {
            flows,
            stagger_ms,
            horizon_ms,
        } => fairness_trace(trace, ms(*horizon_ms), entry, *flows, *stagger_ms),
        TraceScenario::Rdcn {
            weeks, packet_gbps, ..
        } => rdcn_trace(trace, entry, *weeks, *packet_gbps),
    }
}

/// One channel of a trace scenario's vocabulary: its name and unit. The
/// tables below are the one list [`channel_names`] (what a `[trace]
/// channels` filter may select) and the fixtures (what gets recorded)
/// both read, in recording order.
type ChannelRow = (&'static str, &'static str);

/// `response`: the unit is the x-axis (the swept quantity); y is the
/// multiplicative-decrease factor.
const RESPONSE_CHANNELS: [ChannelRow; 4] = [
    ("voltage-md-vs-rate", "qdot_over_bw"),
    ("current-md-vs-rate", "qdot_over_bw"),
    ("voltage-md-vs-queue", "queue_pkts"),
    ("current-md-vs-queue", "queue_pkts"),
];

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

/// [`TraceScenario::channel_names`]: every name of the scenario's table.
pub(crate) fn channel_names(scenario: &TraceScenario) -> Vec<String> {
    let names = |table: &[ChannelRow]| table.iter().map(|(name, _)| name.to_string()).collect();
    match scenario {
        TraceScenario::Response => names(&RESPONSE_CHANNELS),
        TraceScenario::Incast { .. } => names(&bottleneck_channels("queue")),
        TraceScenario::Fairness { flows, .. } => (1..=*flows)
            .flat_map(|i| fairness_channels(i).map(|(name, _)| name))
            .collect(),
        TraceScenario::Rdcn { .. } => names(&bottleneck_channels("voq")),
    }
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

/// The spec-level probe selection (`[trace] channels`): empty selects
/// everything. Filtered-out probes are never registered (or record into
/// no channel when they also feed stat windows), so a filtered run does
/// strictly less work — and, because tracers are read-only observers,
/// the channels that *are* recorded stay byte-identical to a full run.
struct Sel<'a>(&'a [String]);

impl Sel<'_> {
    fn on(&self, name: &str) -> bool {
        self.0.is_empty() || self.0.iter().any(|c| c == name)
    }

    /// Register the selected channels of a vocabulary table, in its
    /// order (`None` for a channel filtered out).
    fn open<const N: usize>(
        &self,
        rec: &SharedRecorder,
        table: [(impl AsRef<str>, &str); N],
    ) -> [Option<ChannelId>; N] {
        let mut rec = rec.borrow_mut();
        table.map(|(name, unit)| {
            let name = name.as_ref();
            self.on(name).then(|| rec.channel(name, unit))
        })
    }
}

/// A recorder sink that also feeds streaming window accumulators. The
/// channel is optional so a probe whose channel is filtered out can keep
/// feeding the windows that scalar stats are reduced from.
fn record_and(
    rec: SharedRecorder,
    ch: Option<ChannelId>,
    windows: Vec<Rc<RefCell<Window>>>,
) -> impl FnMut(Tick, f64) + 'static {
    move |t, v| {
        if let Some(ch) = ch {
            rec.borrow_mut().record_at(ch, t, v);
        }
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

/// Sample one host's first active flow into cwnd / power channels
/// (either may be filtered out; callers skip the probe entirely when
/// both are).
fn cc_sink(
    rec: SharedRecorder,
    cwnd_ch: Option<ChannelId>,
    power_ch: Option<ChannelId>,
) -> impl FnMut(Tick, &[dcn_sim::CcFlowSample]) + 'static {
    move |t, flows| {
        let Some(f) = flows.first() else {
            return;
        };
        let mut r = rec.borrow_mut();
        if let Some(ch) = cwnd_ch {
            r.record_at(ch, t, f.cwnd_bytes);
        }
        if let (Some(ch), Some(p)) = (power_ch, f.norm_power) {
            r.record_at(ch, t, p);
        }
    }
}

fn export(rec: &Recorder, trace: &TraceSpec) -> Vec<ChannelTrace> {
    rec.channels()
        .iter()
        .map(|c| ChannelTrace::from_channel_windowed(c, trace.max_rows, trace.window))
        .collect()
}

// ---------------------------------------------------------------------
// fig2 — analytic response curves (fluid model)
// ---------------------------------------------------------------------

/// Figure 2: the orthogonal multiplicative-decrease responses of voltage-
/// and current-based CC, plus the three blind-spot cases. Analytic (no
/// simulation); channels use the swept quantity as their x-axis.
fn response_trace(trace: &TraceSpec, entry: &TraceEntrySpec) -> TraceEntry {
    let sel = Sel(&trace.channels);
    let mut rec = Recorder::new(Tick::from_micros(1), trace.max_samples);
    let [v_rate, c_rate, v_queue, c_queue] = RESPONSE_CHANNELS
        .map(|(name, x)| sel.on(name).then(|| rec.channel_with_x(name, "factor", x)));

    // 2a: MD vs queue buildup rate (queue fixed at one BDP).
    for r in 0..=8 {
        let r = r as f64;
        if let Some(ch) = v_rate {
            rec.record(ch, r, voltage_md(1.0));
        }
        if let Some(ch) = c_rate {
            rec.record(ch, r, current_md(r));
        }
    }
    // 2b: MD vs queue length in 1KB packets (BDP = 20 pkts, no buildup).
    let bdp_pkts = 20.0;
    for i in 0..=6 {
        let q_pkts = i as f64 * 10.0;
        if let Some(ch) = v_queue {
            rec.record(ch, q_pkts, voltage_md(q_pkts / bdp_pkts));
        }
        if let Some(ch) = c_queue {
            rec.record(ch, q_pkts, current_md(0.0));
        }
    }
    // 2c: the three blind-spot cases as stats.
    let mut stats = Vec::new();
    for (i, case) in fig2c_cases().iter().enumerate() {
        let n = i + 1;
        stats.push((format!("case{n}_voltage_md"), case.voltage()));
        stats.push((format!("case{n}_current_md"), case.current()));
        stats.push((format!("case{n}_power_md"), case.power()));
    }
    TraceEntry {
        label: entry.label.clone(),
        stats,
        channels: export(&rec, trace),
    }
}

// ---------------------------------------------------------------------
// fig4 — incast reaction on a star
// ---------------------------------------------------------------------

/// Figure 4: a long flow to one receiver; at `at_ms`, `fan_in` other
/// hosts send `burst_bytes` each to the same receiver. A single-switch
/// star preserves the paper's bottleneck (the receiver's ToR downlink)
/// without the unrelated fat-tree machinery.
fn incast_trace(
    trace: &TraceSpec,
    horizon: Tick,
    entry: &TraceEntrySpec,
    fan_in: usize,
    burst_bytes: u64,
    at_ms: f64,
) -> (TraceEntry, Option<dcn_sim::SimStats>) {
    let algo = entry.algo;
    let host_bw = STAR_HOST_BW;
    let n = fan_in + 2; // receiver + long-flow sender + burst senders
    let incast_at = Tick::from_secs_f64(at_ms / 1e3);
    let tick = Tick::from_secs_f64(trace.tick_us / 1e6);
    let sw_cfg = algo.switch_config(host_bw, ParamSpec::default());

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

    let sel = Sel(&trace.channels);
    let rec = Recorder::new_shared(tick, trace.max_samples);
    let [thr_ch, q_ch, cwnd_ch, pw_ch] = sel.open(&rec, bottleneck_channels("queue"));
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
    if cwnd_ch.is_some() || pw_ch.is_some() {
        sim.add_tracer(
            tick,
            cc_probe(long_sender, cc_sink(rec.clone(), cwnd_ch, pw_ch)),
        );
    }
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
    let channels = export(&rec.borrow(), trace);
    let trace_entry = TraceEntry {
        label: entry.label.clone(),
        stats,
        channels,
    };
    (trace_entry, Some(sim.stats()))
}

// ---------------------------------------------------------------------
// fig5 — fairness on a shared bottleneck
// ---------------------------------------------------------------------

/// Figure 5: `flows` senders to one receiver joining at `stagger_ms`
/// intervals; Jain index over the window where all are active.
fn fairness_trace(
    trace: &TraceSpec,
    horizon: Tick,
    entry: &TraceEntrySpec,
    flows: usize,
    stagger_ms: f64,
) -> (TraceEntry, Option<dcn_sim::SimStats>) {
    let algo = entry.algo;
    let host_bw = STAR_HOST_BW;
    let tick = Tick::from_secs_f64(trace.tick_us / 1e6);
    let receiver = star_host_id(0);
    let metrics: SharedMetrics = MetricsHub::new_shared();
    let tcfg = star_transport(flows as u32);
    let stagger = Tick::from_secs_f64(stagger_ms / 1e3);
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
        algo.switch_config(host_bw, ParamSpec::default()),
        &mut mk,
    );
    let senders: Vec<NodeId> = (1..=flows).map(star_host_id).collect();
    let mut sim = Simulator::new(star.net);

    let sel = Sel(&trace.channels);
    let rec = Recorder::new_shared(tick, trace.max_samples);
    // Jain window: all flows active, allowing 0.2 ms of join transient.
    let all_active_from = stagger_ms * (flows as f64 - 1.0) * 1e3 + 200.0;
    let mut means = Vec::new();
    for (i, &s) in senders.iter().enumerate() {
        let [thr_ch, cwnd_ch, pw_ch] = sel.open(&rec, fairness_channels(i + 1));
        let w = Window::new(all_active_from, f64::INFINITY);
        means.push(w.clone());
        sim.add_tracer(
            tick,
            host_throughput_probe(s, record_and(rec.clone(), thr_ch, vec![w])),
        );
        if cwnd_ch.is_some() || pw_ch.is_some() {
            sim.add_tracer(tick, cc_probe(s, cc_sink(rec.clone(), cwnd_ch, pw_ch)));
        }
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
    let channels = export(&rec.borrow(), trace);
    let trace_entry = TraceEntry {
        label: entry.label.clone(),
        stats,
        channels,
    };
    (trace_entry, Some(sim.stats()))
}

// ---------------------------------------------------------------------
// fig8 — the reconfigurable-datacenter case study
// ---------------------------------------------------------------------

/// Figure 8: every host of rack 0 sends a long flow to its counterpart in
/// rack 1 for `weeks` of the rotor schedule; traces rack-pair throughput
/// and VOQ occupancy.
fn rdcn_trace(
    trace: &TraceSpec,
    entry: &TraceEntrySpec,
    weeks: u64,
    packet_gbps: f64,
) -> (TraceEntry, Option<dcn_sim::SimStats>) {
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
    let tick = Tick::from_secs_f64(trace.tick_us / 1e6);

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

    let sel = Sel(&trace.channels);
    let rec = Recorder::new_shared(tick, trace.max_samples);
    let [thr_ch, voq_ch, cwnd_ch, pw_ch] = sel.open(&rec, bottleneck_channels("voq"));
    {
        // Rack-0 egress throughput towards rack 1 (circuit + packet).
        if let Some(thr_ch) = thr_ch {
            let rec2 = rec.clone();
            let tx_bytes = move |net: &dcn_sim::Network| {
                let dcn_sim::Node::Custom(c) = net.node(tor0) else {
                    panic!("ToR is a custom node")
                };
                c.ports[hpt].tx_bytes + c.ports[hpt + 1].tx_bytes
            };
            let sink = move |now, gbps| rec2.borrow_mut().record_at(thr_ch, now, gbps);
            sim.add_tracer(tick, rate_probe(tx_bytes, sink));
        }
        // Rack-0 → rack-1 VOQ occupancy.
        if let Some(voq_ch) = voq_ch {
            let rec2 = rec.clone();
            let g = gauge.clone();
            sim.add_tracer(tick, move |_net, now| {
                let v = g.borrow().get(1).copied().unwrap_or(0);
                rec2.borrow_mut().record_at(voq_ch, now, v as f64);
            });
        }
        if cwnd_ch.is_some() || pw_ch.is_some() {
            sim.add_tracer(
                tick,
                cc_probe(first_sender, cc_sink(rec.clone(), cwnd_ch, pw_ch)),
            );
        }
    }
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
    let channels = export(&rec.borrow(), trace);
    let trace_entry = TraceEntry {
        label: entry.label.clone(),
        stats,
        channels,
    };
    (trace_entry, Some(sim.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_trace_entry(spec: &ScenarioSpec, entry: &TraceEntrySpec) -> TraceEntry {
        run_trace_entry_observed(spec, entry).0
    }

    fn ts(scenario: TraceScenario) -> ScenarioSpec {
        ScenarioSpec::timeseries(
            "t",
            TraceSpec {
                max_rows: 60,
                ..TraceSpec::new(scenario)
            },
        )
    }

    #[test]
    fn incast_trace_builds_and_drains_a_queue() {
        let spec = ts(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 100_000,
            at_ms: 1.0,
            horizon_ms: 3.0,
        });
        let entries = trace_entries(&spec);
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
        let post_hoc_peak =
            dcn_telemetry::max_after(&q.samples, 1_000.0).expect("post-incast queue samples");
        assert!(post_hoc_peak <= peak);
        // The cwnd and power probes saw the long flow.
        assert!(!e.channel("cwnd").unwrap().samples.is_empty());
        assert!(!e.channel("power").unwrap().samples.is_empty());
        assert!(e.channel("queue").unwrap().samples.len() <= 60);
    }

    #[test]
    fn fairness_trace_shares_fairly_under_powertcp() {
        let spec = ts(TraceScenario::Fairness {
            flows: 4,
            stagger_ms: 0.5,
            horizon_ms: 5.0,
        });
        let e = run_trace_entry(&spec, &trace_entries(&spec)[0]);
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
            weeks: 2,
            packet_gbps: 25.0,
            retcp_prebuffer_us: vec![600.0],
        });
        let ScenarioKind::Timeseries(t) = &mut spec.kind else {
            unreachable!()
        };
        t.lineup.algos = vec![Algo::PowerTcp, Algo::ReTcp];
        let entries = trace_entries(&spec);
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

    #[test]
    fn channel_filter_records_only_selected_probes_without_moving_bytes() {
        let full_spec = ts(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 100_000,
            at_ms: 1.0,
            horizon_ms: 3.0,
        });
        let mut filtered_spec = full_spec.clone();
        let ScenarioKind::Timeseries(t) = &mut filtered_spec.kind else {
            unreachable!()
        };
        t.trace.channels = vec!["queue".into(), "power".into()];
        filtered_spec.validate().unwrap();
        let full = run_trace_entry(&full_spec, &trace_entries(&full_spec)[0]);
        let filtered = run_trace_entry(&filtered_spec, &trace_entries(&filtered_spec)[0]);
        // Only the requested channels exist, in recording order.
        let names: Vec<&str> = filtered.channels.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["queue", "power"]);
        // The recorded channels and the scalar stats are identical to the
        // unfiltered run: skipping read-only probes must not move a byte.
        assert_eq!(filtered.channel("queue"), full.channel("queue"));
        assert_eq!(filtered.channel("power"), full.channel("power"));
        assert_eq!(filtered.stats, full.stats);
    }

    /// The filter vocabulary and the fixtures read one table: an
    /// unfiltered run records exactly `channel_names()`, in order (a
    /// name in one list only used to go unnoticed).
    #[test]
    fn an_unfiltered_run_records_exactly_the_channel_vocabulary() {
        for scenario in [
            TraceScenario::Response,
            TraceScenario::Incast {
                fan_in: 2,
                burst_bytes: 20_000,
                at_ms: 0.2,
                horizon_ms: 0.5,
            },
            TraceScenario::Fairness {
                flows: 3,
                stagger_ms: 0.1,
                horizon_ms: 0.5,
            },
            TraceScenario::Rdcn {
                weeks: 1,
                packet_gbps: 25.0,
                retcp_prebuffer_us: vec![],
            },
        ] {
            let spec = ts(scenario.clone());
            spec.validate().unwrap();
            let e = run_trace_entry(&spec, &trace_entries(&spec)[0]);
            let recorded: Vec<&str> = e.channels.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(recorded, scenario.channel_names(), "{}", scenario.key());
        }
    }

    #[test]
    fn channel_filter_applies_per_flow_in_fairness_traces() {
        let mut spec = ts(TraceScenario::Fairness {
            flows: 3,
            stagger_ms: 0.5,
            horizon_ms: 3.0,
        });
        let ScenarioKind::Timeseries(t) = &mut spec.kind else {
            unreachable!()
        };
        t.trace.channels = vec!["flow-1".into(), "flow-3".into()];
        spec.validate().unwrap();
        let e = run_trace_entry(&spec, &trace_entries(&spec)[0]);
        let names: Vec<&str> = e.channels.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["flow-1", "flow-3"]);
        // The Jain stat still reduces over every flow.
        assert!(e.stat("jain_all_active").is_some());
        assert!(e.stat("flow-2_mean_gbps").is_some());
    }

    #[test]
    fn window_option_smooths_exported_channels_but_not_stats() {
        let raw_spec = ts(TraceScenario::Incast {
            fan_in: 4,
            burst_bytes: 100_000,
            at_ms: 1.0,
            horizon_ms: 3.0,
        });
        let mut win_spec = raw_spec.clone();
        {
            let ScenarioKind::Timeseries(t) = &mut win_spec.kind else {
                unreachable!()
            };
            t.trace.window = 4;
            // Disable decimation so the window reduction is observable.
            t.trace.max_rows = 4096;
        }
        let mut raw_rows = raw_spec.clone();
        {
            let ScenarioKind::Timeseries(t) = &mut raw_rows.kind else {
                unreachable!()
            };
            t.trace.max_rows = 4096;
        }
        win_spec.validate().unwrap();
        let raw = run_trace_entry(&raw_rows, &trace_entries(&raw_rows)[0]);
        let win = run_trace_entry(&win_spec, &trace_entries(&win_spec)[0]);
        let rq = raw.channel("queue").unwrap();
        let wq = win.channel("queue").unwrap();
        // Windows of 4 collapse to one row each (partial tail included).
        assert_eq!(wq.samples.len(), rq.samples.len().div_ceil(4));
        // Each exported sample is the mean of its window, anchored at the
        // window's first x.
        assert_eq!(wq.samples[0].x, rq.samples[0].x);
        let mean0: f64 = rq.samples[..4].iter().map(|s| s.y).sum::<f64>() / 4.0;
        assert_eq!(wq.samples[0].y, mean0);
        // Raw-sample accounting and scalar stats are untouched: windowing
        // is an export reduction, not a recording change.
        assert_eq!(wq.total_samples, rq.total_samples);
        assert_eq!(win.stats, raw.stats);
    }

    #[test]
    fn response_trace_reproduces_the_fig2c_annotations() {
        let spec = ts(TraceScenario::Response);
        let e = run_trace_entry(&spec, &trace_entries(&spec)[0]);
        assert!((e.stat("case1_voltage_md").unwrap() - 3.24).abs() < 1e-9);
        assert!((e.stat("case1_current_md").unwrap() - 9.0).abs() < 1e-9);
        assert!((e.stat("case2_current_md").unwrap() - 1.0).abs() < 1e-9);
        // Power separates all three cases.
        let p: Vec<f64> = (1..=3)
            .map(|i| e.stat(&format!("case{i}_power_md")).unwrap())
            .collect();
        assert!(p[0] != p[1] && p[1] != p[2] && p[0] != p[2]);
        assert_eq!(e.channels.len(), 4);
    }
}
