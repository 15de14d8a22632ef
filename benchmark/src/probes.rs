//! The workload-independent half of the per-layer ledger: micro-probes
//! that time one layer's public functions from outside, on fixed inputs,
//! plus the packet engine's ablation ladder (`crate::ladder`).
//!
//! Every probe repeats a batch sized to at least [`MIN_BATCH_S`] and
//! keeps the fastest of [`REPS`] batches; counts are exact and repeat bit
//! for bit. `xp lint`, the legacy `fig*` binaries and process spawning
//! are deliberately unmeasured.

use crate::workloads::{edit_spec, report, sweep96_spec, Daemon};
use crate::{host, ladder, pins::DEFAULT_SEED, span::Tracer, Metric};
use dcn_runner::codec::{self, Outcome};
use dcn_runner::{point_key, worker, ResultCache};
use dcn_scenarios::{
    builtin, diff_reports, run_scenario, sweep_points, Algo, PointOutcome, ScenarioOutput,
    ScenarioSpec, SweepResult,
};
use dcn_sim::{Event, EventQueue, FlowId, FlowTable, NodeId, Packet, PacketPool};
use dcn_transport::TransportConfig;
use powertcp_core::{AckInfo, Bandwidth, IntHeader, IntHopMetadata, Tick};
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;

/// Shortest timed batch.
const MIN_BATCH_S: f64 = 0.01;
/// Timed batches per probe; the fastest counts.
const REPS: usize = 5;
/// A probe whose single call takes this long gets [`SLOW_REPS`] batches:
/// the traced run has the driver's time budget to keep.
const SLOW_S: f64 = 0.1;
const SLOW_REPS: usize = 3;

/// Seconds per call of `f`: fastest of [`REPS`] batches, each batch as
/// many calls as [`MIN_BATCH_S`] takes. `fresh` builds each call's input
/// outside the timed region.
fn time_with<I, R>(mut fresh: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let mut calls = 1usize;
    let mut best = f64::INFINITY;
    let (mut batches, mut reps) = (0, REPS);
    while batches < reps {
        let inputs: Vec<I> = (0..calls).map(|_| fresh()).collect();
        let t0 = host::now();
        for input in inputs {
            black_box(f(black_box(input)));
        }
        let dt = host::since(t0);
        if dt < MIN_BATCH_S && batches == 0 {
            // Still calibrating: grow the batch toward the minimum.
            let want = (calls as f64 * MIN_BATCH_S / dt.max(1e-9) * 1.2) as usize;
            calls = want.clamp(calls * 2, calls * 100);
            continue;
        }
        if calls == 1 && dt >= SLOW_S {
            reps = SLOW_REPS;
        }
        best = best.min(dt / calls as f64);
        batches += 1;
    }
    best
}

fn time<R>(mut f: impl FnMut() -> R) -> f64 {
    time_with(|| (), |()| f())
}

/// `dcn-sim` data structures: event queue, flow table, packet pool.
fn sim(out: &mut Vec<Metric>) {
    // Simulation-shaped churn at 4096 pending events (the paper-scale
    // fat-tree's working set): pop one, schedule one, with the delay mix
    // of a fat-tree run. Same shape as `benches/sim_engine.rs`.
    const PENDING: u64 = 4096;
    const OPS: u64 = 100_000;
    let churn = || {
        let mut q = EventQueue::new();
        let ev = |k: u64| Event::HostTimer {
            node: NodeId(0),
            key: k,
        };
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut delay = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            match rng % 16 {
                0..=7 => 320_000 + rng % 640_000,
                8..=13 => 1_000_000 + rng % 2_000_000,
                14 => 25_000_000 + rng % 50_000_000,
                _ => 100_000_000 + rng % 1_600_000_000,
            }
        };
        for k in 0..PENDING {
            q.schedule(Tick::from_ps(delay()), ev(k));
        }
        let mut acc = 0u64;
        for k in 0..OPS {
            let (now, e) = q.pop().expect("held set never drains");
            if let Event::HostTimer { key, .. } = e {
                acc ^= key;
            }
            q.schedule(Tick::from_ps(now.as_ps() + delay()), ev(k));
        }
        acc
    };
    out.push(Metric::new(
        "sim.event.ns_per_op",
        "ns",
        time(churn) * 1e9 / (PENDING + OPS) as f64,
    ));

    const IDS: u64 = 256;
    const ROUNDS: u64 = 64;
    let table = || {
        let mut t: FlowTable<u64> = FlowTable::new();
        for id in 0..IDS {
            t.insert(FlowId(id), id);
        }
        let mut acc = 0u64;
        for r in 0..ROUNDS {
            for id in 0..IDS {
                acc += t.get(FlowId((id * 7 + r) % IDS)).copied().unwrap_or(0);
            }
        }
        acc
    };
    out.push(Metric::new(
        "sim.flow_table.get_ns",
        "ns",
        time(table) * 1e9 / (IDS * (ROUNDS + 1)) as f64,
    ));

    const CYCLES: u64 = 10_000;
    let pool = || {
        let mut pool = PacketPool::new();
        for i in 0..CYCLES {
            let pkt = pool.boxed(Packet::data(
                FlowId(1),
                NodeId(1),
                NodeId(2),
                i * 1000,
                1000,
                false,
                Tick::ZERO,
            ));
            pool.recycle(black_box(pkt));
        }
        pool.stats().reused
    };
    out.push(Metric::new(
        "sim.pool.cycle_ns",
        "ns",
        time(pool) * 1e9 / CYCLES as f64,
    ));
}

/// Per-ACK cost of each control law on one synthetic ACK stream carrying
/// a 5-hop INT stack (an inter-pod path of workload 1).
fn cc(out: &mut Vec<Metric>) {
    const ACKS: usize = 4096;
    let bw = Bandwidth::gbps(25);
    let mut stream = Vec::with_capacity(ACKS);
    let (mut now, mut tx) = (Tick::from_micros(100), 0u64);
    for i in 0..ACKS as u64 {
        now += Tick::from_nanos(320);
        tx += 1000;
        let q = ((i * 37) % 64) * 1000;
        let mut int = IntHeader::new();
        for hop in 0..5u32 {
            int.push(IntHopMetadata {
                node: hop,
                port: 0,
                qlen_bytes: q / (hop as u64 + 1),
                ts: now,
                tx_bytes: tx,
                bandwidth: bw,
            });
        }
        stream.push((
            now,
            (i + 1) * 1000,
            int,
            Tick::from_nanos(20_000 + q * 80 / 1000),
        ));
    }
    let tcfg = TransportConfig {
        base_rtt: Tick::from_micros(20),
        ..TransportConfig::default()
    };
    for (algo, name) in [
        (Algo::PowerTcp, "core.powertcp.on_ack_ns"),
        (Algo::ThetaPowerTcp, "core.theta_powertcp.on_ack_ns"),
        (Algo::Hpcc, "baselines.hpcc.on_ack_ns"),
        (Algo::Dcqcn, "baselines.dcqcn.on_ack_ns"),
        (Algo::Timely, "baselines.timely.on_ack_ns"),
    ] {
        let mut make = algo.cc_factory(tcfg);
        let s = time_with(
            || make(FlowId(1), bw),
            |mut law| {
                for (now, seq, int, rtt) in &stream {
                    law.on_ack(&AckInfo {
                        now: *now,
                        ack_seq: *seq,
                        newly_acked: 1000,
                        snd_nxt: seq + 50_000,
                        rtt: *rtt,
                        int: Some(int),
                        ecn_marked: seq % 7 == 0,
                    });
                }
                law.cwnd()
            },
        );
        out.push(Metric::new(name, "ns", s * 1e9 / ACKS as f64));
    }
}

/// Workload generation and the statistics reduction.
fn workloads_and_stats(out: &mut Vec<Metric>) {
    let cfg = dcn_scenarios::Scale::paper().fat_tree_config(Algo::PowerTcp);
    let horizon = Tick::from_millis(20);
    let n = ladder::flows(&cfg, DEFAULT_SEED, horizon).len();
    let s = time(|| ladder::flows(&cfg, DEFAULT_SEED, horizon).len());
    out.push(Metric::new(
        "workloads.poisson.flows_per_s",
        "1/s",
        n as f64 / s,
    ));

    const SAMPLES: usize = 100_000;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let values: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1.0 + (x % 1_000_000) as f64 / 1e4
        })
        .collect();
    let s = time(|| dcn_stats::Summary::of(&values));
    out.push(Metric::new(
        "stats.percentile.ns_per_sample",
        "ns",
        s * 1e9 / SAMPLES as f64,
    ));
}

/// The flow engine's two allocation paths (shape of `xp bench`'s
/// `flow_core_*` cases at 8× and 2× their size).
fn flow(out: &mut Vec<Metric>) {
    use dcn_flow::{simulate, FlowDef, FlowNet};
    let host_bps = Bandwidth::gbps(25).bytes_per_sec();
    let case = |total: u64, hosts: u64, stagger_s: f64, shared: bool| {
        let mut net = FlowNet::new();
        let up: Vec<_> = (0..hosts).map(|_| net.add_link(host_bps)).collect();
        let down: Vec<_> = (0..hosts).map(|_| net.add_link(host_bps)).collect();
        let fabric = shared.then(|| net.add_link(2.0 * host_bps));
        let flows: Vec<FlowDef> = (0..total)
            .map(|i| {
                let (src, dst) = ((i % hosts) as usize, ((i * 7 + 1) % hosts) as usize);
                let mut path = vec![up[src], down[dst]];
                path.extend(fabric);
                FlowDef {
                    seq: i,
                    size_bytes: 10_000 + (i * 37 % 100) * 500,
                    start_s: i as f64 * stagger_s,
                    path,
                }
            })
            .collect();
        let mut rounds = 0;
        let s = time(|| {
            let (_, stats) = simulate(&net, &flows, f64::INFINITY);
            assert_eq!(stats.completed, total, "every offered flow completes");
            rounds = stats.waterfill_rounds;
        });
        (total as f64 / s, rounds)
    };
    // 8k flows on a 64-host mesh with no shared link: every event
    // re-runs general water-filling. ~70% per-uplink load.
    let (general, rounds) = case(8_000, 64, 2.5e-7, false);
    // 200k flows through one shared fabric link: the fast path.
    let (fast, _) = case(200_000, 64, 1e-5, true);
    out.extend([
        Metric::new("flow.general.completions_per_s", "1/s", general),
        Metric::new("flow.general.waterfill_rounds", "count", rounds as f64),
        Metric::new("flow.fastpath.completions_per_s", "1/s", fast),
    ]);
}

/// Telemetry recorder and export, and the builtins where `rdcn` and the
/// fluid model do the work.
fn telemetry_rdcn_fluid(out: &mut Vec<Metric>) -> Result<(), String> {
    use dcn_telemetry::{decimate, window_mean, Recorder};
    const SAMPLES: u64 = 100_000;
    let s = time(|| {
        let mut rec = Recorder::new(Tick::from_micros(10), 4096);
        let ch = rec.channel("queue", "bytes");
        for i in 0..SAMPLES {
            rec.record_at(ch, Tick::from_micros(10 * i), (i % 977) as f64);
        }
        let kept = rec.get(ch).ring.to_vec();
        (decimate(&kept, 120).len(), window_mean(&kept, 8).len())
    });
    out.push(Metric::new(
        "telemetry.record.ns_per_sample",
        "ns",
        s * 1e9 / SAMPLES as f64,
    ));

    let scenario = |name: &str| builtin(name).ok_or(format!("{name} is not a builtin"));
    let ScenarioOutput::Trace(fig5) = run_scenario(&scenario("fig5")?, 1)? else {
        return Err("fig5 is not a timeseries scenario".into());
    };
    out.push(Metric::new(
        "telemetry.export.ms",
        "ms",
        time(|| fig5.to_json().len()) * 1e3,
    ));
    for (name, metric) in [
        ("fig8", "rdcn.fig8.ms"),
        ("fig3", "fluid.fig3.ms"),
        ("ablations", "fluid.ablations.ms"),
    ] {
        let spec = scenario(name)?;
        let s = time(|| run_scenario(&spec, 1).map(|o| o.to_json().len()));
        out.push(Metric::new(metric, "ms", s * 1e3));
    }
    Ok(())
}

/// The pipeline around the engines, on workload 5's spec and its 96
/// cached outcomes: `scenarios` parse/expand/reduce/write, `runner`
/// key/codec/cache/worker.
fn pipeline(out: &mut Vec<Metric>, cache_dir: &Path, scratch: &Path) -> Result<(), String> {
    let text = sweep96_spec(DEFAULT_SEED);
    let spec = ScenarioSpec::from_toml(&text)?;
    let points = sweep_points(&spec);
    let n = points.len() as f64;
    let us = |s: f64| s * 1e6;
    out.extend([
        Metric::new(
            "scenarios.toml.parse_us",
            "us",
            us(time(|| dcn_scenarios::toml::parse(&text).map(|t| t.len()))),
        ),
        Metric::new(
            "scenarios.spec.from_toml_us",
            "us",
            us(time(|| ScenarioSpec::from_toml(&text))),
        ),
        Metric::new(
            "scenarios.spec.to_toml_us",
            "us",
            us(time(|| spec.to_toml())),
        ),
        Metric::new(
            "scenarios.spec.cache_fragment_us",
            "us",
            us(time(|| spec.cache_fragment())),
        ),
        Metric::new(
            "scenarios.sweep.expand_us",
            "us",
            us(time(|| sweep_points(&spec))),
        ),
    ]);

    let cache = ResultCache::new(cache_dir);
    let keys: Vec<_> = points.iter().map(|p| point_key(&spec, p)).collect();
    let outcomes: Vec<PointOutcome> = keys
        .iter()
        .map(|k| match cache.load(k) {
            Some(Outcome::Sweep(o)) => Ok(*o),
            _ => Err("probe cache is missing a point".to_string()),
        })
        .collect::<Result<_, _>>()?;
    let boxed: Vec<Outcome> = outcomes
        .iter()
        .map(|o| Outcome::Sweep(Box::new(o.clone())))
        .collect();
    let encoded: Vec<String> = boxed.iter().map(codec::encode).collect();
    let other = ScenarioSpec::from_toml(&sweep96_spec(DEFAULT_SEED + 1000))?;
    let absent: Vec<_> = sweep_points(&other)
        .iter()
        .map(|p| point_key(&other, p))
        .collect();
    let store = ResultCache::new(scratch.join("store"));
    out.extend([
        Metric::new(
            "runner.key.point_key_us",
            "us",
            us(time(|| {
                for p in &points {
                    black_box(point_key(&spec, p));
                }
            })) / n,
        ),
        Metric::new(
            "runner.codec.encode_us",
            "us",
            us(time(|| {
                boxed.iter().map(|o| codec::encode(o).len()).sum::<usize>()
            })) / n,
        ),
        Metric::new(
            "runner.codec.decode_us",
            "us",
            us(time(|| {
                encoded
                    .iter()
                    .filter(|e| codec::decode_str(e).is_ok())
                    .count()
            })) / n,
        ),
        Metric::new(
            "runner.cache.load_hit_us",
            "us",
            us(time(|| {
                keys.iter().filter(|k| cache.load(k).is_some()).count()
            })) / n,
        ),
        Metric::new(
            "runner.cache.load_miss_us",
            "us",
            us(time(|| {
                absent.iter().filter(|k| cache.load(k).is_some()).count()
            })) / n,
        ),
        Metric::new(
            "runner.cache.store_us",
            "us",
            us(time(|| {
                keys.iter()
                    .zip(&boxed)
                    .filter(|(k, o)| store.store(k, o).is_ok())
                    .count()
            })) / n,
        ),
    ]);

    let result = SweepResult::build(&spec, outcomes.clone());
    let json = result.to_json();
    out.extend([
        Metric::new(
            "scenarios.report.build_ms",
            "ms",
            time_with(|| outcomes.clone(), |o| SweepResult::build(&spec, o)) * 1e3,
        ),
        Metric::new(
            "scenarios.report.to_json_ms",
            "ms",
            time(|| result.to_json().len()) * 1e3,
        ),
        Metric::new(
            "scenarios.report.to_csv_ms",
            "ms",
            time(|| result.to_csv().len()) * 1e3,
        ),
        Metric::new(
            "scenarios.diff.parse_mb_per_s",
            "MB/s",
            2.0 * json.len() as f64 / 1e6 / time(|| diff_reports(&json, &json, 0.0).is_ok()),
        ),
    ]);

    // The `--procs` worker protocol, in memory: manifest in, result lines
    // out and parsed back; what is left after the points' own compute is
    // the per-point cost of crossing the process boundary (spawn aside).
    let edit = edit_spec(DEFAULT_SEED, 0);
    let manifest = worker::manifest_json(&edit, &[0, 1, 2], None, 0, 1);
    let mut overhead_s = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = host::now();
        let mut lines = Vec::new();
        worker::worker_main(&mut manifest.as_bytes(), &mut lines)?;
        let text = String::from_utf8(lines).map_err(|_| "worker wrote non-UTF-8")?;
        let mut compute_ms = 0.0;
        for line in text.lines() {
            compute_ms += worker::parse_result_line(line)?.wall_ms;
        }
        overhead_s = overhead_s.min(host::since(t0) - compute_ms / 1e3);
    }
    out.push(Metric::new(
        "runner.worker.us_per_point",
        "us",
        us(overhead_s.max(0.0)) / 3.0,
    ));
    Ok(())
}

/// Seconds from sending `GET path` until the body shows `needle`, and
/// until the daemon closes the stream; plus the bytes received.
fn stream_until(addr: &str, path: &str, needle: &str) -> Result<(f64, f64, usize), String> {
    let t0 = host::now();
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("GET {path}: {e}"))?;
    let (mut raw, mut chunk) = (Vec::new(), [0u8; 16 * 1024]);
    let mut first_s = None;
    loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&chunk[..n]);
        if first_s.is_none() && raw.windows(needle.len()).any(|w| w == needle.as_bytes()) {
            first_s = Some(host::since(t0));
        }
    }
    let first_s = first_s.ok_or_else(|| format!("GET {path}: no {needle:?} in the stream"))?;
    Ok((first_s, host::since(t0), raw.len()))
}

/// The daemon as a client sees it, on a warm cache: HTTP round trip,
/// submit-to-first-span, submit-to-report, stream size, memory per job.
fn serve(out: &mut Vec<Metric>, cache_dir: &Path) -> Result<(), String> {
    const JOBS: usize = 100;
    let daemon = Daemon::start(cache_dir)?;
    let text = sweep96_spec(DEFAULT_SEED);
    let roundtrip = time(|| dcn_serve::client::get(&daemon.addr, "/jobs").map(|r| r.status));
    let rss0 = host::status_mb("VmRSS");
    let (mut first, mut full, mut bytes) = (f64::INFINITY, f64::INFINITY, 0);
    for id in 1..=JOBS {
        let t0 = host::now();
        let posted = dcn_serve::client::post(&daemon.addr, "/jobs", text.as_bytes())?;
        if posted.status != 201 {
            return Err(format!("probe POST /jobs: status {}", posted.status));
        }
        let submit_s = host::since(t0);
        let (first_s, _, n) = stream_until(
            &daemon.addr,
            &format!("/jobs/{id}/events"),
            "\"record\":\"span\"",
        )?;
        first = first.min(submit_s + first_s);
        bytes = n;
        let got = dcn_serve::client::get(&daemon.addr, &format!("/jobs/{id}/report.json"))?;
        if got.status != 200 {
            return Err(format!("probe GET report.json: status {}", got.status));
        }
        full = full.min(host::since(t0));
    }
    let grown = host::status_mb("VmRSS") - rss0;
    daemon.stop()?;
    out.extend([
        Metric::new("serve.http.roundtrip_us", "us", roundtrip * 1e6),
        Metric::new("serve.submit_to_first_span_ms", "ms", first * 1e3),
        Metric::new("serve.submit_to_report_ms", "ms", full * 1e3),
        Metric::new("serve.events_stream_bytes", "B", bytes as f64),
        Metric::new(
            "serve.rss_mb_per_100_jobs",
            "MB",
            grown * 100.0 / JOBS as f64,
        ),
    ]);
    Ok(())
}

/// Run the ladder and every probe once; scratch space under `out_dir`.
pub fn run(out_dir: &Path) -> Result<Vec<Metric>, String> {
    let scratch = out_dir.join(format!("scratch-probes-{}", std::process::id()));
    let cache_dir = scratch.join("cache");
    // Workload 5's 96 points, computed and stored once: the pipeline and
    // daemon probes read them back.
    report(
        &mut Tracer::new(),
        &sweep96_spec(DEFAULT_SEED),
        Some(&cache_dir),
        false,
    )?;
    let mut out = ladder::run();
    sim(&mut out);
    cc(&mut out);
    workloads_and_stats(&mut out);
    flow(&mut out);
    let done = telemetry_rdcn_fluid(&mut out)
        .and_then(|()| pipeline(&mut out, &cache_dir, &scratch))
        .and_then(|()| serve(&mut out, &cache_dir));
    let _ = std::fs::remove_dir_all(&scratch);
    done.map(|()| out)
}
