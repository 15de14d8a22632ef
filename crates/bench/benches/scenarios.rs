//! Criterion benchmarks of scaled-down paper scenarios — one per figure
//! family, so regressions in any experiment path are caught by
//! `cargo bench`. (Figure regeneration is `xp run <builtin>`.)

use criterion::{criterion_group, criterion_main, Criterion};
use dcn_scenarios::{
    run_point, run_trace_entry_observed, trace_entries, Algo, Scale, ScenarioSpec, TraceScenario,
    TraceSpec,
};
use fluid_model::{phase_portrait, FluidParams, Law};
use std::hint::black_box;

/// A small timeseries spec for benchmarking one trace entry.
fn trace_spec(scenario: TraceScenario, horizon_ms: f64) -> ScenarioSpec {
    ScenarioSpec::timeseries(
        "bench",
        TraceSpec {
            max_rows: 60,
            ..TraceSpec::new(scenario)
        },
    )
    .algos([Algo::PowerTcp])
    .horizon_ms(horizon_ms)
}

fn bench_scenarios(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenarios");
    group.sample_size(10);

    group.bench_function("fig3_phase_portrait_power", |b| {
        let p = FluidParams::paper_example();
        b.iter(|| black_box(phase_portrait(Law::Power, &p).len()))
    });

    group.bench_function("fig4_incast_10to1_powertcp", |b| {
        let spec = trace_spec(
            TraceScenario::Incast {
                fan_in: 10,
                burst_bytes: 50_000,
                at_ms: 1.0,
            },
            2.0,
        );
        let entries = trace_entries(&spec);
        b.iter(|| {
            let e = run_trace_entry_observed(&spec, &entries[0]).0;
            black_box(e.stat("peak_queue_bytes"))
        })
    });

    group.bench_function("fig5_fairness_powertcp", |b| {
        let spec = trace_spec(
            TraceScenario::Fairness {
                flows: 4,
                stagger_ms: 1.0,
            },
            4.0,
        );
        let entries = trace_entries(&spec);
        b.iter(|| {
            let e = run_trace_entry_observed(&spec, &entries[0]).0;
            black_box(e.stat("jain_all_active"))
        })
    });

    group.bench_function("fig6_fct_tiny_powertcp", |b| {
        let spec = Scale::tiny().spec("bench");
        b.iter(|| {
            let r = run_point(&spec, Algo::PowerTcp, 0.4, 7);
            black_box(r.completed)
        })
    });

    group.bench_function("fig8_rdcn_one_week_powertcp", |b| {
        let spec = trace_spec(
            TraceScenario::Rdcn {
                weeks: 1,
                packet_gbps: 25.0,
                retcp_prebuffer_us: vec![],
            },
            4.0,
        );
        let entries = trace_entries(&spec);
        b.iter(|| {
            let e = run_trace_entry_observed(&spec, &entries[0]).0;
            black_box(e.stat("day_utilization"))
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_scenarios
}
criterion_main!(benches);
