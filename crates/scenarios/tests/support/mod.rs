//! Spec shapes and hostile edits shared by `spec_roundtrip.rs` and
//! `dcn-runner`'s `cache_keys.rs` (which includes this file by path).

use dcn_scenarios::{
    builtin_specs, Algo, ParamSpec, ScenarioKind, ScenarioSpec, SizeSpec, TopologySpec,
};

/// Every builtin, then the shapes no builtin has: what the goldens pin
/// and the hostile-edit properties start from.
pub fn corpus() -> Vec<ScenarioSpec> {
    builtin_specs().into_iter().chain(golden_extras()).collect()
}

/// Shapes no builtin has, so the goldens also pin every omit-when-default
/// key written out (`buffer_cdf`, `params`, `window`, `channels`), the
/// dumbbell topology and fixed sizes.
fn golden_extras() -> Vec<ScenarioSpec> {
    let dumbbell = ScenarioSpec::new(
        "extra-dumbbell",
        TopologySpec::Dumbbell {
            pairs: 4,
            host_gbps: 25.0,
            bottleneck_gbps: 12.5,
        },
    )
    .describe("dumbbell, fixed sizes, every params key, \"quoted\" text")
    .poisson(SizeSpec::Fixed(50_000))
    .buffer_cdf(true)
    .algos([Algo::PowerTcp, Algo::Hpcc])
    .params([
        ParamSpec {
            gamma: Some(1.0),
            expected_flows: Some(32),
            hpcc_eta: Some(0.95),
            dt_alpha: Some(0.25),
        },
        ParamSpec {
            dt_alpha: Some(2.0),
            ..ParamSpec::default()
        },
    ])
    .loads([0.5, 1.0])
    .seeds([1, 2])
    .horizon_ms(1.0)
    .drain_ms(0.0);
    let mut windowed = dcn_scenarios::builtin("fig4")
        .expect("fig4 is a builtin")
        .channels(["queue", "cwnd"]);
    windowed.name = "extra-windowed".into();
    let ScenarioKind::Timeseries(timeseries) = &mut windowed.kind else {
        unreachable!("fig4 is a timeseries scenario")
    };
    timeseries.trace.window = 4;
    vec![dumbbell, windowed]
}

/// One hostile edit of a valid spec text, drawn from `r`: a byte
/// flipped, a line dropped, doubled or moved, or a number swapped for
/// one from the pool every range check should have an opinion on.
pub fn mutate(text: &str, r: &[u64; 3]) -> String {
    const NUMBERS: [&str; 10] = [
        "inf",
        "-inf",
        "1e999",
        "nan",
        "-1",
        "0",
        "0.0",
        "1e300",
        "9223372036854775807",
        "9223372036854775808",
    ];
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let i = (r[1] as usize) % lines.len();
    match r[0] % 5 {
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = (r[1] as usize) % bytes.len();
            bytes[at] = r[2] as u8;
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        1 => drop(lines.remove(i)),
        2 => lines.insert(i, lines[i].clone()),
        3 => {
            let line = lines.remove(i);
            lines.insert((r[2] as usize) % (lines.len() + 1), line);
        }
        _ => {
            if let Some((key, _)) = lines[i].clone().split_once(" = ") {
                let number = NUMBERS[(r[2] as usize) % NUMBERS.len()];
                lines[i] = match r[2] % 3 {
                    0 => format!("{key} = [{number}]"),
                    _ => format!("{key} = {number}"),
                };
            }
        }
    }
    lines.join("\n")
}
