//! Spec shapes and hostile edits shared by `spec_roundtrip.rs` and
//! `dcn-runner`'s `cache_keys.rs` (which includes this file by path).

use dcn_scenarios::{builtin_specs, ScenarioSpec};

/// Every builtin, then the shapes no builtin has: what the goldens pin
/// and the hostile-edit properties start from.
pub fn corpus() -> Vec<ScenarioSpec> {
    let extras = EXTRAS
        .iter()
        .map(|text| ScenarioSpec::from_toml(text).expect("an extra parses"));
    builtin_specs().into_iter().chain(extras).collect()
}

/// Shapes no builtin has, so the goldens also pin every omit-when-default
/// key written out (`buffer_cdf`, `params`, `window`, `channels`), the
/// dumbbell topology and fixed sizes. Each text is its spec's `to_toml()`,
/// which `spec_roundtrip.rs::every_builtin_round_trips_through_toml`
/// checks as it checks the builtin files.
pub const EXTRAS: [&str; 2] = [
    r#"name = "extra-dumbbell"
description = "dumbbell, fixed sizes, every params key, \"quoted\" text"
buffer_cdf = true
horizon_ms = 1.0
drain_ms = 0.0

[topology]
kind = "dumbbell"
pairs = 4
host_gbps = 25.0
bottleneck_gbps = 12.5

[workload.poisson]
sizes = "fixed"
fixed_bytes = 50000

[sweep]
algos = ["powertcp", "hpcc"]
params = ["gamma=1,n=32,eta=0.95,alpha=0.25", "alpha=2"]
loads = [0.5, 1.0]
seeds = [1, 2]
"#,
    r#"name = "extra-windowed"
description = "10:1 incast onto a 25G downlink: queue/throughput/cwnd/power traces per protocol, paper Figure 4 (top row; scale fan_in for the bottom row)"
kind = "timeseries"

[trace]
scenario = "incast"
tick_us = 20.0
max_samples = 4096
max_rows = 120
window = 4
channels = ["queue", "cwnd"]
fan_in = 10
burst_bytes = 150000
at_ms = 1.0
horizon_ms = 5.0

[sweep]
algos = ["powertcp", "theta-powertcp", "hpcc", "dcqcn", "timely", "homa:1"]
"#,
];

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
