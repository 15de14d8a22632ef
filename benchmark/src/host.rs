//! The harness's only contact with the host: the measurement clock, the
//! process's CPU time, and its memory high-water mark.

use std::time::Instant;

/// The one wall-clock read of the harness; every timing goes through it.
pub fn now() -> Instant {
    #[allow(clippy::disallowed_methods)]
    Instant::now() // lint:allow(R2): the benchmark's measurement clock — timings are the output, and no report byte or digest is derived from them
}

/// Seconds elapsed since `t0`.
pub fn since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat` fields 14 and 15 at the Linux-universal 100 ticks/s.
/// 0 where procfs is absent.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, field 3 being the first of `rest`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// A `/proc/self/status` memory line (`VmHWM`, `VmRSS`) in MB; 0 where
/// procfs is absent.
pub fn status_mb(key: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
