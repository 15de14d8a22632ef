//! The paper's claims that the toy-scale builtins can carry, as assertions
//! on their reports.
//!
//! Each test runs a builtin in-process and reads its stats by name
//! (`TraceEntry::stat`), never the rendered text. Byte-pinned baselines
//! prove that nothing moved; these prove that what the reports say is
//! what the paper says. Measured values (release build) are in each
//! test's comment.
//!
//! fig4-large, fig8 and fig8-50g are not here: in this test profile
//! (overflow checks on) they stop at the go-back-N sequence underflow
//! that `scripts/checked_builtins.sh` lists, so their rows wait for that
//! fix.

use dcn_scenarios::{builtin, run_trace};
use dcn_telemetry::{TraceEntry, TraceReport};

fn report(name: &str) -> TraceReport {
    let spec = builtin(name).unwrap_or_else(|| panic!("{name} is a builtin"));
    run_trace(&spec, 2).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn entry<'a>(r: &'a TraceReport, label: &str) -> &'a TraceEntry {
    r.entries
        .iter()
        .find(|e| e.label == label)
        .unwrap_or_else(|| panic!("{}: no entry {label}", r.name))
}

fn stat(r: &TraceReport, label: &str, name: &str) -> f64 {
    entry(r, label)
        .stat(name)
        .unwrap_or_else(|| panic!("{} {label}: no stat {name}", r.name))
}

/// Figure 4 (§4.2): under a 10:1 incast PowerTCP's queue peaks at most
/// half as high as the current- and ECN-based laws'.
/// Measured: 228,000 (INT) and 230,000 (delay) bytes against DCQCN's
/// 535,000 and TIMELY's 536,000.
#[test]
fn fig4_powertcp_peak_queue_is_at_most_half_of_dcqcn_and_timely() {
    let r = report("fig4");
    let peak = |label| stat(&r, label, "peak_queue_bytes");
    for power in ["PowerTCP-INT", "PowerTCP-Delay"] {
        for other in ["DCQCN", "TIMELY"] {
            assert!(
                peak(power) <= 0.5 * peak(other),
                "{power} {} vs {other} {}",
                peak(power),
                peak(other)
            );
        }
    }
}

/// Figure 5 (§4.2): PowerTCP shares the bottleneck fairly while every
/// flow is active; TIMELY, with no unique equilibrium, shares it less
/// fairly. Measured: 1.0000 for both PowerTCP variants, 0.9723 for
/// TIMELY.
#[test]
fn fig5_powertcp_is_fair_and_timely_is_less_so() {
    let r = report("fig5");
    let jain = |label| stat(&r, label, "jain_all_active");
    for power in ["PowerTCP-INT", "PowerTCP-Delay"] {
        assert!(jain(power) >= 0.99, "{power} {}", jain(power));
        assert!(
            jain("TIMELY") < jain(power),
            "TIMELY {} vs {power} {}",
            jain("TIMELY"),
            jain(power)
        );
    }
}

/// Theorems 1–3 (§3.3, Appendix A): stability, exponential convergence
/// and β-weighted fairness each hold on the fluid model.
#[test]
fn theorems_all_pass() {
    let r = report("theorems");
    assert_eq!(r.entries.len(), 3);
    for e in &r.entries {
        assert_eq!(e.stat("pass"), Some(1.0), "{} fails", e.label);
    }
}

/// Figures 10 and 11 (Appendix D): HOMA's queue does not shrink as its
/// overcommitment level grows. Measured: 1,542,000 → 1,547,000 bytes
/// (fig10) and 221,000 → 244,000 (fig11) over overcommitment 1–6.
#[test]
fn homa_queue_does_not_shrink_with_overcommitment() {
    for name in ["fig10", "fig11"] {
        let r = report(name);
        let peaks: Vec<f64> = r
            .entries
            .iter()
            .map(|e| stat(&r, &e.label, "peak_queue_bytes"))
            .collect();
        assert!(peaks.len() >= 2, "{name}: {peaks:?}");
        assert!(peaks.windows(2).all(|w| w[0] <= w[1]), "{name}: {peaks:?}");
    }
}
