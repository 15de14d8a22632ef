//! Measurement probes: periodic samplers of switch queues, shared
//! buffers, link TX counters, port throughput, and per-flow
//! congestion-control state.
//!
//! Probes come in two layers:
//!
//! * **Sink-generic probes** (`*_probe`) — build a tracer closure that
//!   feeds any `FnMut(Tick, f64)` sink. This is the hook point the
//!   `dcn-telemetry` recorder plugs into (the scenario trace engine passes
//!   closures that record into ring-buffered channels).
//! * **Series tracers** (`*_tracer`) — convenience wrappers over the
//!   probes that push into a shared [`Series`] handle (`Rc<RefCell<…>>` —
//!   the simulator is single-threaded by design).

use crate::engine::Network;
use crate::ids::{NodeId, PortId};
pub use crate::node::CcFlowSample;
use powertcp_core::Tick;
use std::cell::RefCell;
use std::rc::Rc;

/// A sampled time series.
pub type Series = Rc<RefCell<Vec<(Tick, f64)>>>;

/// Allocate an empty series handle.
pub fn series() -> Series {
    Rc::new(RefCell::new(Vec::new()))
}

// ---------------------------------------------------------------------
// Sink-generic probes (telemetry hook points)
// ---------------------------------------------------------------------

/// Probe sampling a switch egress port's queue length in bytes.
pub fn queue_probe(
    switch: NodeId,
    port: PortId,
    mut sink: impl FnMut(Tick, f64) + 'static,
) -> impl FnMut(&Network, Tick) + 'static {
    move |net, now| {
        let q = net.switch(switch).port(port).queued_bytes();
        sink(now, q as f64);
    }
}

/// Probe sampling a switch's total shared-buffer occupancy in bytes.
pub fn buffer_probe(
    switch: NodeId,
    mut sink: impl FnMut(Tick, f64) + 'static,
) -> impl FnMut(&Network, Tick) + 'static {
    move |net, now| {
        let b = net.switch(switch).buffer_used();
        sink(now, b as f64);
    }
}

/// Probe sampling a switch egress port's cumulative link TX counter in
/// bytes (the same counter INT stamps; throughput is its derivative).
pub fn tx_bytes_probe(
    switch: NodeId,
    port: PortId,
    mut sink: impl FnMut(Tick, f64) + 'static,
) -> impl FnMut(&Network, Tick) + 'static {
    move |net, now| {
        let tx = net.switch(switch).port(port).tx().tx_bytes;
        sink(now, tx as f64);
    }
}

/// Probe sampling throughput (Gbps) of the egress port(s) `tx_bytes`
/// reads the cumulative TX counter of, computed between samples.
pub fn rate_probe(
    tx_bytes: impl Fn(&Network) -> u64 + 'static,
    mut sink: impl FnMut(Tick, f64) + 'static,
) -> impl FnMut(&Network, Tick) + 'static {
    let mut last: Option<(Tick, u64)> = None;
    move |net, now| {
        let tx = tx_bytes(net);
        if let Some((t0, tx0)) = last {
            let dt = now.saturating_sub(t0).as_secs_f64();
            if dt > 0.0 {
                sink(now, (tx - tx0) as f64 * 8.0 / dt / 1e9);
            }
        }
        last = Some((now, tx));
    }
}

/// Probe sampling throughput (Gbps) of a switch egress port, computed
/// from the cumulative TX counter between samples.
pub fn throughput_probe(
    switch: NodeId,
    port: PortId,
    sink: impl FnMut(Tick, f64) + 'static,
) -> impl FnMut(&Network, Tick) + 'static {
    rate_probe(move |net| net.switch(switch).port(port).tx().tx_bytes, sink)
}

/// Probe sampling a host's transmit throughput (Gbps) from its cumulative
/// NIC counter — per-sender rate series for fairness plots.
pub fn host_throughput_probe(
    host: NodeId,
    sink: impl FnMut(Tick, f64) + 'static,
) -> impl FnMut(&Network, Tick) + 'static {
    rate_probe(move |net| net.host(host).nic.tx.tx_bytes, sink)
}

/// Probe sampling a host endpoint's per-flow congestion-control state
/// (cwnd / pacing rate / PowerTCP Γ) via [`crate::node::Endpoint::cc_samples`].
/// The scratch buffer is reused across samples; the sink sees each tick's
/// active flows in flow start order.
pub fn cc_probe(
    host: NodeId,
    mut sink: impl FnMut(Tick, &[CcFlowSample]) + 'static,
) -> impl FnMut(&Network, Tick) + 'static {
    let mut buf: Vec<CcFlowSample> = Vec::new();
    move |net, now| {
        buf.clear();
        net.host(host).app.cc_samples(&mut buf);
        sink(now, &buf);
    }
}

// ---------------------------------------------------------------------
// Series tracers (convenience wrappers)
// ---------------------------------------------------------------------

fn into_series(out: Series) -> impl FnMut(Tick, f64) + 'static {
    move |t, v| out.borrow_mut().push((t, v))
}

/// Tracer sampling a switch egress port's queue length in bytes.
pub fn queue_tracer(
    switch: NodeId,
    port: PortId,
    out: Series,
) -> impl FnMut(&Network, Tick) + 'static {
    queue_probe(switch, port, into_series(out))
}

/// Tracer sampling a switch's total shared-buffer occupancy in bytes.
pub fn buffer_tracer(switch: NodeId, out: Series) -> impl FnMut(&Network, Tick) + 'static {
    buffer_probe(switch, into_series(out))
}

/// Tracer sampling throughput (Gbps) of a switch egress port, computed
/// from the cumulative `tx_bytes` counter between samples.
pub fn throughput_tracer(
    switch: NodeId,
    port: PortId,
    out: Series,
) -> impl FnMut(&Network, Tick) + 'static {
    throughput_probe(switch, port, into_series(out))
}

/// Tracer sampling a host's cumulative transmitted bytes as throughput
/// (Gbps) — per-sender rate series for fairness plots.
pub fn host_throughput_tracer(host: NodeId, out: Series) -> impl FnMut(&Network, Tick) + 'static {
    host_throughput_probe(host, into_series(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::node::NullEndpoint;
    use crate::switch::SwitchConfig;
    use crate::topology::build_star;
    use powertcp_core::Bandwidth;

    #[test]
    fn tracers_sample_on_schedule() {
        let mut mk =
            |_: NodeId, _: usize| -> Box<dyn crate::node::Endpoint> { Box::new(NullEndpoint) };
        let star = build_star(
            2,
            Bandwidth::gbps(25),
            Tick::from_micros(1),
            SwitchConfig::default(),
            &mut mk,
        );
        let sw = star.switch;
        let mut sim = Simulator::new(star.net);
        let qs = series();
        sim.add_tracer(
            Tick::from_micros(10),
            queue_tracer(sw, PortId(0), qs.clone()),
        );
        let bs = series();
        sim.add_tracer(Tick::from_micros(10), buffer_tracer(sw, bs.clone()));
        sim.run_until(Tick::from_micros(100));
        // No live events, so run_until pops only tracer samples up to
        // 100us — plus the t=0 baseline row taken at prime time.
        assert_eq!(qs.borrow().len(), 11);
        assert_eq!(bs.borrow().len(), 11);
        assert_eq!(qs.borrow()[0].0, Tick::ZERO, "baseline sample at t=0");
        assert!(qs.borrow().iter().all(|&(_, v)| v == 0.0));
    }

    /// A tracer registered after the clock has moved used to be scheduled
    /// at the absolute time `every`: in the past (a debug build panicked,
    /// a release build clamped and sampled at once).
    #[test]
    fn a_late_tracer_starts_one_interval_on() {
        let mut mk =
            |_: NodeId, _: usize| -> Box<dyn crate::node::Endpoint> { Box::new(NullEndpoint) };
        let star = build_star(
            2,
            Bandwidth::gbps(25),
            Tick::from_micros(1),
            SwitchConfig::default(),
            &mut mk,
        );
        let sw = star.switch;
        let mut sim = Simulator::new(star.net);
        // Something to pop, so the clock stands at 100 us.
        sim.add_tracer(Tick::from_micros(100), |_, _| {});
        sim.run_until(Tick::from_micros(100));
        assert_eq!(sim.now(), Tick::from_micros(100));
        let bs = series();
        sim.add_tracer(Tick::from_micros(10), buffer_tracer(sw, bs.clone()));
        sim.run_until(Tick::from_micros(130));
        let at: Vec<u64> = bs.borrow().iter().map(|&(t, _)| t.as_ps()).collect();
        // No baseline row, first sample one interval after registration.
        assert_eq!(at, [110_000_000, 120_000_000, 130_000_000]);
    }

    #[test]
    fn generic_probes_feed_custom_sinks() {
        let mut mk =
            |_: NodeId, _: usize| -> Box<dyn crate::node::Endpoint> { Box::new(NullEndpoint) };
        let star = build_star(
            2,
            Bandwidth::gbps(25),
            Tick::from_micros(1),
            SwitchConfig::default(),
            &mut mk,
        );
        let sw = star.switch;
        let host = NodeId(1);
        let mut sim = Simulator::new(star.net);
        let count = Rc::new(RefCell::new(0u32));
        let c2 = count.clone();
        sim.add_tracer(
            Tick::from_micros(10),
            tx_bytes_probe(sw, PortId(0), move |_, v| {
                assert_eq!(v, 0.0); // idle network transmits nothing
                *c2.borrow_mut() += 1;
            }),
        );
        // NullEndpoint exposes no flows: the cc probe must see empty slices.
        let cc_seen = Rc::new(RefCell::new(0u32));
        let cs = cc_seen.clone();
        sim.add_tracer(
            Tick::from_micros(10),
            cc_probe(host, move |_, flows| {
                assert!(flows.is_empty());
                *cs.borrow_mut() += 1;
            }),
        );
        sim.run_until(Tick::from_micros(50));
        // 5 scheduled samples + the t=0 baseline.
        assert_eq!(*count.borrow(), 6);
        assert_eq!(*cc_seen.borrow(), 6);
    }
}
