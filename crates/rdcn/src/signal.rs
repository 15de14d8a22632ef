//! Circuit-state signalling to endpoints.
//!
//! reTCP's endpoint mechanism needs to know when the circuit serving its
//! destination rack comes up or goes down. In a real deployment the ToR
//! delivers this out-of-band; here a wrapper endpoint watches the (shared,
//! static) rotor schedule with timers and forwards
//! [`NetSignal::Circuit`] events to the wrapped transport's congestion
//! controllers. PowerTCP and HPCC ignore the signal (they discover
//! bandwidth through feedback), so the same harness runs all algorithms.

use crate::schedule::RotorSchedule;
use dcn_sim::{Endpoint, EndpointCtx, Packet};
use dcn_transport::TransportHost;
use powertcp_core::{Bandwidth, NetSignal, Tick};

/// Timer-key namespace for the wrapper. This relies on `dcn-transport`'s
/// key layout (`transport/src/timer_key.rs`: kind in the top byte, index
/// below) and on `TransportHost` numbering its kinds from 1: no key of
/// the wrapped host has all of `0x7F`'s bits set in its top byte.
const K_SIGNAL: u64 = 0x7F << 56;

/// Endpoint wrapper adding circuit-state signals to a [`TransportHost`].
pub struct CircuitAwareHost {
    inner: TransportHost,
    schedule: RotorSchedule,
    my_rack: usize,
    /// The rack whose circuit matters to this host's flows (the harness
    /// points it at the destination rack).
    target_rack: usize,
    circuit_bw: Bandwidth,
    was_up: bool,
}

impl CircuitAwareHost {
    /// Wrap `inner`, signalling circuit state for `my_rack → target_rack`.
    pub fn new(
        inner: TransportHost,
        schedule: RotorSchedule,
        my_rack: usize,
        target_rack: usize,
        circuit_bw: Bandwidth,
    ) -> Self {
        assert_ne!(my_rack, target_rack);
        CircuitAwareHost {
            inner,
            schedule,
            my_rack,
            target_rack,
            circuit_bw,
            was_up: false,
        }
    }

    fn next_transition(&self, now: Tick) -> Tick {
        if self
            .schedule
            .circuit_up(self.my_rack, self.target_rack, now)
        {
            // Currently up: next transition is this day's end.
            self.schedule.at(now).phase_end
        } else {
            self.schedule
                .next_day_start(self.my_rack, self.target_rack, now)
        }
    }

    fn check_and_signal(&mut self, ctx: &mut EndpointCtx<'_>) {
        let up = self
            .schedule
            .circuit_up(self.my_rack, self.target_rack, ctx.now);
        if up != self.was_up {
            self.was_up = up;
            self.inner.signal_all(
                ctx.now,
                NetSignal::Circuit {
                    up,
                    bandwidth: self.circuit_bw,
                },
            );
        }
        // Arm just past the next transition so `circuit_up` sees the new
        // phase when the timer fires.
        let next = self.next_transition(ctx.now);
        ctx.set_timer(next.max(ctx.now) + Tick::from_nanos(1), K_SIGNAL);
    }
}

impl Endpoint for CircuitAwareHost {
    fn on_start(&mut self, ctx: &mut EndpointCtx<'_>) {
        self.inner.on_start(ctx);
        self.check_and_signal(ctx);
    }

    fn on_packet(&mut self, pkt: Box<Packet>, ctx: &mut EndpointCtx<'_>) {
        self.inner.on_packet(pkt, ctx);
    }

    fn on_timer(&mut self, key: u64, ctx: &mut EndpointCtx<'_>) {
        if key & K_SIGNAL == K_SIGNAL {
            self.check_and_signal(ctx);
        } else {
            self.inner.on_timer(key, ctx);
        }
    }

    fn cc_samples(&self, out: &mut Vec<dcn_sim::CcFlowSample>) {
        self.inner.cc_samples(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_times_follow_schedule() {
        let s = RotorSchedule::paper_defaults();
        // my=0 target=1: matching 0, day [0, 225us).
        let inner = TransportHost::new(
            dcn_transport::TransportConfig::default(),
            dcn_transport::MetricsHub::new_shared(),
            Box::new(|_, _| unreachable!("no flows in this test")),
        );
        let h = CircuitAwareHost::new(inner, s, 0, 1, Bandwidth::gbps(100));
        // During the day, next transition = day end.
        assert_eq!(
            h.next_transition(Tick::from_micros(10)),
            Tick::from_micros(225)
        );
        // During the rest of the week, next transition = next week's day 0.
        let later = Tick::from_micros(300);
        let next = h.next_transition(later);
        assert_eq!(next, s.week());
    }
}
