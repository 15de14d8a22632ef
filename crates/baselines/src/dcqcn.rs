//! DCQCN (Zhu et al., SIGCOMM 2015): ECN-driven rate control for RDMA —
//! the production baseline the paper reports 80% tail-FCT gains against.
//!
//! Receiver-side CNP generation is folded into the ACK stream (an ACK with
//! `ecn_marked` plays the role of a CNP; reactions are rate-limited to one
//! per CNP interval, matching NIC behaviour — see DESIGN.md substitution
//! table). The NP/RP state machine follows the paper:
//!
//! * **Rate decrease** on CNP: `Rt ← Rc`, `Rc ← Rc(1 − α/2)`,
//!   `α ← (1−g)α + g`.
//! * **α decay** every `alpha_timer` without CNPs: `α ← (1−g)α`.
//! * **Rate increase** by timer and byte counter: fast recovery halves the
//!   gap to `Rt` for the first `F` rounds, then additive (`Rt += R_AI`),
//!   then hyper (`Rt += R_HAI`) increase.
//!
//! Constants (the paper's and common NIC defaults; no spec sets them):
//! `g = 1/256`, CNP interval 50 µs, α timer 55 µs, increase timer
//! 300 µs, byte counter 10 MB, `F = 5` fast-recovery rounds,
//! `R_AI = 40 Mb/s`, `R_HAI = 200 Mb/s`, and a 10 Mb/s rate floor.
//!
//! DCQCN is *voltage-based* in the paper's classification (reacts to ECN
//! marks — a queue-threshold signal) and needs a standing queue at the
//! marking threshold, which is exactly what Figures 6–7 show as inflated
//! short-flow tail FCTs.

use powertcp_core::{AckInfo, Bandwidth, CcContext, CongestionControl, LossKind, Tick};

/// EWMA gain `g` for α.
const G: f64 = 1.0 / 256.0;
/// Minimum interval between rate-decrease reactions (CNP interval).
const CNP_INTERVAL: Tick = Tick::from_micros(50);
/// α decay timer.
const ALPHA_TIMER: Tick = Tick::from_micros(55);
/// Rate-increase timer period.
const INCREASE_TIMER: Tick = Tick::from_micros(300);
/// Byte counter threshold for rate increase.
const BYTE_COUNTER: u64 = 10_000_000;
/// Fast-recovery rounds `F` before additive increase.
const FAST_RECOVERY_ROUNDS: u32 = 5;
/// Additive increase step `R_AI`.
const RATE_AI: Bandwidth = Bandwidth::mbps(40);
/// Hyper increase step `R_HAI`.
const RATE_HAI: Bandwidth = Bandwidth::mbps(200);
/// Minimum rate floor.
const MIN_RATE: Bandwidth = Bandwidth::mbps(10);

/// The DCQCN rate-based sender.
#[derive(Clone, Debug)]
pub struct Dcqcn {
    ctx: CcContext,
    /// Current rate `Rc` (bytes/s kept as f64 for precision).
    rc: f64,
    /// Target rate `Rt`.
    rt: f64,
    alpha: f64,
    last_decrease: Option<Tick>,
    last_cnp: Tick,
    /// Rate-increase bookkeeping.
    bytes_since_increase: u64,
    timer_rounds: u32,
    byte_rounds: u32,
    /// Deadlines for autonomous clocks.
    next_alpha_update: Tick,
    next_increase: Tick,
    line_rate: f64,
}

impl Dcqcn {
    /// Create a DCQCN instance for one flow; starts at line rate, like
    /// hardware (DCQCN has no slow start).
    pub fn new(ctx: CcContext) -> Self {
        let line = ctx.host_bw.bytes_per_sec();
        Dcqcn {
            ctx,
            rc: line,
            rt: line,
            alpha: 1.0,
            last_decrease: None,
            last_cnp: Tick::ZERO,
            bytes_since_increase: 0,
            timer_rounds: 0,
            byte_rounds: 0,
            next_alpha_update: ALPHA_TIMER,
            next_increase: INCREASE_TIMER,
            line_rate: line,
        }
    }

    fn decrease(&mut self, now: Tick) {
        self.rt = self.rc;
        self.rc = (self.rc * (1.0 - self.alpha / 2.0)).max(MIN_RATE.bytes_per_sec());
        self.alpha = (1.0 - G) * self.alpha + G;
        self.timer_rounds = 0;
        self.byte_rounds = 0;
        self.bytes_since_increase = 0;
        self.last_decrease = Some(now);
        self.next_increase = now + INCREASE_TIMER;
    }

    fn increase(&mut self) {
        let rounds = self.timer_rounds.max(self.byte_rounds);
        if rounds < FAST_RECOVERY_ROUNDS {
            // Fast recovery: close half the gap to the target.
        } else if rounds < FAST_RECOVERY_ROUNDS * 2 {
            // Additive increase.
            self.rt = (self.rt + RATE_AI.bytes_per_sec()).min(self.line_rate);
        } else {
            // Hyper increase.
            self.rt = (self.rt + RATE_HAI.bytes_per_sec()).min(self.line_rate);
        }
        self.rc = ((self.rc + self.rt) / 2.0).min(self.line_rate);
    }

    fn run_clocks(&mut self, now: Tick) {
        while now >= self.next_alpha_update {
            // α decays only if no CNP arrived during the last period.
            if now.saturating_sub(self.last_cnp) >= ALPHA_TIMER {
                self.alpha *= 1.0 - G;
            }
            self.next_alpha_update += ALPHA_TIMER;
        }
        while now >= self.next_increase {
            self.timer_rounds += 1;
            self.increase();
            self.next_increase += INCREASE_TIMER;
        }
    }
}

impl CongestionControl for Dcqcn {
    fn on_ack(&mut self, ack: &AckInfo<'_>) {
        self.run_clocks(ack.now);
        // Byte-counter driven increase.
        self.bytes_since_increase += ack.newly_acked;
        if self.bytes_since_increase >= BYTE_COUNTER {
            self.bytes_since_increase = 0;
            self.byte_rounds += 1;
            self.increase();
        }
        // CNP-equivalent: marked ACK, rate-limited.
        if ack.ecn_marked {
            self.last_cnp = ack.now;
            let allowed = self
                .last_decrease
                .is_none_or(|t| ack.now.saturating_sub(t) >= CNP_INTERVAL);
            if allowed {
                self.decrease(ack.now);
            }
        }
    }

    fn on_loss(&mut self, now: Tick, kind: LossKind) {
        if kind == LossKind::Timeout {
            self.decrease(now);
        }
    }

    fn poll_timer(&mut self, now: Tick) -> Option<Tick> {
        self.run_clocks(now);
        Some(self.next_alpha_update.min(self.next_increase))
    }

    fn cwnd(&self) -> f64 {
        // DCQCN is purely rate-based; expose a window of one rate-BDP plus
        // headroom so pacing is the binding control.
        (self.rc * self.ctx.base_rtt.as_secs_f64() * 2.0).max(self.ctx.mtu as f64)
    }

    fn pacing_rate(&self) -> Bandwidth {
        Bandwidth::from_bps((self.rc * 8.0) as u64)
    }

    fn name(&self) -> &'static str {
        "dcqcn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CcContext {
        CcContext {
            base_rtt: Tick::from_micros(20),
            host_bw: Bandwidth::gbps(25),
            mtu: 1000,
            expected_flows: 8,
        }
    }

    fn ack(now: Tick, marked: bool) -> AckInfo<'static> {
        AckInfo {
            now,
            ack_seq: 1000,
            newly_acked: 1000,
            snd_nxt: 100_000,
            rtt: Tick::from_micros(22),
            int: None,
            ecn_marked: marked,
        }
    }

    #[test]
    fn starts_at_line_rate() {
        let d = Dcqcn::new(ctx());
        assert_eq!(d.pacing_rate(), Bandwidth::gbps(25));
    }

    #[test]
    fn cnp_halves_rate_with_full_alpha() {
        let mut d = Dcqcn::new(ctx());
        let line = Bandwidth::gbps(25).bytes_per_sec();
        d.on_ack(&ack(Tick::from_micros(100), true));
        // α starts at ~1 (one decay period may elapse): Rc -> ~Rc/2.
        assert!((d.rc - line / 2.0).abs() < line * 0.01);
    }

    #[test]
    fn cnp_reactions_are_rate_limited() {
        let mut d = Dcqcn::new(ctx());
        d.on_ack(&ack(Tick::from_micros(100), true));
        let r1 = d.rc;
        // A second CNP within the interval must not decrease again.
        d.on_ack(&ack(Tick::from_micros(110), true));
        assert_eq!(d.rc, r1);
        // After the interval, it does.
        d.on_ack(&ack(Tick::from_micros(160), true));
        assert!(d.rc < r1);
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = Dcqcn::new(ctx());
        d.on_ack(&ack(Tick::from_micros(10), true));
        let a0 = d.alpha;
        // 1 ms of unmarked ACKs: many alpha-timer periods elapse.
        for i in 1..20u64 {
            d.on_ack(&ack(Tick::from_micros(10 + i * 55), false));
        }
        assert!(d.alpha < a0, "alpha must decay: {} -> {}", a0, d.alpha);
    }

    #[test]
    fn rate_recovers_toward_line_rate() {
        let mut d = Dcqcn::new(ctx());
        d.on_ack(&ack(Tick::from_micros(10), true));
        let dropped = d.rc;
        // 10 ms without marks: timer-driven fast recovery + additive.
        for i in 1..40u64 {
            d.on_ack(&ack(Tick::from_micros(10 + i * 250), false));
        }
        assert!(
            d.rc > dropped * 1.5,
            "rate must recover: {} -> {}",
            dropped,
            d.rc
        );
        // And never exceed line rate.
        assert!(d.rc <= Bandwidth::gbps(25).bytes_per_sec() + 1.0);
    }

    #[test]
    fn poll_timer_reports_next_clock() {
        let mut d = Dcqcn::new(ctx());
        let next = d.poll_timer(Tick::from_micros(1)).unwrap();
        assert!(next > Tick::from_micros(1));
        assert!(next <= Tick::from_micros(300));
    }

    #[test]
    fn rate_never_below_floor() {
        let mut d = Dcqcn::new(ctx());
        for i in 0..200u64 {
            d.on_ack(&ack(Tick::from_micros(i * 60), true));
        }
        assert!(d.rc >= MIN_RATE.bytes_per_sec());
    }
}
