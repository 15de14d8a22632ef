//! The rotor (round-robin) circuit schedule of §5.
//!
//! One optical circuit switch connects all ToRs and cycles through
//! `n_tors − 1` perfect matchings; it stays in a matching for one *day*
//! (225 µs) and takes one *night* (20 µs) to reconfigure. Every ToR pair
//! is directly connected once per *week* (a full cycle of matchings).
//! Matching `m` connects ToR `i` to ToR `(i + m + 1) mod n`.

use powertcp_core::Tick;

/// The rotation schedule; cheap to copy and shared by ToRs, the circuit
/// switch, and circuit-aware endpoints.
#[derive(Clone, Copy, Debug)]
pub struct RotorSchedule {
    /// Number of ToRs on the circuit switch.
    pub n_tors: usize,
    /// Time spent in each matching ("day", paper: 225 µs).
    pub day: Tick,
    /// Reconfiguration gap ("night", paper: 20 µs).
    pub night: Tick,
}

/// Where a given instant falls in the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulePoint {
    /// Index of the current (or upcoming, if in night) matching.
    pub matching: usize,
    /// True during a day (circuit usable), false during a night.
    pub in_day: bool,
    /// End of the current day/night phase.
    pub phase_end: Tick,
}

impl RotorSchedule {
    /// Paper parameters: 25 ToRs, 225 µs days, 20 µs nights.
    pub fn paper_defaults() -> Self {
        RotorSchedule {
            n_tors: 25,
            day: Tick::from_micros(225),
            night: Tick::from_micros(20),
        }
    }

    /// Matchings per week.
    pub fn num_matchings(&self) -> usize {
        self.n_tors - 1
    }

    /// One slot = day + night.
    pub fn slot(&self) -> Tick {
        self.day + self.night
    }

    /// One week = all matchings.
    pub fn week(&self) -> Tick {
        self.slot() * self.num_matchings() as u64
    }

    /// The ToR that `tor` connects to under matching `m`.
    pub fn peer_of(&self, tor: usize, m: usize) -> usize {
        debug_assert!(tor < self.n_tors && m < self.num_matchings());
        (tor + m + 1) % self.n_tors
    }

    /// Locate `now` within the schedule.
    pub fn at(&self, now: Tick) -> SchedulePoint {
        let slot = self.slot().as_ps();
        let t = now.as_ps();
        let slot_idx = t / slot;
        let within = t - slot_idx * slot;
        let matching = (slot_idx % self.num_matchings() as u64) as usize;
        if within < self.day.as_ps() {
            SchedulePoint {
                matching,
                in_day: true,
                phase_end: Tick::from_ps(slot_idx * slot + self.day.as_ps()),
            }
        } else {
            SchedulePoint {
                // Night belongs to the *next* matching (reconfiguring).
                matching: ((slot_idx + 1) % self.num_matchings() as u64) as usize,
                in_day: false,
                phase_end: Tick::from_ps((slot_idx + 1) * slot),
            }
        }
    }

    /// Next time at or after `now` when the circuit from `src` to `dst`
    /// comes up (start of their shared day).
    pub fn next_day_start(&self, src: usize, dst: usize, now: Tick) -> Tick {
        debug_assert_ne!(src, dst);
        // Matching index that connects src -> dst.
        let m = (dst + self.n_tors - src - 1) % self.n_tors;
        debug_assert!(m < self.num_matchings());
        let week = self.week().as_ps();
        let offset = self.slot().as_ps() * m as u64;
        let t = now.as_ps();
        let base = t / week * week + offset;
        if base >= t {
            Tick::from_ps(base)
        } else {
            Tick::from_ps(base + week)
        }
    }

    /// True if the circuit `src → dst` is currently up (their matching's
    /// day is in progress).
    pub fn circuit_up(&self, src: usize, dst: usize, now: Tick) -> bool {
        let p = self.at(now);
        p.in_day && self.peer_of(src, p.matching) == dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> RotorSchedule {
        RotorSchedule::paper_defaults()
    }

    #[test]
    fn paper_dimensions() {
        let s = s();
        assert_eq!(s.num_matchings(), 24);
        assert_eq!(s.slot(), Tick::from_micros(245));
        assert_eq!(s.week(), Tick::from_micros(245 * 24));
    }

    #[test]
    fn matchings_are_permutations_covering_all_pairs() {
        let s = s();
        for m in 0..s.num_matchings() {
            let mut seen = vec![false; s.n_tors];
            for i in 0..s.n_tors {
                let j = s.peer_of(i, m);
                assert_ne!(i, j, "no self loops");
                assert!(!seen[j], "matching {m} maps two ToRs to {j}");
                seen[j] = true;
            }
        }
        // Every ordered pair is served exactly once per week.
        for i in 0..s.n_tors {
            let mut peers: Vec<usize> = (0..s.num_matchings()).map(|m| s.peer_of(i, m)).collect();
            peers.sort();
            peers.dedup();
            assert_eq!(peers.len(), s.num_matchings());
        }
    }

    #[test]
    fn at_day_night_boundaries() {
        let s = s();
        let p = s.at(Tick::ZERO);
        assert!(p.in_day);
        assert_eq!(p.matching, 0);
        assert_eq!(p.phase_end, Tick::from_micros(225));
        // Just inside the night.
        let p = s.at(Tick::from_micros(225));
        assert!(!p.in_day);
        assert_eq!(p.matching, 1);
        assert_eq!(p.phase_end, Tick::from_micros(245));
        // Second day.
        let p = s.at(Tick::from_micros(245));
        assert!(p.in_day);
        assert_eq!(p.matching, 1);
    }

    #[test]
    fn matching_wraps_at_week() {
        let s = s();
        let week = s.week();
        let p = s.at(week);
        assert_eq!(p.matching, 0);
        assert!(p.in_day);
    }

    #[test]
    fn next_day_start_and_circuit_up_agree() {
        let s = s();
        let (src, dst) = (3, 11);
        let t0 = s.next_day_start(src, dst, Tick::ZERO);
        // Circuit must be up just after that instant and down just before.
        assert!(s.circuit_up(src, dst, t0 + Tick::from_nanos(1)));
        if t0 > Tick::ZERO {
            assert!(!s.circuit_up(src, dst, t0 - Tick::from_nanos(1)));
        }
        // And it lasts exactly one day.
        assert!(s.circuit_up(src, dst, t0 + s.day - Tick::from_nanos(1)));
        assert!(!s.circuit_up(src, dst, t0 + s.day + Tick::from_nanos(1)));
        // Next occurrence is one week later.
        let t1 = s.next_day_start(src, dst, t0 + s.day);
        assert_eq!(t1, t0 + s.week());
    }

    #[test]
    fn each_pair_once_per_week() {
        let s = s();
        // Count how many days serve (0 -> 7) over one week.
        let mut ups = 0;
        let step = Tick::from_micros(5);
        let mut t = Tick::ZERO;
        let mut was_up = false;
        while t < s.week() {
            let up = s.circuit_up(0, 7, t);
            if up && !was_up {
                ups += 1;
            }
            was_up = up;
            t += step;
        }
        assert_eq!(ups, 1);
    }
}
