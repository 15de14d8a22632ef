//! Shared-memory buffer management with Dynamic Thresholds.
//!
//! The paper's switches use a shared memory pool across all ports with the
//! Dynamic Thresholds algorithm of Choudhury & Hahne (ToN 1998), "commonly
//! enabled in datacenter switches" (§4.1): a port may queue a packet only
//! while its occupancy is below `α · (B − Σ occupied)` — a threshold that
//! shrinks as the shared pool fills, reserving headroom for uncongested
//! ports.

/// Shared buffer state for one switch.
#[derive(Clone, Debug)]
pub struct SharedBuffer {
    total: u64,
    used: u64,
    alpha: f64,
    drops: u64,
}

impl SharedBuffer {
    /// A pool of `total` bytes with Dynamic Thresholds parameter `alpha`.
    ///
    /// `alpha = 1.0` is a common default (Broadcom's DT exposes powers of
    /// two around 1); larger α lets a single hot port grab more of the
    /// pool.
    pub fn new(total: u64, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        SharedBuffer {
            total,
            used: 0,
            alpha,
            drops: 0,
        }
    }

    /// The instantaneous DT threshold `α · (B − used)`.
    #[inline]
    pub fn threshold(&self) -> u64 {
        let remaining = self.total.saturating_sub(self.used);
        (self.alpha * remaining as f64) as u64
    }

    /// Decide admission of a `bytes`-sized packet to a queue currently
    /// holding `queue_occupancy` bytes, and account for it if admitted.
    #[inline]
    pub fn try_admit(&mut self, queue_occupancy: u64, bytes: u64) -> bool {
        let fits_pool = self.used + bytes <= self.total;
        if fits_pool && queue_occupancy < self.threshold() {
            self.used += bytes;
            true
        } else {
            self.drops += 1;
            false
        }
    }

    /// Admission against the pool capacity only, bypassing the DT
    /// threshold. Used for lossless (PFC) traffic classes, where ingress
    /// pause thresholds — not egress drop thresholds — bound occupancy.
    #[inline]
    pub fn try_admit_pool_only(&mut self, bytes: u64) -> bool {
        if self.used + bytes <= self.total {
            self.used += bytes;
            true
        } else {
            self.drops += 1;
            false
        }
    }

    /// Release `bytes` back to the pool when a packet is dequeued.
    #[inline]
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(self.used >= bytes, "buffer release underflow");
        self.used = self.used.saturating_sub(bytes);
    }

    /// Bytes currently occupied across all ports.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Pool capacity in bytes.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Packets refused admission so far.
    #[inline]
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pool_admits_up_to_alpha_share() {
        let mut b = SharedBuffer::new(1000, 1.0);
        // threshold = 1000 when empty.
        assert_eq!(b.threshold(), 1000);
        assert!(b.try_admit(0, 100));
        assert_eq!(b.used(), 100);
        // threshold shrinks as pool fills.
        assert_eq!(b.threshold(), 900);
    }

    #[test]
    fn hot_queue_is_capped_while_pool_fills() {
        let mut b = SharedBuffer::new(1000, 1.0);
        let mut q = 0u64;
        // One port hogging: q grows until q >= alpha*(B - q), i.e. q ~ B/2.
        loop {
            if !b.try_admit(q, 10) {
                break;
            }
            q += 10;
        }
        assert!((490..=510).contains(&q), "DT equilibrium ~B/2, got {q}");
        assert_eq!(b.drops(), 1);
    }

    #[test]
    fn small_alpha_reserves_more_headroom() {
        let mut b = SharedBuffer::new(1000, 0.25);
        let mut q = 0u64;
        loop {
            if !b.try_admit(q, 10) {
                break;
            }
            q += 10;
        }
        // q_inf = alpha/(1+alpha) * B = 200.
        assert!((190..=210).contains(&q), "got {q}");
    }

    #[test]
    fn pool_capacity_is_hard_limit() {
        let mut b = SharedBuffer::new(100, 64.0);
        assert!(b.try_admit(0, 60));
        // alpha is huge so DT would admit, but the pool is full.
        assert!(!b.try_admit(0, 60));
        assert!(b.try_admit(0, 40));
        assert_eq!(b.used(), 100);
    }

    #[test]
    fn release_restores_capacity() {
        let mut b = SharedBuffer::new(100, 1.0);
        assert!(b.try_admit(0, 80));
        b.release(80);
        assert_eq!(b.used(), 0);
        assert!(b.try_admit(0, 80));
    }

    #[test]
    fn two_queues_share_fairly_under_dt() {
        // Classic DT property: with two equally aggressive queues, each
        // stabilizes at alpha/(1+2*alpha)*B.
        let mut b = SharedBuffer::new(1200, 1.0);
        let (mut q1, mut q2) = (0u64, 0u64);
        for _ in 0..1000 {
            if b.try_admit(q1, 10) {
                q1 += 10;
            }
            if b.try_admit(q2, 10) {
                q2 += 10;
            }
        }
        // Expected ~ B/3 = 400 each.
        assert!((q1 as i64 - 400).abs() <= 20, "q1={q1}");
        assert!((q2 as i64 - 400).abs() <= 20, "q2={q2}");
    }

    #[test]
    #[should_panic]
    fn zero_alpha_rejected() {
        SharedBuffer::new(100, 0.0);
    }
}
