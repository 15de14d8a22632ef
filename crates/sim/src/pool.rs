//! Packet recycling: a free-list pool that removes the per-hop
//! `Box<Packet>` allocate/free churn from the simulation hot loop.
//!
//! Every data packet and its ACK used to cost one heap allocation at the
//! sender and one free at the receiver; at paper scale (256 hosts, 100 G)
//! that is tens of millions of allocator round-trips per sweep point. The
//! pool keeps retired boxes on a free list owned by the
//! [`Simulator`](crate::engine::Simulator): [`PacketPool::boxed`] reuses a
//! retired box when one is available, and [`PacketPool::recycle`] is
//! called at every site that used to drop a packet (host delivery via
//! [`EndpointCtx::recycle`](crate::node::EndpointCtx::recycle), PFC
//! consumption, switch admission/no-route drops, and
//! [`CustomCtx::drop_packet`](crate::node::CustomCtx::drop_packet)).
//!
//! **No stale state can leak**: `boxed` move-assigns the entire [`Packet`]
//! into the reused box, so every field — including the accumulated INT
//! stack — is exactly what the caller constructed, never a residue of the
//! box's previous life. Recycling is purely an optimization: a box that
//! is never recycled is simply freed by its normal `Drop`, so an endpoint
//! that drops what it is delivered stays correct.
//!
//! In steady state the free list reaches the peak number of concurrently
//! live packets and the hot loop allocates nothing.

use crate::packet::Packet;

/// Free-list pool of retired packet boxes (see the module docs).
#[derive(Default)]
pub struct PacketPool {
    #[expect(
        clippy::vec_box,
        reason = "the boxes themselves are the resource being recycled (they travel through \
                  the event queue as `Box<Packet>`); storing `Packet` by value would \
                  re-allocate on every reuse"
    )]
    free: Vec<Box<Packet>>,
    fresh: u64,
    reused: u64,
}

/// Counters describing how well the pool is absorbing allocations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Boxes that had to be heap-allocated (free list empty).
    pub fresh: u64,
    /// Boxes served from the free list.
    pub reused: u64,
    /// Boxes currently parked on the free list.
    pub free: usize,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        PacketPool::default()
    }

    /// Box `pkt`, reusing a retired box when one is available. The whole
    /// packet is move-assigned into the reused box, so no field of a
    /// previous occupant (INT stack included) survives.
    #[inline]
    pub fn boxed(&mut self, pkt: Packet) -> Box<Packet> {
        match self.free.pop() {
            Some(mut b) => {
                self.reused += 1;
                *b = pkt;
                b
            }
            None => {
                self.fresh += 1;
                Box::new(pkt)
            }
        }
    }

    /// Park a retired box on the free list for reuse.
    #[inline]
    pub fn recycle(&mut self, pkt: Box<Packet>) {
        self.free.push(pkt);
    }

    /// Allocation/reuse counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh: self.fresh,
            reused: self.reused,
            free: self.free.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};
    use powertcp_core::{Bandwidth, IntHop, Tick};

    fn data(seq: u64) -> Packet {
        Packet::data(
            FlowId(1),
            NodeId(2),
            NodeId(3),
            seq,
            1000,
            false,
            Tick::from_nanos(seq),
        )
    }

    #[test]
    fn reuses_recycled_boxes() {
        let mut pool = PacketPool::new();
        let a = pool.boxed(data(0));
        assert_eq!(pool.stats().fresh, 1);
        pool.recycle(a);
        assert_eq!(pool.stats().free, 1);
        let b = pool.boxed(data(1000));
        assert_eq!(
            pool.stats(),
            PoolStats {
                fresh: 1,
                reused: 1,
                free: 0,
            }
        );
        assert_eq!(b.sent_at, Tick::from_nanos(1000));
    }

    #[test]
    fn recycled_boxes_carry_no_stale_int_state() {
        let mut pool = PacketPool::new();
        let mut a = pool.boxed(data(0));
        a.ecn_ce = true;
        a.int.push(IntHop {
            qlen_bytes: 999,
            ts: Tick::from_micros(5),
            tx_bytes: 123,
            bandwidth: Bandwidth::gbps(100),
        });
        pool.recycle(a);
        let b = pool.boxed(data(2000));
        assert!(b.int.is_empty(), "INT stack must be fresh after reuse");
        assert!(!b.ecn_ce, "ECN mark must not survive recycling");
        assert_eq!(b.sent_at, Tick::from_nanos(2000));
    }
}
