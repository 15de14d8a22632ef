//! In-band network telemetry (INT) header types.
//!
//! PowerTCP uses the same INT header layout as HPCC (Li et al., SIGCOMM
//! 2019, Figure 4): every switch along the path appends, *at the moment a
//! packet is scheduled for transmission*, the egress-port state it needs to
//! reconstruct the bottleneck link dynamics:
//!
//! * `qlen` — egress queue length in bytes,
//! * `ts` — egress timestamp,
//! * `tx_bytes` — cumulative bytes transmitted by the egress port,
//! * `b` — configured egress link bandwidth.
//!
//! The receiver echoes the accumulated stack back on the ACK, so the sender
//! observes two consecutive snapshots of every hop and can compute per-hop
//! queue gradients and transmission rates (Algorithm 1 of the paper).
//!
//! The stack is a fixed-capacity inline array: no allocation per packet, and
//! a hard bound mirroring the real-world header budget (the paper's TCP
//! option encoding supports 4 round-trip hops). The bound is 5, the
//! deepest route any topology here builds: a 3-tier fat-tree's inter-pod
//! path stamps ToR, agg, core, agg and ToR (an RDCN path stamps 3, a
//! dumbbell 2, a star 1). Every slot rides in every queued packet, so a
//! slot stores only what a law reads: an [`IntHop`] is the four fields
//! above, 32 bytes, and the 5-slot stack is 168 of a `Packet`'s 232 bytes.
//! The simulator's stamping site asserts (in debug builds) that no push is
//! refused, so a deeper topology fails loudly instead of truncating its
//! telemetry.

use crate::time::Tick;
use crate::units::Bandwidth;

/// Maximum number of per-hop entries an [`IntHeader`] can carry.
pub const MAX_INT_HOPS: usize = 5;

/// One hop's slot in an [`IntHeader`]: the `(qlen, ts, txBytes, b)`
/// record every law reads, and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct IntHop {
    /// Egress queue length in bytes at transmission-scheduling time.
    pub qlen_bytes: u64,
    /// Egress timestamp.
    pub ts: Tick,
    /// Cumulative bytes transmitted by this egress port.
    pub tx_bytes: u64,
    /// Configured bandwidth of the egress link.
    pub bandwidth: Bandwidth,
}

/// An [`IntHop`] with the switch and port that pushed it. The header
/// stores only the hop: [`IntHeader::push`] drops `node` and `port`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct IntHopMetadata {
    /// Identifier of the switch that pushed this entry (diagnostics only —
    /// the control law never reads it).
    pub node: u32,
    /// Egress port index on that switch (diagnostics only).
    pub port: u16,
    /// Egress queue length in bytes at transmission-scheduling time.
    pub qlen_bytes: u64,
    /// Egress timestamp.
    pub ts: Tick,
    /// Cumulative bytes transmitted by this egress port.
    pub tx_bytes: u64,
    /// Configured bandwidth of the egress link.
    pub bandwidth: Bandwidth,
}

/// A stack of per-hop telemetry entries accumulated along a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct IntHeader {
    hops: [IntHop; MAX_INT_HOPS],
    len: u8,
}

impl From<IntHopMetadata> for IntHop {
    fn from(m: IntHopMetadata) -> Self {
        IntHop {
            qlen_bytes: m.qlen_bytes,
            ts: m.ts,
            tx_bytes: m.tx_bytes,
            bandwidth: m.bandwidth,
        }
    }
}

impl IntHeader {
    /// An empty header (inserted by the sender, filled by switches).
    pub const fn new() -> Self {
        IntHeader {
            hops: [IntHop {
                qlen_bytes: 0,
                ts: Tick(0),
                tx_bytes: 0,
                bandwidth: Bandwidth(0),
            }; MAX_INT_HOPS],
            len: 0,
        }
    }

    /// Number of hops recorded so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no switch has pushed telemetry yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one hop's telemetry. Returns `false` (and records nothing) if
    /// the stack is full — matching hardware behaviour where a packet simply
    /// stops accumulating metadata once the header budget is exhausted.
    #[inline]
    pub fn push(&mut self, hop: impl Into<IntHop>) -> bool {
        if (self.len as usize) < MAX_INT_HOPS {
            self.hops[self.len as usize] = hop.into();
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// The recorded hops, in path order.
    #[inline]
    pub fn hops(&self) -> &[IntHop] {
        &self.hops[..self.len as usize]
    }

    /// Reset to empty (sender reuses packet buffers).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// On-wire size in bytes of this header, following the paper's encoding
    /// (32-bit base header + 64-bit... the paper's Tofino PoC uses a 32-bit
    /// base plus 64 bits per hop; HPCC's original encoding is 8 bytes per
    /// hop as well). Used by the simulator when accounting link occupancy of
    /// telemetry-bearing packets.
    #[inline]
    pub fn wire_bytes(&self) -> u32 {
        4 + 8 * self.len as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hop `i` of a path: stamped at `i` ns, `10·i` bytes sent.
    fn hop(i: u64, q: u64) -> IntHop {
        IntHop {
            qlen_bytes: q,
            ts: Tick::from_nanos(i),
            tx_bytes: 10 * i,
            bandwidth: Bandwidth::gbps(100),
        }
    }

    #[test]
    fn push_and_read() {
        let mut h = IntHeader::new();
        assert!(h.is_empty());
        assert!(h.push(hop(1, 100)));
        assert!(h.push(hop(2, 200)));
        assert_eq!(h.len(), 2);
        assert_eq!(h.hops(), [hop(1, 100), hop(2, 200)]);
    }

    #[test]
    fn a_pushed_metadata_record_keeps_what_the_laws_read() {
        let mut h = IntHeader::new();
        assert!(h.push(IntHopMetadata {
            node: 7,
            port: 3,
            qlen_bytes: 100,
            ts: Tick::from_nanos(1),
            tx_bytes: 10,
            bandwidth: Bandwidth::gbps(100),
        }));
        assert_eq!(h.hops(), [hop(1, 100)]);
    }

    #[test]
    fn overflow_is_dropped_not_panicking() {
        let mut h = IntHeader::new();
        for i in 0..MAX_INT_HOPS as u64 {
            assert!(h.push(hop(i, 0)));
        }
        assert!(!h.push(hop(99, 0)));
        assert_eq!(h.len(), MAX_INT_HOPS);
        // The overflowing hop must not have clobbered anything.
        for (i, m) in h.hops().iter().enumerate() {
            assert_eq!(*m, hop(i as u64, 0));
        }
    }

    #[test]
    fn clear_resets() {
        let mut h = IntHeader::new();
        h.push(hop(1, 1));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.wire_bytes(), 4);
    }

    #[test]
    fn wire_size_grows_per_hop() {
        let mut h = IntHeader::new();
        assert_eq!(h.wire_bytes(), 4);
        h.push(hop(1, 0));
        assert_eq!(h.wire_bytes(), 12);
        h.push(hop(2, 0));
        assert_eq!(h.wire_bytes(), 20);
    }
}
