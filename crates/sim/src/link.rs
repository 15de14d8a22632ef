//! Simplex links.
//!
//! Every connection between two nodes is a pair of simplex links (one per
//! direction). A link has a configured bandwidth (serialization) and a
//! propagation delay; the transmitting node owns the serialization decision
//! and the link only records where packets land.

use crate::ids::{LinkId, NodeId, PortId};
use powertcp_core::{Bandwidth, Tick};

/// One direction of a cable.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Serialization bandwidth.
    pub bandwidth: Bandwidth,
    /// Propagation delay.
    pub delay: Tick,
    /// Node at the far end.
    pub dst: NodeId,
    /// Ingress port at the far end.
    pub dst_port: PortId,
}

impl Link {
    /// Total latency for a packet of `bytes` entering an idle link:
    /// serialization plus propagation.
    pub fn latency(&self, bytes: u64) -> Tick {
        self.bandwidth.tx_time(bytes) + self.delay
    }
}

/// The set of links in a network, indexed by [`LinkId`]. Links are
/// immutable once added: switch ports keep their own copy of their egress
/// link (see [`crate::switch::Switch::add_port`]), so there is no mutable
/// lookup for a copy to go stale against.
#[derive(Default, Debug)]
pub struct Links {
    links: Vec<Link>,
}

impl Links {
    /// Add a link, returning its id.
    pub fn add(&mut self, link: Link) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(link);
        id
    }

    /// Look up a link.
    #[inline]
    pub fn get(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if no links exist.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_serialization_plus_propagation() {
        let l = Link {
            bandwidth: Bandwidth::gbps(100),
            delay: Tick::from_micros(1),
            dst: NodeId(1),
            dst_port: PortId(0),
        };
        // 1000B at 100G = 80ns, + 1us.
        assert_eq!(l.latency(1000), Tick::from_nanos(1080));
    }

    #[test]
    fn links_indexing() {
        let mut links = Links::default();
        let a = links.add(Link {
            bandwidth: Bandwidth::gbps(25),
            delay: Tick::from_micros(1),
            dst: NodeId(1),
            dst_port: PortId(2),
        });
        let b = links.add(Link {
            bandwidth: Bandwidth::gbps(100),
            delay: Tick::from_micros(5),
            dst: NodeId(0),
            dst_port: PortId(0),
        });
        assert_eq!(links.len(), 2);
        assert_eq!(links.get(a).dst, NodeId(1));
        assert_eq!(links.get(b).bandwidth, Bandwidth::gbps(100));
    }
}
