//! Small integer identifiers for simulator entities.

use std::fmt;

/// Identifier of a node (host, switch, or custom switch) in the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into `Network::nodes`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a port within a node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PortId(pub u16);

impl PortId {
    /// Most ports one node can have: a port id, and the port count, is
    /// 16 bits wide.
    pub const MAX_PORTS: usize = u16::MAX as usize;

    /// Index into the node's port vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of `node`'s next port when it has `have` already — the one
    /// place a port count becomes a port id. Panics past
    /// [`PortId::MAX_PORTS`]: a wrapped id would deliver to another port
    /// and the run would look fine.
    pub(crate) fn next(node: NodeId, have: usize) -> PortId {
        match u16::try_from(have + 1) {
            Ok(count) => PortId(count - 1),
            Err(_) => panic!(
                "{node} already has {have} ports and cannot take another: \
                 port ids are 16-bit ({} ports at most)",
                Self::MAX_PORTS
            ),
        }
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a transport flow (or HOMA message).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Deterministic 64-bit mixer (SplitMix64 finalizer) used for ECMP hashing
/// and anywhere else the simulator needs a stateless, reproducible hash.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(PortId(2).to_string(), "p2");
        assert_eq!(FlowId(9).to_string(), "f9");
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        // Adjacent inputs must not collide (sanity, not a crypto claim).
        #[expect(
            clippy::disallowed_types,
            reason = "sentinel: proves the type ban is armed (a uniqueness count, order-free)"
        )]
        let outs: std::collections::HashSet<u64> = (0..1000).map(mix64).collect();
        assert_eq!(outs.len(), 1000);
    }
}
