//! The timer-key layout both endpoints share: the kind in the top byte
//! of the `u64`, the flow / message index below it. Kinds are small
//! integers (each endpoint numbers its own from 1), which leaves the
//! high kinds free for a wrapper to claim — `rdcn`'s `CircuitAwareHost`
//! takes `0x7F` and hands every other key on.

pub(crate) fn key(kind: u64, idx: usize) -> u64 {
    (kind << 56) | idx as u64
}

pub(crate) fn split_key(k: u64) -> (u64, usize) {
    (k >> 56, (k & 0x00FF_FFFF_FFFF_FFFF) as usize)
}
