//! A fixed-capacity ring buffer for deterministic sample collection.
//!
//! Probes sample on a tick grid for the whole run; the ring bounds memory
//! no matter how long the horizon is. Eviction is strictly
//! oldest-first and the evicted count is kept, so a trace report can say
//! "kept the last N of M samples" instead of silently truncating.

/// Fixed-capacity FIFO ring. Pushing beyond capacity evicts the oldest
/// element; iteration is always oldest → newest.
#[derive(Clone, Debug)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    /// Index of the oldest element (only meaningful once full).
    head: usize,
    cap: usize,
    evicted: u64,
}

impl<T> RingBuffer<T> {
    /// Create a ring holding at most `cap` elements (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "ring capacity must be >= 1");
        RingBuffer {
            buf: Vec::with_capacity(cap.min(1024)),
            head: 0,
            cap,
            evicted: 0,
        }
    }

    /// Capacity the ring was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Elements currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Elements evicted so far (total pushed = `len() + evicted()`).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Append an element, evicting the oldest if full.
    pub fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
            self.evicted += 1;
        }
    }

    /// The `i`-th element counted from the oldest (`None` past the newest).
    pub fn get(&self, i: usize) -> Option<&T> {
        // Until the ring is full, `head` is 0 and the oldest is `buf[0]`.
        (i < self.buf.len()).then(|| &self.buf[(self.head + i) % self.buf.len()])
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// Copy out the contents, oldest → newest.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_evicts_oldest_first() {
        let mut r = RingBuffer::new(3);
        assert!(r.is_empty());
        for i in 0..3 {
            r.push(i);
        }
        assert_eq!(r.to_vec(), vec![0, 1, 2]);
        assert_eq!(r.evicted(), 0);
        r.push(3);
        r.push(4);
        assert_eq!(r.to_vec(), vec![2, 3, 4]);
        assert_eq!(r.evicted(), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn wraparound_keeps_order_over_many_pushes() {
        let mut r = RingBuffer::new(5);
        for i in 0..1000 {
            r.push(i);
        }
        assert_eq!(r.to_vec(), vec![995, 996, 997, 998, 999]);
        assert_eq!(r.evicted(), 995);
    }

    #[test]
    fn get_indexes_from_the_oldest() {
        let mut r = RingBuffer::new(4);
        for i in 0..3 {
            r.push(i);
        }
        assert_eq!(
            (0..4).map(|i| r.get(i)).collect::<Vec<_>>(),
            [Some(&0), Some(&1), Some(&2), None]
        );
        for i in 3..10 {
            r.push(i);
            let got: Vec<i32> = (0..r.len()).map(|i| *r.get(i).unwrap()).collect();
            assert_eq!(got, r.to_vec());
            assert_eq!(r.get(r.len()), None);
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = RingBuffer::<i32>::new(0);
    }
}
