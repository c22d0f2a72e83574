//! A trivial object pool for reusable buffers ("slabs").
//!
//! The pipelined trace path recycles trace-segment buffers through a
//! reverse [`crate::spsc`] ring; this pool is the producer-side front for
//! that freelist. It lazily allocates while the pipeline warms up and
//! counts lifetime allocations, so benches can assert the steady state
//! allocates nothing (the count stops growing once enough slabs are in
//! flight to cover the ring depth).

/// A pool of spare reusable buffers with a lifetime-allocation counter.
///
/// ```
/// let mut pool = rtms_util::slab::SlabPool::new();
/// let buf: Vec<u8> = pool.take_with(Vec::new);
/// assert_eq!(pool.allocated(), 1);
/// pool.put(buf);
/// let _again: Vec<u8> = pool.take_with(Vec::new);
/// assert_eq!(pool.allocated(), 1, "second take reuses the spare");
/// ```
#[derive(Debug)]
pub struct SlabPool<T> {
    spares: Vec<T>,
    allocated: u64,
}

impl<T> Default for SlabPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlabPool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self { spares: Vec::new(), allocated: 0 }
    }

    /// Takes a spare slab, or builds a fresh one with `make` (counted in
    /// [`allocated`](Self::allocated)) when none is available.
    pub fn take_with(&mut self, make: impl FnOnce() -> T) -> T {
        match self.spares.pop() {
            Some(slab) => slab,
            None => {
                self.allocated += 1;
                make()
            }
        }
    }

    /// Returns a slab to the pool for reuse.
    pub fn put(&mut self, slab: T) {
        self.spares.push(slab);
    }

    /// How many slabs [`take_with`](Self::take_with) had to build over the
    /// pool's lifetime. Flat across a steady-state window ⇒ the window ran
    /// entirely on recycled slabs.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// How many spare slabs are currently parked in the pool.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_cycle_allocates_once() {
        let mut pool = SlabPool::new();
        for round in 0..100 {
            let mut buf: Vec<u32> = pool.take_with(Vec::new);
            buf.push(round);
            buf.clear();
            pool.put(buf);
        }
        assert_eq!(pool.allocated(), 1);
        assert_eq!(pool.spares(), 1);
    }

    #[test]
    fn concurrent_takes_allocate_up_to_depth() {
        let mut pool = SlabPool::new();
        let a: Vec<u8> = pool.take_with(Vec::new);
        let b: Vec<u8> = pool.take_with(Vec::new);
        assert_eq!(pool.allocated(), 2, "two in flight, two allocs");
        pool.put(a);
        pool.put(b);
        let _c: Vec<u8> = pool.take_with(Vec::new);
        let _d: Vec<u8> = pool.take_with(Vec::new);
        assert_eq!(pool.allocated(), 2, "depth covered, no further allocs");
    }

    #[test]
    fn capacity_survives_recycling() {
        let mut pool = SlabPool::new();
        let mut buf: Vec<u64> = pool.take_with(Vec::new);
        buf.extend(0..1024);
        let cap = buf.capacity();
        buf.clear();
        pool.put(buf);
        let again: Vec<u64> = pool.take_with(Vec::new);
        assert!(again.capacity() >= cap, "recycled slab keeps its storage");
    }
}
