//! `ChunkedSlab<T>`: the one growable, lock-free-readable arena behind every
//! SP-hybrid substrate (the concurrent OM list's slots, the concurrent
//! union-find's elements and SP-hybrid's trace arena).
//!
//! Chunk *k* holds `base << k` slots, so chunks `0..=k` cover
//! `base · (2^(k+1) − 1)` indices and a `u32` index decomposes into a chunk
//! id and an offset with two shifts and a subtraction.  Chunks are appended,
//! never moved or freed before the slab itself, so a slot's address is
//! stable for the slab's life and readers can hold `&T` across growth.
//!
//! Each chunk sits behind a [`OnceLock`]: a writer publishes a chunk by
//! initializing its lock (concurrent writers racing for the same chunk block
//! until exactly one has built it), and a reader's lookup is the lock's
//! acquire load, the chunk pointer load and the shifts.  Lookups never take a
//! lock and never write shared memory.  See
//! `ARCHITECTURE.md#growable-epoch-published-substrates`.

use std::sync::OnceLock;

/// Upper bound on the number of chunks: with the smallest base chunk (2
/// slots) the cumulative capacity covers the `u32` index space after 31
/// doublings, so 32 chunks always suffice.
const MAX_CHUNKS: usize = 32;

/// Append-only chunk list with stable `u32` indices and lock-free reads.
pub struct ChunkedSlab<T> {
    chunks: [OnceLock<Box<[T]>>; MAX_CHUNKS],
    base_log2: u32,
}

impl<T> ChunkedSlab<T> {
    /// An empty slab whose first chunk will hold `base` slots.  `base` must
    /// be a power of two of at least 2 (what
    /// [`base_chunk_size`](crate::concurrent::base_chunk_size) returns).
    pub fn new(base: usize) -> Self {
        assert!(
            base >= 2 && base.is_power_of_two(),
            "slab base chunk must be a power of two >= 2, got {base}"
        );
        ChunkedSlab {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            base_log2: base.trailing_zeros(),
        }
    }

    /// Slots in chunk `k`.
    #[inline]
    fn chunk_len(&self, k: usize) -> usize {
        1 << (self.base_log2 as usize + k)
    }

    /// First index of chunk `k`: `base · (2^k − 1)`.
    #[inline]
    fn chunk_start(&self, k: usize) -> usize {
        self.chunk_len(k) - (1 << self.base_log2)
    }

    /// Decompose a stable index into `(chunk, offset)`.
    #[inline]
    fn locate(&self, i: u32) -> (usize, usize) {
        let q = (i as usize >> self.base_log2) + 1;
        let k = (usize::BITS - 1 - q.leading_zeros()) as usize;
        (k, i as usize - self.chunk_start(k))
    }

    /// The slot at index `i`, or `None` while its chunk is unpublished.
    #[inline]
    pub fn get(&self, i: u32) -> Option<&T> {
        let (k, offset) = self.locate(i);
        self.chunks[k].get().map(|chunk| &chunk[offset])
    }

    /// Publish every chunk up to the one holding index `i`, building each new
    /// slot with `init(index)`.  Safe to call from several writers at once.
    /// Returns how many chunks this call published (0 when `i` was already
    /// addressable or another writer won the race).
    pub fn ensure(&self, i: u32, mut init: impl FnMut(usize) -> T) -> usize {
        let (target, _) = self.locate(i);
        // Chunks are only ever built in ascending order (a writer waits on
        // every lower chunk first), so a published target implies the rest.
        if self.chunks[target].get().is_some() {
            return 0;
        }
        let mut published = 0;
        for k in 0..=target {
            if self.chunks[k].get().is_none() {
                self.chunks[k].get_or_init(|| {
                    published += 1;
                    let start = self.chunk_start(k);
                    (start..start + self.chunk_len(k)).map(&mut init).collect()
                });
            }
        }
        published
    }

    /// Number of chunks published so far.
    pub fn chunk_count(&self) -> usize {
        self.chunks.iter().take_while(|c| c.get().is_some()).count()
    }

    /// Slots addressable right now: the cumulative size of the published
    /// chunks.
    pub fn capacity(&self) -> usize {
        self.chunk_start(self.chunk_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn locate_walks_doubling_chunks() {
        let slab = ChunkedSlab::<u8>::new(4);
        // Base 4: chunk 0 = [0,4), chunk 1 = [4,12), chunk 2 = [12,28).
        assert_eq!(slab.locate(0), (0, 0));
        assert_eq!(slab.locate(3), (0, 3));
        assert_eq!(slab.locate(4), (1, 0));
        assert_eq!(slab.locate(11), (1, 7));
        assert_eq!(slab.locate(12), (2, 0));
        assert_eq!(slab.locate(27), (2, 15));
        assert_eq!(slab.locate(28), (3, 0));
    }

    #[test]
    fn locate_at_base_two_hits_every_boundary() {
        let slab = ChunkedSlab::<u8>::new(2);
        for k in 0..31usize {
            let start = (2usize << k) - 2;
            let end = (2usize << (k + 1)) - 2;
            assert_eq!(slab.locate(start as u32), (k, 0), "first slot of chunk {k}");
            assert_eq!(
                slab.locate((end - 1) as u32),
                (k, end - 1 - start),
                "last slot of chunk {k}"
            );
        }
        // The last chunk starts at 2^32 − 2, so u32::MAX is its second slot.
        assert_eq!(slab.locate(u32::MAX - 1), (31, 0));
        assert_eq!(slab.locate(u32::MAX), (31, 1));
    }

    #[test]
    fn locate_near_u32_max_stays_in_range_for_large_bases() {
        for log2 in 1..=24u32 {
            let slab = ChunkedSlab::<u8>::new(1 << log2);
            let (k, offset) = slab.locate(u32::MAX);
            assert!(k < MAX_CHUNKS, "base 2^{log2}: chunk {k} out of range");
            assert!(offset < slab.chunk_len(k));
            assert_eq!(slab.chunk_start(k) + offset, u32::MAX as usize);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_base_is_rejected() {
        ChunkedSlab::<u8>::new(3);
    }

    #[test]
    fn ensure_publishes_contiguous_chunks_with_their_indices() {
        let slab = ChunkedSlab::new(2);
        assert_eq!(slab.chunk_count(), 0);
        assert_eq!(slab.capacity(), 0);
        assert!(slab.get(0).is_none());
        // Index 20 lives in chunk 3 ([14, 30)): chunks 0..=3 appear at once.
        assert_eq!(slab.ensure(20, |i| i as u32), 4);
        assert_eq!(slab.chunk_count(), 4);
        assert_eq!(slab.capacity(), 30);
        for i in 0..30u32 {
            assert_eq!(slab.get(i), Some(&i));
        }
        assert!(slab.get(30).is_none());
        assert_eq!(slab.ensure(29, |_| unreachable!()), 0);
    }

    #[test]
    fn slots_keep_their_address_across_growth() {
        let slab = ChunkedSlab::new(2);
        slab.ensure(0, |_| AtomicU32::new(0));
        let first = slab.get(0).unwrap();
        first.store(7, Ordering::Relaxed);
        slab.ensure(1000, |_| AtomicU32::new(0));
        assert!(std::ptr::eq(first, slab.get(0).unwrap()));
        assert_eq!(slab.get(0).unwrap().load(Ordering::Relaxed), 7);
    }

    #[test]
    fn racing_writers_publish_each_chunk_once() {
        let slab = Arc::new(ChunkedSlab::new(2));
        let builds = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (slab, builds) = (Arc::clone(&slab), Arc::clone(&builds));
                std::thread::spawn(move || {
                    (0..5000u32)
                        .map(|i| {
                            slab.ensure(i, |j| {
                                builds.fetch_add(1, Ordering::Relaxed);
                                j as u64
                            })
                        })
                        .sum::<usize>()
                })
            })
            .collect();
        let published: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(
            published,
            slab.chunk_count(),
            "each chunk is published by one writer"
        );
        assert_eq!(builds.load(Ordering::Relaxed) as usize, slab.capacity());
        for i in 0..5000u32 {
            assert_eq!(slab.get(i), Some(&u64::from(i)));
        }
    }
}
