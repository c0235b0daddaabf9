//! Minimal offline stand-in for `crossbeam-utils`: [`Backoff`] and
//! [`CachePadded`].

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to the length of a cache line, mirroring
/// `crossbeam_utils::CachePadded`.  Used to keep per-shard locks of the
/// sharded shadow memory on distinct cache lines so that contended lock words
/// do not false-share.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pad `value` to a cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwrap the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachePadded").field("value", &self.value).finish()
    }
}

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;

/// Exponential backoff for spin loops, mirroring `crossbeam_utils::Backoff`.
#[derive(Debug, Default)]
pub struct Backoff {
    step: Cell<u32>,
}

impl Backoff {
    /// Fresh backoff in its initial (shortest-wait) state.
    pub fn new() -> Self {
        Backoff { step: Cell::new(0) }
    }

    /// Reset to the initial state (call after useful work was found).
    pub fn reset(&self) {
        self.step.set(0);
    }

    /// Back off in a lock-free retry loop: spin with exponentially more
    /// `spin_loop` hints each call.
    pub fn spin(&self) {
        let step = self.step.get().min(SPIN_LIMIT);
        for _ in 0..1u32 << step {
            std::hint::spin_loop();
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Back off while waiting on another thread: spin first, then yield to
    /// the OS scheduler.
    pub fn snooze(&self) {
        if self.step.get() <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step.get() {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step.get() <= YIELD_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Has backoff escalated to the point where parking would be better?
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let padded = CachePadded::new(7u32);
        assert_eq!(*padded, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u32>>(), 64);
        assert_eq!(padded.into_inner(), 7);
        let mut p = CachePadded::from(1u64);
        *p += 1;
        assert_eq!(*p, 2);
    }

    #[test]
    fn escalates_then_resets() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..=YIELD_LIMIT {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }
}
