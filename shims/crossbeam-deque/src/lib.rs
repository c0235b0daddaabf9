//! Minimal offline stand-in for `crossbeam-deque`.
//!
//! Provides the `Worker`/`Stealer`/`Steal` surface used by the `forkrt`
//! scheduler.  The implementation is a mutex-protected `VecDeque` rather than
//! the Chase–Lev lock-free deque: the owner pushes and pops at the *bottom*
//! (back), thieves steal from the *top* (front) — the same end discipline as
//! the real crate, which is what the scheduler's "steals occur from the top of
//! the tree" invariant (Lemma 7 of the paper) relies on.  Contention on
//! `steal` is reported as `Steal::Retry`, matching the real API's semantics.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Outcome of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The source was empty.
    Empty,
    /// One item was stolen.
    Success(T),
    /// The operation lost a race and should be retried.
    Retry,
}

struct Inner<T> {
    queue: Mutex<VecDeque<T>>,
}

/// The owner end of the deque (single producer/consumer at the bottom).
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
}

/// A thief handle (steals single items from the top).
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Worker<T> {
    /// Create a LIFO worker: `pop` returns the most recently pushed item.
    pub fn new_lifo() -> Self {
        Worker {
            inner: Arc::new(Inner {
                queue: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Push an item onto the bottom of the deque.
    pub fn push(&self, item: T) {
        self.inner.queue.lock().unwrap().push_back(item);
    }

    /// Pop an item from the bottom of the deque (LIFO order).
    pub fn pop(&self) -> Option<T> {
        self.inner.queue.lock().unwrap().pop_back()
    }

    /// Is the deque currently empty?
    pub fn is_empty(&self) -> bool {
        self.inner.queue.lock().unwrap().is_empty()
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().unwrap().len()
    }

    /// Create a new thief handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Stealer<T> {
    /// Attempt to steal one item from the top of the deque.
    pub fn steal(&self) -> Steal<T> {
        match self.inner.queue.try_lock() {
            Ok(mut q) => match q.pop_front() {
                Some(item) => Steal::Success(item),
                None => Steal::Empty,
            },
            Err(std::sync::TryLockError::WouldBlock) => Steal::Retry,
            Err(std::sync::TryLockError::Poisoned(p)) => match p.into_inner().pop_front() {
                Some(item) => Steal::Success(item),
                None => Steal::Empty,
            },
        }
    }

    /// Is the deque currently empty?
    pub fn is_empty(&self) -> bool {
        self.inner.queue.lock().unwrap().is_empty()
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_thief_takes_top() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        // Thief takes the oldest (top) item.
        assert_eq!(s.steal(), Steal::Success(1));
        // Owner pops the newest (bottom) item.
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::<i32>::Empty);
    }

    #[test]
    fn concurrent_steals_drain_everything_once() {
        let w = Worker::new_lifo();
        for i in 0..1000 {
            w.push(i);
        }
        let mut seen: Vec<i32> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let s = w.stealer();
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            match s.steal() {
                                Steal::Success(v) => got.push(v),
                                Steal::Empty => break,
                                Steal::Retry => continue,
                            }
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                seen.extend(h.join().unwrap());
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
    }
}
