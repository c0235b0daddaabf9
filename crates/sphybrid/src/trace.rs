//! Traces: the unit the global tier orders.
//!
//! A *trace* is a set of threads that were executed by one processor between
//! steals (paper §3).  The computation starts as a single trace; every steal
//! splits the victim's trace `U` into five subtraces
//! ⟨U⁽¹⁾, U⁽²⁾, U⁽³⁾, U⁽⁴⁾, U⁽⁵⁾⟩, where U⁽³⁾ aliases `U` (it keeps the
//! victim's in-progress work), U⁽⁴⁾ receives the stolen right subtree and
//! U⁽⁵⁾ the continuation after the join.  Only 4 new traces are created per
//! steal, so |C| = 4s + 1 after s steals.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use om::concurrent::base_chunk_size;
use om::{ChunkedSlab, ConcurrentOmNode};
use parking_lot::Mutex;

/// Identifier of a trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TraceId(pub u32);

impl TraceId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Encode as a scheduler token.
    #[inline]
    pub fn to_token(self) -> u64 {
        self.0 as u64
    }

    /// Decode from a scheduler token.
    #[inline]
    pub fn from_token(token: u64) -> Self {
        TraceId(u32::try_from(token).unwrap_or_else(|_| {
            panic!(
                "scheduler token {token:#x} is not a trace id: trace ids are \
                 dense u32 indices, so a larger token means the token plumbing \
                 handed this maintainer a foreign token"
            )
        }))
    }
}

/// Per-trace SP-bags state (paper §5), touched only by the worker currently
/// executing the trace.
#[derive(Default, Debug)]
pub struct TraceLocal {
    /// S-bag representative of each procedure that has threads in this trace.
    pub sbag: HashMap<u32, u32>,
    /// P-bag representative of each procedure (canonical Cilk form: one P-bag
    /// per procedure suffices and is what makes `SPLIT` O(1)).
    pub pbag: HashMap<u32, u32>,
}

/// Shared per-trace record.
pub struct TraceState {
    /// Handle of this trace in the global English order.
    pub eng: ConcurrentOmNode,
    /// Handle of this trace in the global Hebrew order.
    pub heb: ConcurrentOmNode,
    /// Local-tier SP-bags state of this trace.
    pub local: Mutex<TraceLocal>,
}

/// Growable, concurrently readable arena of traces: a [`ChunkedSlab`] of
/// set-once [`TraceState`]s.
///
/// [`get`](Self::get) is the slab's lock-free lookup plus one acquire load
/// of the slot, so the query path (`precedes_current`) and every
/// maintenance event reach a trace without a lock, a reference count or any
/// other shared write.  Thieves push concurrently: each reserves a dense id,
/// fills its slot, then bumps the published count.
pub struct TraceArena {
    /// Boxed so an unfilled slot costs 16 bytes however large the
    /// capacity hint.
    slots: ChunkedSlab<OnceLock<Box<TraceState>>>,
    /// Ids handed out so far (some may still be filling).
    reserved: AtomicUsize,
    /// Traces whose state is visible through [`get`](Self::get).
    published: AtomicUsize,
}

impl TraceArena {
    /// Create an arena containing just the initial trace.  `capacity` is
    /// only the initial-chunk hint (rounded to a power of two, overridable
    /// via `SP_OM_CHUNK`, like the order-maintenance slabs); the arena grows
    /// on demand.
    pub fn new(
        capacity: usize,
        root_eng: ConcurrentOmNode,
        root_heb: ConcurrentOmNode,
    ) -> (Self, TraceId) {
        let arena = TraceArena {
            slots: ChunkedSlab::new(base_chunk_size(capacity.max(1))),
            reserved: AtomicUsize::new(0),
            published: AtomicUsize::new(0),
        };
        let root = arena.push(root_eng, root_heb);
        (arena, root)
    }

    /// Number of traces published so far (4·steals + 1 once every split has
    /// finished its pushes).
    pub fn len(&self) -> usize {
        self.published.load(Ordering::Acquire)
    }

    /// True if no traces exist (never: the root trace always exists).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch a trace record.  Lock-free and write-free; `id` must come from
    /// [`push`](Self::push) (directly or through a scheduler token), which
    /// happens-before every use of the id.
    #[inline]
    pub fn get(&self, id: TraceId) -> &TraceState {
        self.slots
            .get(id.0)
            .and_then(OnceLock::get)
            .unwrap_or_else(|| panic!("trace {} read before it was pushed", id.0))
    }

    /// Append a new trace and return its id.  Safe to call from several
    /// thieves at once.
    pub fn push(&self, eng: ConcurrentOmNode, heb: ConcurrentOmNode) -> TraceId {
        let id = next_trace_id(self.reserved.fetch_add(1, Ordering::Relaxed));
        self.slots.ensure(id.0, |_| OnceLock::new());
        let state = Box::new(TraceState {
            eng,
            heb,
            local: Mutex::new(TraceLocal::default()),
        });
        let fresh = self.slots.get(id.0).expect("ensured above").set(state).is_ok();
        assert!(fresh, "trace id {} reserved twice", id.0);
        self.published.fetch_add(1, Ordering::Release);
        id
    }
}

/// Checked id for the next appended trace: trace ids are dense `u32`
/// indices (4·steals + 1 traces per run), so a registry past `u32::MAX`
/// entries must fail loudly, not wrap into an existing trace's id.
fn next_trace_id(len: usize) -> TraceId {
    TraceId(u32::try_from(len).unwrap_or_else(|_| {
        panic!("{len} traces already exist, which exceeds the u32 trace-id space")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_and_tokens_are_checked() {
        assert_eq!(TraceId::from_token(7).0, 7);
        assert_eq!(TraceId::from_token(u64::from(u32::MAX)).0, u32::MAX);
        assert_eq!(next_trace_id(0), TraceId(0));
        assert_eq!(next_trace_id(u32::MAX as usize), TraceId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "not a trace id")]
    fn foreign_tokens_panic_instead_of_truncating() {
        TraceId::from_token(1 << 40);
    }

    #[test]
    #[should_panic(expected = "u32 trace-id space")]
    fn trace_registry_overflow_panics_instead_of_wrapping() {
        next_trace_id(u32::MAX as usize + 1);
    }

    #[test]
    fn arena_starts_with_root_trace_and_grows() {
        let (list, base) = om::ConcurrentOmList::with_capacity(16);
        let extra = list.insert_after(base);
        let (arena, root) = TraceArena::new(16, base, base);
        assert_eq!(root, TraceId(0));
        assert_eq!(arena.len(), 1);
        let t1 = arena.push(extra, extra);
        assert_eq!(t1, TraceId(1));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(t1).eng, extra);
        assert_eq!(arena.get(root).eng, base);
    }

    #[test]
    fn token_round_trip() {
        let t = TraceId(12345);
        assert_eq!(TraceId::from_token(t.to_token()), t);
    }

    #[test]
    fn trace_local_maps_start_empty() {
        let (list, base) = om::ConcurrentOmList::with_capacity(4);
        let _ = &list;
        let (arena, root) = TraceArena::new(4, base, base);
        let state = arena.get(root);
        let local = state.local.lock();
        assert!(local.sbag.is_empty());
        assert!(local.pbag.is_empty());
    }

    /// Thieves push concurrently while readers look traces up: every id a
    /// reader learns about resolves to exactly the handles pushed for it,
    /// across many chunk boundaries (base 2), and the published count ends
    /// at exactly one per push.
    #[test]
    fn concurrent_pushes_and_reads_agree_across_chunks() {
        use std::sync::atomic::AtomicU32;

        const PUSHERS: usize = 4;
        const PER_PUSHER: usize = 500;
        let (list, base) = om::ConcurrentOmList::with_capacity(2);
        let mut nodes = vec![base];
        for _ in 0..2 * PUSHERS * PER_PUSHER {
            nodes.push(list.insert_after(*nodes.last().unwrap()));
        }
        let (arena, _root) = TraceArena::new(2, base, base);
        // pushed[id] = 1 + the node pair index pushed under `id`, published
        // with release after the push returns.
        let pushed: Vec<AtomicU32> = (0..=PUSHERS * PER_PUSHER).map(|_| AtomicU32::new(0)).collect();
        let done = AtomicU32::new(0);
        let (arena, nodes, pushed, done) = (&arena, &nodes, &pushed, &done);
        std::thread::scope(|s| {
            for t in 0..PUSHERS {
                s.spawn(move || {
                    for j in 0..PER_PUSHER {
                        let pair = t * PER_PUSHER + j;
                        let id = arena.push(nodes[2 * pair + 1], nodes[2 * pair + 2]);
                        pushed[id.index()].store(pair as u32 + 1, Ordering::Release);
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            for _ in 0..2 {
                s.spawn(move || {
                    let mut checked = 0u64;
                    while done.load(Ordering::Acquire) < PUSHERS as u32 || checked == 0 {
                        for (id, slot) in pushed.iter().enumerate() {
                            let tag = slot.load(Ordering::Acquire);
                            if tag == 0 {
                                continue;
                            }
                            let pair = tag as usize - 1;
                            let state = arena.get(TraceId(id as u32));
                            assert_eq!(state.eng, nodes[2 * pair + 1], "trace {id}");
                            assert_eq!(state.heb, nodes[2 * pair + 2], "trace {id}");
                            checked += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(arena.len(), 1 + PUSHERS * PER_PUSHER);
        assert!(pushed[1..].iter().all(|p| p.load(Ordering::Relaxed) != 0), "ids are dense");
        assert!(arena.slots.chunk_count() > 8, "base 2 crossed many chunk boundaries");
    }
}
