//! A Cilk-like work-stealing runtime that walks SP parse trees in parallel.
//!
//! The SP-hybrid algorithm (paper §3–§7) is "described and analyzed as a Cilk
//! program": its correctness (Lemma 7) and its O(P·T∞) steal bound rely on two
//! properties of Cilk's work-stealing scheduler —
//!
//! 1. each processor unfolds the parse tree left-to-right, and
//! 2. a thief always steals the continuation of the **topmost** P-node whose
//!    left subtree the victim is still walking.
//!
//! The original system ran on MIT Cilk-5; we reproduce the scheduling
//! behaviour with one explicit-frame work-stealing walker ([`live`]) over a
//! computation that unfolds on demand; a materialized
//! [`sptree::tree::ParseTree`] is walked through the same code
//! ([`ParallelWalk`] adapts the tree as a [`LiveProgram`]):
//!
//! * each worker owns a [`crossbeam_deque::Worker`] deque; walking a P-node
//!   pushes its frame onto the bottom of the deque and descends into the left
//!   child, so the deque holds the open P-nodes of the worker's current
//!   leftward path, oldest (topmost) at the steal end;
//! * thieves steal from the top, giving exactly Cilk's steal-from-the-oldest
//!   behaviour;
//! * when a worker finishes the left subtree of a P-node it pops its deque:
//!   getting the node back means no steal happened (the `SYNCHED()` test of
//!   Figure 8) and the walk continues serially; an empty pop means the
//!   continuation was stolen, and the join is resolved with a two-flag
//!   protocol so that the **last** of the two workers to finish continues the
//!   walk above the P-node — matching Cilk's semantics where the processor
//!   that passes a sync last resumes the frame;
//! * a 64-bit *token* travels along the walk exactly like the trace argument
//!   `U` of `SP-HYBRID(X, U)` in Figure 8; the [`ParallelVisitor`] decides what
//!   tokens mean (SP-hybrid uses them as trace identifiers).
//!
//! The runtime reports steal counts and per-worker statistics ([`RunStats`]),
//! which the Theorem-10 benchmarks compare against the O(P·T∞) bound.
//!
//! The live-execution mode is also the substrate of the `spprog`
//! programmatic fork-join API, whose SP structure *unfolds* as user
//! closures spawn and sync.

#![forbid(unsafe_code)]

pub mod live;
pub mod metrics;
pub mod scheduler;
pub mod visitor;

pub use live::{run_live, run_live_metered, run_live_serial, LiveConfig, LiveNode, LiveProgram, LiveVisitor, SerialLiveVisitor, SpKind};
pub use metrics::RunStats;
pub use scheduler::{ParallelWalk, WalkConfig};
pub use visitor::{ParallelVisitor, StealTokens, Token};
