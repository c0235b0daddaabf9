//! The work-stealing parallel walk of a materialized parse tree.
//!
//! A parse tree is a computation whose unfolding is known up front, so
//! [`ParallelWalk`] runs it on the live-execution scheduler
//! ([`crate::live::run_live`]): the tree is adapted as a [`LiveProgram`]
//! whose cursors are node ids, and the live callbacks are forwarded to the
//! node-level [`ParallelVisitor`].  The crate therefore has exactly one
//! steal discipline, deque protocol and join protocol to get right (and to
//! tune); see the crate-level documentation for how it maps onto Cilk's
//! scheduler.

use sptree::tree::{NodeId, NodeKind, ParseTree};

use crate::live::{run_live, LiveConfig, LiveNode, LiveProgram, LiveVisitor, SpKind};
use crate::metrics::RunStats;
use crate::visitor::{ParallelVisitor, StealTokens, Token};

/// Configuration of a parallel walk.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Number of worker threads (P).  1 reproduces the serial walk exactly.
    pub workers: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig { workers: 1 }
    }
}

impl WalkConfig {
    /// Convenience constructor.
    pub fn with_workers(workers: usize) -> Self {
        WalkConfig {
            workers: workers.max(1),
        }
    }

    /// The worker count the walk actually runs with: clamped to ≥ 1, the
    /// same normalization `HybridConfig` applies, so a struct-literal
    /// `WalkConfig { workers: 0 }` can never reach the scheduler (where zero
    /// workers would mean zero spawned threads and a walk that never runs).
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }
}

/// A parallel left-to-right walk of a parse tree with Cilk-style work stealing.
pub struct ParallelWalk<'t, V> {
    tree: &'t ParseTree,
    visitor: &'t V,
    config: WalkConfig,
}

impl<'t, V: ParallelVisitor> ParallelWalk<'t, V> {
    /// Create a walk of `tree` reporting to `visitor`.
    pub fn new(tree: &'t ParseTree, visitor: &'t V, config: WalkConfig) -> Self {
        ParallelWalk {
            tree,
            visitor,
            config,
        }
    }

    /// Run the walk to completion, starting the root with `initial_token`.
    pub fn run(&self, initial_token: Token) -> RunStats {
        let visitor = TreeVisitor {
            tree: self.tree,
            inner: self.visitor,
        };
        let config = LiveConfig::with_workers(self.config.effective_workers());
        run_live(&TreeProgram(self.tree), &visitor, config, 0, initial_token)
    }
}

/// A parse tree as a live program: cursors and metadata are node ids.
struct TreeProgram<'t>(&'t ParseTree);

impl LiveProgram for TreeProgram<'_> {
    type Cursor = NodeId;
    type Meta = NodeId;

    fn root(&self) -> NodeId {
        self.0.root()
    }

    fn unfold(&self, node: NodeId) -> LiveNode<NodeId, NodeId> {
        let kind = match self.0.kind(node) {
            NodeKind::Leaf(_) => return LiveNode::Leaf(node),
            NodeKind::S => SpKind::Series,
            NodeKind::P => SpKind::Parallel,
        };
        LiveNode::Internal {
            kind,
            meta: node,
            left: self.0.left(node),
            right: self.0.right(node),
        }
    }
}

/// Forwards live-walk events to a node-level [`ParallelVisitor`].
struct TreeVisitor<'t, V> {
    tree: &'t ParseTree,
    inner: &'t V,
}

impl<'t, V: ParallelVisitor> LiveVisitor<TreeProgram<'t>> for TreeVisitor<'t, V> {
    fn enter_internal(&self, worker: usize, _: SpKind, &node: &NodeId, _: u64, token: Token) -> (u64, u64) {
        self.inner.enter_internal(worker, node, token);
        (0, 0)
    }

    fn execute_leaf(&self, worker: usize, &node: &NodeId, _: u64, token: Token) {
        let NodeKind::Leaf(thread) = self.tree.kind(node) else {
            unreachable!("the tree program only reports leaves as leaves")
        };
        self.inner.execute_thread(worker, node, thread, token);
    }

    fn between_children(&self, worker: usize, _: SpKind, &node: &NodeId, token: Token) {
        self.inner.between_children(worker, node, token);
    }

    fn leave_internal(&self, worker: usize, _: SpKind, &node: &NodeId, token: Token) {
        self.inner.leave_internal(worker, node, token);
    }

    fn steal(&self, thief: usize, victim: usize, &pnode: &NodeId, token: Token) -> StealTokens {
        self.inner.steal(thief, victim, pnode, token)
    }

    fn join_stolen(&self, worker: usize, &pnode: &NodeId, after: Token) {
        self.inner.join_stolen(worker, pnode, after);
    }

    fn finished(&self, token: Token) {
        self.inner.finished(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sptree::builder::Ast;
    use sptree::generate::{balanced_parallel, random_sp_ast, serial_chain};
    use sptree::tree::ThreadId;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Visitor that records which threads executed and how often, plus event
    /// balance, and hands out fresh tokens on steals.
    struct Recorder {
        executed: Vec<AtomicUsize>,
        enters: AtomicUsize,
        leaves_or_joins: AtomicUsize,
        steals_seen: AtomicUsize,
        next_token: AtomicU64,
        /// (thread, token) pairs, for token-consistency checks.
        tokens: Mutex<Vec<(u32, Token)>>,
        spin: u64,
    }

    impl Recorder {
        fn new(threads: usize, spin: u64) -> Self {
            Recorder {
                executed: (0..threads).map(|_| AtomicUsize::new(0)).collect(),
                enters: AtomicUsize::new(0),
                leaves_or_joins: AtomicUsize::new(0),
                steals_seen: AtomicUsize::new(0),
                next_token: AtomicU64::new(1),
                tokens: Mutex::new(Vec::new()),
                spin,
            }
        }
    }

    impl ParallelVisitor for Recorder {
        fn enter_internal(&self, _w: usize, _n: NodeId, _t: Token) {
            self.enters.fetch_add(1, Ordering::Relaxed);
        }
        fn leave_internal(&self, _w: usize, _n: NodeId, _t: Token) {
            self.leaves_or_joins.fetch_add(1, Ordering::Relaxed);
        }
        fn join_stolen(&self, _w: usize, _n: NodeId, _t: Token) {
            self.leaves_or_joins.fetch_add(1, Ordering::Relaxed);
        }
        fn execute_thread(&self, _w: usize, _n: NodeId, thread: ThreadId, token: Token) {
            self.executed[thread.index()].fetch_add(1, Ordering::Relaxed);
            self.tokens.lock().unwrap().push((thread.0, token));
            // Busy work to widen the steal window.
            let mut x = 1u64;
            for i in 0..self.spin {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        fn steal(&self, _thief: usize, _victim: usize, _p: NodeId, _token: Token) -> StealTokens {
            self.steals_seen.fetch_add(1, Ordering::Relaxed);
            let right = self.next_token.fetch_add(2, Ordering::Relaxed);
            StealTokens {
                right,
                after: right + 1,
            }
        }
    }

    fn check_run(tree: &sptree::tree::ParseTree, workers: usize, spin: u64) -> RunStats {
        let recorder = Recorder::new(tree.num_threads(), spin);
        let walk = ParallelWalk::new(tree, &recorder, WalkConfig::with_workers(workers));
        let stats = walk.run(0);
        // Every thread executed exactly once.
        for (i, count) in recorder.executed.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "thread {i} execution count");
        }
        // Every internal node entered exactly once and completed exactly once.
        let internal = tree.num_nodes() - tree.num_threads();
        assert_eq!(recorder.enters.load(Ordering::Relaxed), internal);
        assert_eq!(recorder.leaves_or_joins.load(Ordering::Relaxed), internal);
        // Steal count in the stats matches steal callbacks.
        assert_eq!(stats.steals as usize, recorder.steals_seen.load(Ordering::Relaxed));
        assert_eq!(stats.total_threads() as usize, tree.num_threads());
        stats
    }

    #[test]
    fn single_worker_matches_serial_semantics() {
        let tree = random_sp_ast(300, 0.5, 42).build();
        let stats = check_run(&tree, 1, 0);
        assert_eq!(stats.steals, 0, "one worker can never steal");
        assert_eq!(stats.final_token, 0, "token must be unchanged without steals");
    }

    #[test]
    fn two_workers_complete_all_threads() {
        for seed in 0..5u64 {
            let tree = random_sp_ast(400, 0.6, seed).build();
            check_run(&tree, 2, 200);
        }
    }

    #[test]
    fn many_workers_on_balanced_parallel_tree() {
        let tree = balanced_parallel(2048, 1).build();
        let stats = check_run(&tree, 8, 500);
        // With 8 workers, 24 cores and 2048 long-running parallel leaves,
        // steals essentially always occur; the structural checks above are the
        // real assertions, but verify work actually spread out.
        assert!(stats.steals > 0, "expected at least one steal");
        assert!(
            stats.threads_per_worker.iter().filter(|&&c| c > 0).count() > 1,
            "work should be distributed across workers"
        );
    }

    #[test]
    fn serial_chain_cannot_be_stolen() {
        // A pure serial chain has no P-nodes, hence nothing to steal.
        let tree = serial_chain(500, 1).build();
        let stats = check_run(&tree, 4, 10);
        assert_eq!(stats.steals, 0);
        // All threads executed by worker 0.
        assert_eq!(stats.threads_per_worker[0] as usize, tree.num_threads());
    }

    #[test]
    fn single_leaf_tree() {
        let tree = Ast::leaf(1).build();
        let stats = check_run(&tree, 4, 0);
        assert_eq!(stats.total_threads(), 1);
    }

    #[test]
    fn tokens_propagate_serially_when_not_stolen() {
        // With one worker, every leaf must see the initial token.
        let tree = random_sp_ast(200, 0.5, 7).build();
        let recorder = Recorder::new(tree.num_threads(), 0);
        let walk = ParallelWalk::new(&tree, &recorder, WalkConfig::with_workers(1));
        walk.run(77);
        let tokens = recorder.tokens.lock().unwrap();
        assert!(tokens.iter().all(|&(_, tok)| tok == 77));
    }

    #[test]
    fn zero_workers_struct_literal_is_clamped_to_one() {
        // Regression: `WalkConfig { workers: 0 }` built as a struct literal
        // bypasses `with_workers`; the walk must normalize it exactly like
        // `HybridConfig` does, so live and tree-driven runs cannot diverge on
        // a degenerate config.
        let config = WalkConfig { workers: 0 };
        assert_eq!(config.effective_workers(), 1);
        assert_eq!(WalkConfig::with_workers(0).workers, 1);
        let tree = random_sp_ast(100, 0.5, 11).build();
        let recorder = Recorder::new(tree.num_threads(), 0);
        let walk = ParallelWalk::new(&tree, &recorder, config);
        let stats = walk.run(5);
        assert_eq!(stats.workers, 1, "zero workers must clamp to one");
        assert_eq!(stats.steals, 0, "one worker can never steal");
        assert_eq!(stats.total_threads() as usize, tree.num_threads());
        assert_eq!(stats.final_token, 5, "token unchanged without steals");
    }

    #[test]
    fn repeated_parallel_runs_are_structurally_sound() {
        // Hammer the join protocol: many runs of a fork-heavy tree.
        let tree = random_sp_ast(600, 0.8, 99).build();
        for _ in 0..20 {
            check_run(&tree, 6, 50);
        }
    }
}
