//! The SP-hybrid algorithm itself: tying the scheduler, the global tier and
//! the local tier together (paper Figures 8 and 9).

use forkrt::{ParallelVisitor, ParallelWalk, RunStats, StealTokens, Token, WalkConfig};
use sptree::tree::{NodeId, NodeKind, ParseTree, ThreadId};

use crate::live::LiveSpHybrid;
use crate::trace::TraceId;

/// Configuration of an SP-hybrid run.
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Number of workers (the paper's P).
    pub workers: usize,
    /// Upper bound on the number of traces the global tier can hold.  Defaults
    /// to 4·(number of P-nodes) + 16, the worst case when every P-node's
    /// continuation is stolen.
    pub max_traces: Option<usize>,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            workers: 1,
            max_traces: None,
        }
    }
}

impl HybridConfig {
    /// Convenience constructor.  Clamps `workers` to ≥ 1, matching
    /// [`forkrt::WalkConfig::with_workers`] — zero workers could otherwise be
    /// smuggled in and only be caught deep inside the scheduler.
    pub fn with_workers(workers: usize) -> Self {
        HybridConfig {
            workers: workers.max(1),
            max_traces: None,
        }
    }
}

/// Statistics of a completed SP-hybrid run.
#[derive(Clone, Debug)]
pub struct HybridStats {
    /// Scheduler statistics (steals, per-worker thread counts, wall time).
    pub run: RunStats,
    /// Number of traces at the end (must equal 4·steals + 1).
    pub traces: usize,
    /// Global-tier insertions (one per steal).
    pub global_insertions: u64,
    /// Lock-free query attempts that had to be retried.
    pub query_retries: u64,
}

/// Record of one trace split, kept for diagnostics and for the
/// Theorem-10 benchmarks (splits are rare — one per steal — so logging them
/// is cheap).
#[derive(Clone, Copy, Debug)]
pub struct SplitRecord {
    /// The stolen P-node.
    pub pnode: NodeId,
    /// The procedure whose bags were moved.
    pub proc: sptree::tree::ProcId,
    /// The trace that was split (U = U⁽³⁾).
    pub victim: TraceId,
    /// The four traces created: U⁽¹⁾, U⁽²⁾, U⁽⁴⁾, U⁽⁵⁾.
    pub created: [TraceId; 4],
    /// Position of this split in global-tier insertion order (1-based).
    pub seq: u64,
}

/// The two-tier parallel SP-maintenance structure, driven by a parse tree.
///
/// The tiers themselves are a [`LiveSpHybrid`]; this type derives each
/// maintenance event's procedure (and spawned child) from the tree and logs
/// the splits.  Query semantics follow the paper:
/// [`SpHybrid::precedes_current`] relates an already-executed thread to the
/// **currently executing** thread of a given trace.  The structure expects
/// programs in canonical Cilk form ([`sptree::cilk`]); arbitrary fork-join
/// programs can be brought into that form by adding empty threads (paper
/// footnote 6).
pub struct SpHybrid<'t> {
    tree: &'t ParseTree,
    core: LiveSpHybrid,
    split_log: parking_lot::Mutex<Vec<SplitRecord>>,
}

impl<'t> SpHybrid<'t> {
    /// Build the structure for `tree`.
    pub fn new(tree: &'t ParseTree, config: HybridConfig) -> Self {
        let max_traces = config
            .max_traces
            .unwrap_or_else(|| 4 * tree.num_pnodes() + 16);
        SpHybrid {
            tree,
            core: LiveSpHybrid::with_hints(tree.num_threads(), max_traces),
            split_log: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Which trace does an already-executed thread currently belong to, and is
    /// its bag an S-bag?  (`FIND-TRACE`; exposed for diagnostics and tests.)
    pub fn find_trace(&self, thread: ThreadId) -> (TraceId, bool) {
        self.core.find_trace(thread)
    }

    /// The splits performed so far (one per steal).
    pub fn split_log(&self) -> Vec<SplitRecord> {
        self.split_log.lock().clone()
    }

    /// The trace the computation starts in.
    pub fn root_trace(&self) -> TraceId {
        self.core.root_trace()
    }

    /// The parse tree this structure was built for.
    pub fn tree(&self) -> &'t ParseTree {
        self.tree
    }

    /// Number of traces created so far.
    pub fn num_traces(&self) -> usize {
        self.core.num_traces()
    }

    /// `SP-PRECEDES(earlier, current)` (Figure 9): does the already-executed
    /// thread `earlier` logically precede the currently executing thread,
    /// which runs as part of `current_trace`?
    pub fn precedes_current(&self, earlier: ThreadId, current_trace: TraceId) -> bool {
        self.core.precedes_current(earlier, current_trace)
    }

    /// Does `earlier` operate logically in parallel with the currently
    /// executing thread of `current_trace`?
    pub fn parallel_with_current(&self, earlier: ThreadId, current_trace: TraceId) -> bool {
        !self.precedes_current(earlier, current_trace)
    }

    /// Approximate heap bytes used by the two tiers.
    pub fn space_bytes(&self) -> usize {
        self.core.space_bytes()
    }

    /// Lines 19–24 of Figure 8 for a steal of `pnode`'s continuation from
    /// `victim_trace`, logged.  Returns (U⁽⁴⁾, U⁽⁵⁾).
    fn steal_event(&self, pnode: NodeId, victim_trace: TraceId) -> (TraceId, TraceId) {
        let proc = self.tree.proc_of(pnode);
        let created = self.core.split_traces(proc, victim_trace);
        self.split_log.lock().push(SplitRecord {
            pnode,
            proc,
            victim: victim_trace,
            created,
            seq: self.core.global_insertions(),
        });
        (created[2], created[3])
    }

    /// Run the parallel walk on `workers` workers.  `on_thread` is called on
    /// the executing worker for every thread, with the thread id and the trace
    /// it runs in; this is where a race detector performs its shadowed
    /// accesses and issues [`SpHybrid::precedes_current`] queries.
    pub fn run<F>(&self, workers: usize, on_thread: F) -> HybridStats
    where
        F: Fn(&SpHybrid<'t>, ThreadId, TraceId) + Sync,
    {
        // Clamp here too: `HybridConfig { workers: 0, .. }` built as a struct
        // literal bypasses `with_workers`.
        let workers = workers.max(1);
        let visitor = HybridVisitor {
            hybrid: self,
            on_thread,
        };
        let walk = ParallelWalk::new(self.tree, &visitor, WalkConfig::with_workers(workers));
        let run = walk.run(self.root_trace().to_token());
        HybridStats {
            traces: self.num_traces(),
            global_insertions: self.core.global_insertions(),
            query_retries: self.core.query_retries(),
            run,
        }
    }
}

struct HybridVisitor<'h, 't, F> {
    hybrid: &'h SpHybrid<'t>,
    on_thread: F,
}

impl<'t, F> ParallelVisitor for HybridVisitor<'_, 't, F>
where
    F: Fn(&SpHybrid<'t>, ThreadId, TraceId) + Sync,
{
    fn execute_thread(&self, _worker: usize, node: NodeId, thread: ThreadId, token: Token) {
        let trace = TraceId::from_token(token);
        // Line 3 of Figure 8: insert the thread into the trace, then execute.
        let tree = self.hybrid.tree;
        self.hybrid.core.thread_executed(tree.proc_of(node), thread, trace);
        (self.on_thread)(self.hybrid, thread, trace);
    }

    fn between_children(&self, _worker: usize, node: NodeId, token: Token) {
        let tree = self.hybrid.tree;
        if tree.kind(node) == NodeKind::P {
            let trace = TraceId::from_token(token);
            let (proc, child) = (tree.proc_of(node), tree.spawned_proc(node));
            self.hybrid.core.child_returned(proc, child, trace);
        }
    }

    fn leave_internal(&self, _worker: usize, node: NodeId, token: Token) {
        let tree = self.hybrid.tree;
        if tree.kind(node) == NodeKind::P {
            let trace = TraceId::from_token(token);
            self.hybrid.core.synced(tree.proc_of(node), trace);
        }
    }

    fn steal(&self, _thief: usize, _victim: usize, pnode: NodeId, token: Token) -> StealTokens {
        let (u4, u5) = self.hybrid.steal_event(pnode, TraceId::from_token(token));
        StealTokens {
            right: u4.to_token(),
            after: u5.to_token(),
        }
    }
}

/// Convenience wrapper: build an [`SpHybrid`] for `tree` and run it.
pub fn run_hybrid<'t, F>(
    tree: &'t ParseTree,
    config: HybridConfig,
    on_thread: F,
) -> (SpHybrid<'t>, HybridStats)
where
    F: Fn(&SpHybrid<'t>, ThreadId, TraceId) + Sync,
{
    let hybrid = SpHybrid::new(tree, config);
    let stats = hybrid.run(config.workers, on_thread);
    (hybrid, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use sptree::cilk::CilkProgram;
    use sptree::generate::{fib_like, random_cilk_program, CilkGenParams};
    use sptree::oracle::SpOracle;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Run SP-hybrid on `tree` with `workers` workers; at every thread, query
    /// every already-executed thread and record the answer; then check every
    /// recorded answer against the oracle.
    fn check_against_oracle(tree: &ParseTree, workers: usize, spin: u64) -> HybridStats {
        let executed: Vec<AtomicBool> = (0..tree.num_threads()).map(|_| AtomicBool::new(false)).collect();
        let recorded: Mutex<Vec<(ThreadId, ThreadId, bool)>> = Mutex::new(Vec::new());
        let (_hybrid, stats) = run_hybrid(tree, HybridConfig::with_workers(workers), |h, current, trace| {
            // Busy work to widen steal windows.
            let mut x = 1u64;
            for i in 0..spin {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(x);
            let mut answers = Vec::new();
            for earlier in 0..tree.num_threads() as u32 {
                let earlier = ThreadId(earlier);
                if earlier == current {
                    continue;
                }
                if executed[earlier.index()].load(Ordering::Acquire) {
                    answers.push((earlier, current, h.precedes_current(earlier, trace)));
                }
            }
            recorded.lock().extend(answers);
            executed[current.index()].store(true, Ordering::Release);
        });
        let oracle = SpOracle::new(tree);
        let recorded = recorded.into_inner();
        assert!(!recorded.is_empty());
        for (earlier, current, answer) in recorded {
            assert_eq!(
                answer,
                oracle.precedes(earlier, current),
                "hybrid disagrees with oracle on {earlier:?} ≺ {current:?} (workers={workers})"
            );
        }
        assert_eq!(stats.traces as u64, 4 * stats.run.steals + 1);
        assert_eq!(stats.global_insertions, stats.run.steals);
        stats
    }

    #[test]
    fn single_worker_matches_oracle_on_fib() {
        for depth in [3u32, 5, 7] {
            let tree = CilkProgram::new(fib_like(depth, 1)).build_tree();
            let stats = check_against_oracle(&tree, 1, 0);
            assert_eq!(stats.run.steals, 0);
            assert_eq!(stats.traces, 1);
        }
    }

    #[test]
    fn single_worker_matches_oracle_on_random_cilk_programs() {
        for seed in 0..6u64 {
            let proc = random_cilk_program(CilkGenParams::default(), seed);
            let tree = CilkProgram::new(proc).build_tree();
            check_against_oracle(&tree, 1, 0);
        }
    }

    #[test]
    fn parallel_run_matches_oracle_on_fib() {
        let tree = CilkProgram::new(fib_like(9, 1)).build_tree();
        let stats = check_against_oracle(&tree, 4, 300);
        // With 4 workers on a deep fib tree steals are essentially certain;
        // exercise the cross-trace query path.
        assert!(stats.run.steals > 0, "expected steals to occur");
    }

    #[test]
    fn parallel_run_matches_oracle_on_random_cilk_programs() {
        for seed in 0..4u64 {
            let params = CilkGenParams {
                max_depth: 7,
                max_blocks: 2,
                max_stmts: 4,
                spawn_prob: 0.6,
                work: 2,
            };
            let proc = random_cilk_program(params, seed);
            let tree = CilkProgram::new(proc).build_tree();
            check_against_oracle(&tree, 4, 200);
        }
    }

    #[test]
    fn repeated_parallel_runs_are_consistent() {
        let tree = CilkProgram::new(fib_like(8, 1)).build_tree();
        for _ in 0..5 {
            check_against_oracle(&tree, 6, 100);
        }
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        // Regression: `HybridConfig { workers: 0 }` (struct literal) used to
        // reach the scheduler unclamped while `WalkConfig::with_workers`
        // clamps; both the constructor and `run` now normalize to 1.
        assert_eq!(HybridConfig::with_workers(0).workers, 1);
        let tree = CilkProgram::new(fib_like(5, 1)).build_tree();
        let config = HybridConfig {
            workers: 0,
            max_traces: None,
        };
        let (_hybrid, stats) = run_hybrid(&tree, config, |_h, _t, _tr| {});
        assert_eq!(stats.run.steals, 0, "one worker cannot steal");
        assert_eq!(stats.traces, 1);
    }

    #[test]
    fn trace_accounting_matches_paper() {
        // |C| = 4s + 1 (checked inside the helper) and U3 aliases U: the root
        // trace keeps existing after splits.
        let tree = CilkProgram::new(fib_like(10, 1)).build_tree();
        let stats = check_against_oracle(&tree, 8, 100);
        assert!(stats.traces >= 1);
    }
}
