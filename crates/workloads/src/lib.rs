//! Synthetic fork-join workloads and access scripts for tests and benchmarks.
//!
//! The paper evaluates SP-maintenance analytically; to *measure* the
//! algorithms we need concrete fork-join programs with controllable
//! parameters (thread count n, work T₁, critical path T∞, fork count f,
//! nesting depth d) and concrete shared-memory behaviour (racy or race-free).
//! This crate packages the program shapes the paper's setting implies —
//! divide-and-conquer recursion, parallel loops, serial chains, deeply nested
//! forks, random Cilk programs — together with access-script generators for
//! the race-detection experiments.

#![forbid(unsafe_code)]

pub mod datadep;
pub mod graphs;
pub mod live;
pub mod programs;
pub mod scripts;

pub use datadep::{
    branch_bound_plan, branch_bound_procedure, live_branch_bound, live_quicksort, live_reduction,
    quicksort_input, quicksort_procedure, reduction_input, reduction_plan, reduction_procedure,
    BranchBoundPlan, ReductionPlan,
};
pub use graphs::{
    bfs_plan, bfs_procedure, live_bfs_from_plan, live_graph_bfs, power_law_digraph,
    uniform_digraph, BfsChunk, BfsPlan, BfsVariant, Digraph,
};
pub use live::{
    live_fib, live_from_cilk, live_growth, live_matmul, live_parallel_loop, live_serial_chain,
    live_spawn_chain, LiveWorkload,
};
pub use programs::{Workload, WorkloadKind};
pub use scripts::{
    disjoint_writes, inject_races, racy_locations_oracle, random_mixed_script,
    shared_read_private_write,
};
