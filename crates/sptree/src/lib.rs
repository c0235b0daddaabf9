//! Series-parallel parse trees for fork-join multithreaded programs.
//!
//! The execution of a fork-join program is a series-parallel computation dag,
//! which can be represented by an **SP parse tree** (paper §1, Figures 1–2):
//! leaves are *threads* (maximal blocks of serial execution) and internal
//! nodes are either **S-nodes** (the left subtree executes entirely before the
//! right subtree) or **P-nodes** (the two subtrees execute logically in
//! parallel).  Every SP-maintenance algorithm in this repository consumes a
//! parse tree, either through a serial left-to-right walk ([`walk`]) or
//! through the parallel work-stealing walk in the `forkrt`/`sphybrid` crates.
//!
//! The crate provides:
//!
//! * [`tree::ParseTree`] — an arena-based full-binary parse tree with
//!   procedure annotations (the canonical "one spawn per P-node" Cilk view),
//! * [`builder::Ast`] — a small description language (`Seq` / `Par` /
//!   `Thread`) from which trees are built,
//! * [`cilk`] — Cilk-style programs (procedures made of sync blocks) and their
//!   canonical parse-tree lowering (paper Figure 10),
//! * [`walk`] — iterative left-to-right, English and Hebrew tree walks,
//! * [`oracle`] — an LCA-based ground-truth SP relation used to validate every
//!   algorithm,
//! * [`dag`] — the computation-dag view plus work/critical-path metrics,
//! * [`generate`] — seeded random program generators used by tests and by the
//!   benchmark harness.

#![forbid(unsafe_code)]

pub mod builder;
pub mod cilk;
pub mod dag;
pub mod generate;
pub mod oracle;
pub mod tree;
pub mod walk;

pub use builder::Ast;
pub use cilk::{CilkProgram, Procedure, Stmt, SyncBlock};
pub use dag::{ComputationDag, WorkSpan};
pub use oracle::{Relation, SpOracle};
pub use tree::{NodeId, NodeKind, ParseTree, ProcId, ThreadId};
pub use walk::{serial_walk, TreeVisitor, WalkEvent};
