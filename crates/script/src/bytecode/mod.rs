//! Bytecode compilation and execution for SenseScript.
//!
//! The tree-walking [`crate::Interpreter`] re-traverses the AST on
//! every dispatch — fine for one phone, wasteful when a sensing server
//! fans the same script out to a whole fleet. This subsystem splits
//! that cost into a pay-once compile and a cheap run:
//!
//! 1. [`compile`] lowers a parsed (optionally optimizer-lowered) block
//!    to a compact stack-machine program — interned constants and
//!    names, jump-threaded control flow, and slot-resolved locals for
//!    literal-free functions (see `compiler`).
//! 2. [`Vm`] executes a [`CompiledModule`] with the same observable
//!    semantics as the tree-walker: identical values, error kinds,
//!    `print` output, virtual time, and instruction counts. Its budget
//!    is a **fuel limit** the frontend clamps to the static analyzer's
//!    cost bound.
//! 3. [`ScriptCache`] memoises the whole analyze→optimize→compile
//!    pipeline keyed by source text and capability vocabulary, so a
//!    fleet of phones compiles each script once.
//!
//! The `optdiff` binary cross-checks all three engines (tree-walker,
//! optimized tree-walker, VM) over the lint corpus and fails CI on any
//! divergence.

mod cache;
mod compiler;
mod instr;
mod module;
pub(crate) mod vm;

pub use cache::{
    CacheOutcome, CacheStats, Prepared, PreparedScript, ScriptCache, DEFAULT_CACHE_CAPACITY,
};
pub use compiler::compile;
pub use module::CompiledModule;
pub use vm::{Vm, VmClosure};
