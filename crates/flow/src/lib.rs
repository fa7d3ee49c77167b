//! Network-flow substrate for the SOR reproduction.
//!
//! The SOR paper (§IV-B) aggregates per-feature rankings into a final
//! personalizable ranking by solving a **minimum-cost perfect matching**
//! between target places and rank positions, formulated as a min-cost
//! `s`–`z` flow on an auxiliary unit-capacity graph (ref. \[1\] of the
//! paper: Ahuja, Magnanti, Orlin, *Network Flows*). This crate provides
//! that substrate from scratch:
//!
//! - [`Graph`]: a compact adjacency-list directed flow network.
//! - [`MinCostFlow`]: successive shortest augmenting paths with Johnson
//!   potentials (Bellman-Ford bootstrap, Dijkstra thereafter), exact on
//!   integer costs, guaranteed integral on unit-capacity graphs.
//! - [`assignment`]: square assignment problems solved as min-cost flow
//!   on the paper's auxiliary graph.
//! - [`hungarian`]: an independent `O(n³)` Hungarian (Kuhn–Munkres)
//!   assignment solver, the test oracle for the flow formulation.
//!
//! Costs are `i64`. Callers with fractional costs (e.g. fractional
//! feature weights) should scale to fixed point first; the ranking layer
//! in `sor-core` does exactly that.
//!
//! # Example
//!
//! ```
//! use sor_flow::assignment::solve;
//!
//! // cost[i][j] = cost of assigning row i to column j
//! let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
//! let sol = solve(&cost).unwrap();
//! assert_eq!(sol.total_cost, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod graph;
pub mod hungarian;
pub mod mincost;
pub mod shortest;
pub mod validate;

pub use assignment::{solve as solve_assignment, AssignmentSolution};
pub use graph::{EdgeId, Graph, NodeId};
pub use mincost::{FlowResult, MinCostFlow};

/// Errors produced by the flow substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The requested amount of flow cannot be routed from source to sink.
    Infeasible {
        /// Flow that was actually routed before the network saturated.
        routed: i64,
        /// Flow that was requested.
        requested: i64,
    },
    /// The graph contains a negative-cost cycle reachable from the source,
    /// so shortest augmenting paths are undefined.
    NegativeCycle,
    /// A node id was out of range for the graph it was used with.
    InvalidNode(usize),
    /// The assignment cost matrix was empty or not square.
    MalformedMatrix {
        /// Number of rows supplied.
        rows: usize,
        /// Length of the first offending row (or expected width).
        cols: usize,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Infeasible { routed, requested } => write!(
                f,
                "network saturated after routing {routed} of {requested} requested flow units"
            ),
            FlowError::NegativeCycle => {
                write!(f, "negative-cost cycle reachable from the source")
            }
            FlowError::InvalidNode(n) => write!(f, "node id {n} out of range"),
            FlowError::MalformedMatrix { rows, cols } => {
                write!(f, "assignment matrix malformed: {rows} rows, offending width {cols}")
            }
        }
    }
}

impl std::error::Error for FlowError {}
