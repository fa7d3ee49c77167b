//! Assignment substrate for the SOR reproduction: the §IV-B rank
//! aggregation is a minimum-cost perfect matching between places and
//! rank positions, a min-cost flow on the paper's unit-capacity
//! bipartite graph (ref. \[1\]: Ahuja, Magnanti, Orlin, *Network
//! Flows*). [`assignment::solve`] finds it, canonically among equal-cost
//! optima. Costs are `i64`; `sor-core` scales fractional weights to
//! fixed point first.
//!
//! ```
//! // cost[i][j] = cost of assigning row i to column j
//! let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
//! assert_eq!(sor_flow::solve_assignment(&cost).unwrap().total_cost, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;

pub use assignment::{solve as solve_assignment, AssignmentSolution};

/// Errors produced by the assignment solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
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
            FlowError::MalformedMatrix { rows, cols } => {
                write!(f, "assignment matrix malformed: {rows} rows, offending width {cols}")
            }
        }
    }
}

impl std::error::Error for FlowError {}
