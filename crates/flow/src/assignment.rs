//! Square assignment problem.
//!
//! The SOR ranking aggregation (§IV-B) reduces to assigning `N` target
//! places to `N` rank positions at minimum total cost. The paper solves
//! it as a min-cost `s`–`z` flow on a unit-capacity bipartite graph,
//! and so does [`solve`]. The Hungarian algorithm solves the identical
//! problem directly; [`crate::hungarian::solve`] is kept as the test
//! oracle for this module.

use crate::graph::{Graph, NodeId};
use crate::mincost::MinCostFlow;
use crate::FlowError;

/// Solution to an assignment instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignmentSolution {
    /// `assignment[i] = j`: row `i` (target place) goes to column `j`
    /// (rank position).
    pub assignment: Vec<usize>,
    /// Total cost of the matching.
    pub total_cost: i64,
}

/// Solves the square assignment problem `cost[i][j]` by min-cost flow
/// on the paper's auxiliary graph.
///
/// # Errors
///
/// - [`FlowError::MalformedMatrix`] if the matrix is empty or not square.
/// - Flow errors surface unchanged (they indicate a bug in the graph
///   construction rather than bad input, since the bipartite graph is
///   always feasible).
///
/// # Example
///
/// ```
/// use sor_flow::assignment::solve;
/// let cost = vec![vec![1, 10], vec![10, 1]];
/// let flow = solve(&cost).unwrap();
/// let (_, hungarian_cost) = sor_flow::hungarian::solve(&cost).unwrap();
/// assert_eq!(flow.total_cost, hungarian_cost);
/// assert_eq!(flow.assignment, vec![0, 1]);
/// ```
pub fn solve(cost: &[Vec<i64>]) -> Result<AssignmentSolution, FlowError> {
    let n = cost.len();
    if n == 0 {
        return Err(FlowError::MalformedMatrix { rows: 0, cols: 0 });
    }
    for row in cost {
        if row.len() != n {
            return Err(FlowError::MalformedMatrix { rows: n, cols: row.len() });
        }
    }
    // The paper's auxiliary graph: source `s`, one node per place, one
    // node per rank, sink `z`; all capacities 1; place→rank arcs carry
    // the assignment cost; then `n` units of min-cost flow are routed.
    // Layout: 0 = s, 1..=n places, n+1..=2n ranks, 2n+1 = z.
    let mut g = Graph::new(2 * n + 2);
    let s = NodeId(0);
    let z = NodeId(2 * n + 1);
    for i in 0..n {
        g.add_edge(s, NodeId(1 + i), 1, 0);
        g.add_edge(NodeId(n + 1 + i), z, 1, 0);
    }
    let mut place_rank_edges = Vec::with_capacity(n * n);
    for (i, row) in cost.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            let e = g.add_edge(NodeId(1 + i), NodeId(n + 1 + j), 1, c);
            place_rank_edges.push((i, j, e));
        }
    }
    let mut solver = MinCostFlow::new(g);
    let res = solver.solve_exact(s, z, n as i64)?;
    let g = solver.graph();
    let mut assignment = vec![usize::MAX; n];
    for &(i, j, e) in &place_rank_edges {
        if g.flow_on(e) > 0 {
            debug_assert_eq!(assignment[i], usize::MAX, "place {i} matched twice");
            assignment[i] = j;
        }
    }
    debug_assert!(assignment.iter().all(|&j| j != usize::MAX));
    Ok(AssignmentSolution { assignment, total_cost: res.cost })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::hungarian;

    #[test]
    fn backends_agree_on_total_cost() {
        let cost = vec![vec![7, 2, 1, 9], vec![4, 3, 6, 0], vec![5, 8, 2, 2], vec![1, 1, 4, 3]];
        let flow = solve(&cost).unwrap();
        let (_, hungarian_cost) = hungarian::solve(&cost).unwrap();
        assert_eq!(flow.total_cost, hungarian_cost);
    }

    #[test]
    fn flow_backend_produces_permutation() {
        let cost = vec![vec![5, 5, 5], vec![5, 5, 5], vec![5, 5, 5]];
        let sol = solve(&cost).unwrap();
        let mut seen = [false; 3];
        for &j in &sol.assignment {
            assert!(!seen[j]);
            seen[j] = true;
        }
        assert_eq!(sol.total_cost, 15);
    }

    #[test]
    fn one_by_one_matrix() {
        let sol = solve(&[vec![42]]).unwrap();
        assert_eq!(sol.assignment, vec![0]);
        assert_eq!(sol.total_cost, 42);
    }

    #[test]
    fn malformed_matrices_rejected_by_both() {
        assert!(solve(&[]).is_err());
        assert!(hungarian::solve(&[]).is_err());
        let ragged = [vec![1, 2], vec![3]];
        assert!(solve(&ragged).is_err());
        assert!(hungarian::solve(&ragged).is_err());
    }
}
