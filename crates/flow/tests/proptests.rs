//! Property-based tests for the assignment solver, against brute force.

use proptest::prelude::*;
use sor_flow::assignment::{solve, AssignmentSolution};

/// Strategy: a random square cost matrix with n in 1..=7 and costs in
/// `0..2`, `0..4` or `0..50`; the narrow ranges make most instances
/// have several optima.
fn cost_matrix() -> impl Strategy<Value = Vec<Vec<i64>>> {
    (1usize..=7, 0usize..3).prop_flat_map(|(n, range)| {
        let hi = [2i64, 4, 50][range];
        proptest::collection::vec(proptest::collection::vec(0i64..hi, n), n)
    })
}

/// The optimum with the smallest column order: enumerates the orders
/// (row at column 0, row at column 1, …) lexicographically and keeps
/// the first of minimum cost.
fn brute_force(cost: &[Vec<i64>]) -> AssignmentSolution {
    fn rec(
        cost: &[Vec<i64>],
        order: &mut Vec<usize>,
        used: &mut [bool],
        acc: i64,
        best: &mut Option<(i64, Vec<usize>)>,
    ) {
        let n = cost.len();
        if order.len() == n {
            if best.as_ref().is_none_or(|(c, _)| acc < *c) {
                *best = Some((acc, order.clone()));
            }
            return;
        }
        let j = order.len();
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                order.push(i);
                rec(cost, order, used, acc + cost[i][j], best);
                order.pop();
                used[i] = false;
            }
        }
    }
    let mut best = None;
    rec(cost, &mut Vec::new(), &mut vec![false; cost.len()], 0, &mut best);
    let (total_cost, order) = best.expect("non-empty matrix");
    let mut assignment = vec![0; order.len()];
    for (j, &i) in order.iter().enumerate() {
        assignment[i] = j;
    }
    AssignmentSolution { assignment, total_cost }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn assignment_matches_brute_force(cost in cost_matrix()) {
        prop_assert_eq!(solve(&cost).unwrap(), brute_force(&cost));
    }

    #[test]
    fn assignment_is_permutation(cost in cost_matrix()) {
        let sol = solve(&cost).unwrap();
        let n = cost.len();
        let mut seen = vec![false; n];
        for &j in &sol.assignment {
            prop_assert!(j < n);
            prop_assert!(!seen[j]);
            seen[j] = true;
        }
    }
}
