//! Property-based tests for the flow substrate.

use proptest::prelude::*;
use sor_flow::assignment::solve;
use sor_flow::hungarian;
use sor_flow::validate::{check_capacities, check_conservation, is_min_cost};
use sor_flow::{Graph, MinCostFlow, NodeId};

/// Strategy: a random square cost matrix with n in 1..=7 and small costs.
fn cost_matrix() -> impl Strategy<Value = Vec<Vec<i64>>> {
    (1usize..=7)
        .prop_flat_map(|n| proptest::collection::vec(proptest::collection::vec(0i64..50, n), n))
}

/// Brute-force optimal assignment cost for cross-checking.
fn brute_force(cost: &[Vec<i64>]) -> i64 {
    fn rec(cost: &[Vec<i64>], used: &mut Vec<bool>, row: usize, acc: i64, best: &mut i64) {
        let n = cost.len();
        if acc >= *best {
            return;
        }
        if row == n {
            *best = acc;
            return;
        }
        for j in 0..n {
            if !used[j] {
                used[j] = true;
                rec(cost, used, row + 1, acc + cost[row][j], best);
                used[j] = false;
            }
        }
    }
    let mut used = vec![false; cost.len()];
    let mut best = i64::MAX;
    rec(cost, &mut used, 0, 0, &mut best);
    best
}

proptest! {
    #[test]
    fn assignment_backends_agree(cost in cost_matrix()) {
        let flow = solve(&cost).unwrap();
        let (_, hungarian_cost) = hungarian::solve(&cost).unwrap();
        prop_assert_eq!(flow.total_cost, hungarian_cost);
    }

    #[test]
    fn assignment_matches_brute_force(cost in cost_matrix()) {
        let a = solve(&cost).unwrap();
        prop_assert_eq!(a.total_cost, brute_force(&cost));
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

    /// Random layered graphs: flow must conserve, respect capacities and
    /// leave no negative residual cycle.
    #[test]
    fn random_flow_is_valid(
        edges in proptest::collection::vec((0usize..8, 0usize..8, 1i64..10, 0i64..20), 1..40)
    ) {
        let mut g = Graph::new(10);
        let s = NodeId(8);
        let t = NodeId(9);
        for &(u, v, cap, cost) in &edges {
            if u != v {
                g.add_edge(NodeId(u), NodeId(v), cap, cost);
            }
        }
        // Wire source/sink to a few nodes deterministically.
        g.add_edge(s, NodeId(0), 5, 0);
        g.add_edge(s, NodeId(1), 5, 0);
        g.add_edge(NodeId(6), t, 5, 0);
        g.add_edge(NodeId(7), t, 5, 0);
        let mut solver = MinCostFlow::new(g);
        solver.solve_max(s, t).unwrap();
        let g = solver.graph();
        prop_assert!(check_capacities(g));
        let report = check_conservation(g, s, t);
        prop_assert!(report.is_valid(), "{:?}", report);
        prop_assert!(is_min_cost(g));
    }

    /// Cost of solve_up_to is monotone non-decreasing in the limit and the
    /// marginal cost per unit is non-decreasing (convexity of min-cost
    /// flow in the flow amount).
    #[test]
    fn flow_cost_is_convex_in_amount(
        edges in proptest::collection::vec((0usize..6, 0usize..6, 1i64..5, 0i64..15), 1..25)
    ) {
        let build = || {
            let mut g = Graph::new(8);
            for &(u, v, cap, cost) in &edges {
                if u != v {
                    g.add_edge(NodeId(u), NodeId(v), cap, cost);
                }
            }
            g.add_edge(NodeId(6), NodeId(0), 10, 0);
            g.add_edge(NodeId(5), NodeId(7), 10, 0);
            g
        };
        let mut max_solver = MinCostFlow::new(build());
        let max = max_solver.solve_max(NodeId(6), NodeId(7)).unwrap().flow;
        let mut costs = Vec::new();
        for amount in 0..=max {
            let mut solver = MinCostFlow::new(build());
            let res = solver.solve_exact(NodeId(6), NodeId(7), amount).unwrap();
            costs.push(res.cost);
        }
        // Monotone.
        for w in costs.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        // Convex marginals.
        for w in costs.windows(3) {
            prop_assert!(w[2] - w[1] >= w[1] - w[0]);
        }
    }
}
