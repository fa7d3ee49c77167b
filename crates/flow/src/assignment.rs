//! Square assignment problem: the §IV-B aggregation assigns `N` places
//! to `N` rank positions at minimum total cost. The paper solves it as a
//! min-cost flow on a unit-capacity bipartite graph; [`solve`] runs the
//! same successive-shortest-path algorithm on that dense graph. Dual
//! potentials `u` (rows) and `v` (columns) keep every reduced cost
//! `cost[i][j] − u[i] − v[j]` non-negative, so each augmentation is one
//! `O(n²)` Dijkstra scan over the columns.
//!
//! Which of several equal-cost optima the augmentations reach depends on
//! scan order, so a canonical pass returns the optimum whose column order
//! (the row at column 0, then at column 1, …) is lexicographically
//! smallest: the answer is a function of the cost matrix alone.

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

/// Solves the square assignment problem `cost[i][j]`: the minimum-cost
/// perfect matching of rows to columns whose column order is
/// lexicographically smallest among all minimum-cost ones.
///
/// # Errors
///
/// [`FlowError::MalformedMatrix`] if the matrix is empty or not square.
///
/// # Example
///
/// ```
/// use sor_flow::assignment::solve;
/// let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
/// let sol = solve(&cost).unwrap();
/// assert_eq!(sol.total_cost, 5);
/// assert_eq!(sol.assignment, vec![1, 0, 2]);
/// // Equal rows tie: the lower row gets the lower column.
/// assert_eq!(solve(&[vec![3, 5], vec![3, 5]]).unwrap().assignment, vec![0, 1]);
/// ```
pub fn solve(cost: &[Vec<i64>]) -> Result<AssignmentSolution, FlowError> {
    solve_with_duals(cost).map(|(solution, _, _)| solution)
}

/// [`solve`], plus the optimal duals `u`, `v` that certify it:
/// `cost[i][j] ≥ u[i] + v[j]` everywhere, with equality on matched pairs.
fn solve_with_duals(
    cost: &[Vec<i64>],
) -> Result<(AssignmentSolution, Vec<i64>, Vec<i64>), FlowError> {
    let n = cost.len();
    if n == 0 {
        return Err(FlowError::MalformedMatrix { rows: 0, cols: 0 });
    }
    if let Some(row) = cost.iter().find(|row| row.len() != n) {
        return Err(FlowError::MalformedMatrix { rows: n, cols: row.len() });
    }
    let (mut row_of, u, v) = shortest_augmenting_paths(cost);
    canonicalize(&mut row_of, |i, j| cost[i][j] - u[i] - v[j] == 0);
    let mut assignment = vec![0; n];
    let mut total_cost = 0;
    for (j, &i) in row_of.iter().enumerate() {
        assignment[i] = j;
        total_cost += cost[i][j];
    }
    Ok((AssignmentSolution { assignment, total_cost }, u, v))
}

#[cfg(test)]
thread_local! {
    /// Dijkstra steps taken by [`shortest_augmenting_paths`] on this
    /// thread: one per settled column, the virtual one included.
    static SETTLED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Inserts the rows one at a time, each along a shortest augmenting
/// path under reduced costs. Equal distances prefer a free column, so a
/// row that has a tight free column is inserted in one step. Returns
/// `row_of[j]`, the row matched to column `j`, and the optimal duals
/// `u`, `v`.
fn shortest_augmenting_paths(cost: &[Vec<i64>]) -> (Vec<usize>, Vec<i64>, Vec<i64>) {
    const FREE: usize = usize::MAX;
    let n = cost.len();
    // Column `n` is virtual: it holds the row being inserted, and the
    // shortest-path tree is rooted at it.
    let mut u = vec![0i64; n];
    let mut v = vec![0i64; n + 1];
    let mut row_of = vec![FREE; n + 1];
    let mut way = vec![n; n + 1];
    let mut min_reduced = vec![i64::MAX; n + 1];
    let mut done = vec![false; n + 1];
    for i in 0..n {
        row_of[n] = i;
        min_reduced.fill(i64::MAX);
        done.fill(false);
        let mut j0 = n;
        // Dijkstra: settle the closest column until a free one is reached.
        loop {
            #[cfg(test)]
            SETTLED.with(|c| c.set(c.get() + 1));
            done[j0] = true;
            let i0 = row_of[j0];
            let mut delta = i64::MAX;
            let mut j1 = n;
            for j in 0..n {
                if done[j] {
                    continue;
                }
                let reduced = cost[i0][j] - u[i0] - v[j];
                if reduced < min_reduced[j] {
                    min_reduced[j] = reduced;
                    way[j] = j0;
                }
                // On a tie, a free column ends the search at once; a
                // matched one would only lead on to another column at
                // the same distance.
                if min_reduced[j] < delta
                    || (min_reduced[j] == delta && row_of[j] == FREE && row_of[j1] != FREE)
                {
                    delta = min_reduced[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if done[j] {
                    u[row_of[j]] += delta;
                    v[j] -= delta;
                } else {
                    min_reduced[j] -= delta;
                }
            }
            j0 = j1;
            if row_of[j0] == FREE {
                break;
            }
        }
        // Augment: shift every row on the path one column along.
        while j0 != n {
            let prev = way[j0];
            row_of[j0] = row_of[prev];
            j0 = prev;
        }
    }
    row_of.truncate(n);
    v.truncate(n);
    (row_of, u, v)
}

/// Rewrites the optimal matching `row_of` into the optimum with the
/// smallest column order. Every optimal matching uses only tight arcs
/// (complementary slackness), and every perfect matching of tight arcs
/// is optimal. Columns are fixed in order: row `x` can take column `j`
/// exactly when `x` takes `j`, another unfixed row takes `x`'s column,
/// and so on until `row_of[j]` takes the column freed last. One
/// breadth-first search from `row_of[j]` over reversed tight arcs finds
/// every such row; the smallest one takes `j`, and the matching rotates
/// along its path. `O(n · tight arcs)` in all.
fn canonicalize(row_of: &mut [usize], is_tight: impl Fn(usize, usize) -> bool) {
    let n = row_of.len();
    let tight: Vec<Vec<usize>> =
        (0..n).map(|i| (0..n).filter(|&j| is_tight(i, j)).collect()).collect();
    let mut col_of = vec![0; n];
    for (j, &i) in row_of.iter().enumerate() {
        col_of[i] = j;
    }
    // `next[x]`: the row that takes `x`'s column when `x` leaves it.
    let mut next = vec![0; n];
    // `reached[x] == j` once the search for column `j` has found `x`.
    let mut reached = vec![usize::MAX; n];
    let mut queue = Vec::with_capacity(n);
    for j in 0..n {
        let holder = row_of[j];
        reached[holder] = j;
        queue.clear();
        queue.push(holder);
        let mut best = holder;
        let mut head = 0;
        while let Some(&y) = queue.get(head) {
            head += 1;
            // Columns before `j` are fixed; `j` itself is `holder`'s.
            for &p in tight[y].iter().filter(|&&p| p > j) {
                let x = row_of[p];
                if reached[x] != j {
                    reached[x] = j;
                    next[x] = y;
                    queue.push(x);
                    if x < best && is_tight(x, j) {
                        best = x;
                    }
                }
            }
        }
        let (mut row, mut col) = (best, j);
        loop {
            let freed = col_of[row];
            col_of[row] = col;
            row_of[col] = row;
            if row == holder {
                break;
            }
            (row, col) = (next[row], freed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every assignment, smallest column order first; the first of
    /// minimum cost wins.
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

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// `Σ_k w_k · |π_k(i) − j|` over a few seeded permutations `π_k`,
    /// the shape of the footrule aggregation's costs.
    fn footrule_shaped(n: usize, seed: u64) -> Vec<Vec<i64>> {
        let mut state = seed;
        let rankings: Vec<(i64, Vec<usize>)> = (0..4)
            .map(|_| {
                let mut pos: Vec<usize> = (0..n).collect();
                for k in (1..n).rev() {
                    pos.swap(k, (xorshift(&mut state) % (k as u64 + 1)) as usize);
                }
                ((xorshift(&mut state) % 6) as i64, pos)
            })
            .collect();
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| rankings.iter().map(|(w, pos)| w * pos[i].abs_diff(j) as i64).sum())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn duals_certify_optimality() {
        let n = 64;
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let random: Vec<Vec<i64>> = (0..n)
            .map(|_| (0..n).map(|_| (xorshift(&mut state) % 1000) as i64).collect())
            .collect();
        for cost in [random, vec![vec![7; n]; n], footrule_shaped(n, 17)] {
            let (sol, u, v) = solve_with_duals(&cost).unwrap();
            let mut dual_total = 0;
            for (i, row) in cost.iter().enumerate() {
                dual_total += u[i] + v[i];
                for (j, (&c, &vj)) in row.iter().zip(&v).enumerate() {
                    let reduced = c - u[i] - vj;
                    assert!(reduced >= 0, "reduced cost {reduced} at ({i}, {j})");
                }
                let j = sol.assignment[i];
                assert_eq!(row[j], u[i] + v[j], "matched pair ({i}, {j}) is not tight");
            }
            assert_eq!(dual_total, sol.total_cost);
        }
    }

    #[test]
    fn flow_backend_produces_permutation() {
        let cost = vec![vec![5, 5, 5], vec![5, 5, 5], vec![5, 5, 5]];
        let sol = solve(&cost).unwrap();
        assert_eq!(sol.assignment, vec![0, 1, 2], "a full tie keeps the rows in order");
        assert_eq!(sol.total_cost, 15);
    }

    #[test]
    fn total_cost_agrees_with_brute_force() {
        let cost = vec![vec![7, 2, 1, 9], vec![4, 3, 6, 0], vec![5, 8, 2, 2], vec![1, 1, 4, 3]];
        assert_eq!(solve(&cost).unwrap().total_cost, brute_force(&cost).total_cost);
    }

    #[test]
    fn one_by_one_matrix() {
        let sol = solve(&[vec![42]]).unwrap();
        assert_eq!(sol.assignment, vec![0]);
        assert_eq!(sol.total_cost, 42);
    }

    #[test]
    fn solves_identity_like_matrix() {
        let cost = vec![vec![0, 9, 9], vec![9, 0, 9], vec![9, 9, 0]];
        let sol = solve(&cost).unwrap();
        assert_eq!(sol.total_cost, 0);
        assert_eq!(sol.assignment, vec![0, 1, 2]);
    }

    #[test]
    fn solves_known_3x3() {
        let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        assert_eq!(solve(&cost).unwrap(), brute_force(&cost));
    }

    #[test]
    fn ties_go_to_the_lower_row() {
        // Both matchings cost 2: row 0 takes column 0 either way round.
        assert_eq!(solve(&[vec![1, 1], vec![1, 1]]).unwrap().assignment, vec![0, 1]);
        assert_eq!(solve(&[vec![0, 1], vec![1, 2]]).unwrap().assignment, vec![0, 1]);
        assert_eq!(solve(&[vec![2, 1], vec![1, 0]]).unwrap().assignment, vec![0, 1]);
        // Column 0 can only go to row 2 at optimum; column 1 then to row 0.
        let cost = vec![vec![5, 0, 0], vec![5, 0, 0], vec![0, 5, 5]];
        assert_eq!(solve(&cost).unwrap().assignment, vec![1, 2, 0]);
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(solve(&[]), Err(FlowError::MalformedMatrix { rows: 0, cols: 0 })));
    }

    #[test]
    fn rejects_ragged() {
        let cost = vec![vec![1, 2], vec![3]];
        assert!(matches!(solve(&cost), Err(FlowError::MalformedMatrix { rows: 2, cols: 1 })));
    }

    #[test]
    fn malformed_matrices_rejected() {
        let wide = vec![vec![1, 2, 3], vec![4, 5, 6]];
        assert!(matches!(solve(&wide), Err(FlowError::MalformedMatrix { rows: 2, cols: 3 })));
        let tall = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        assert!(matches!(solve(&tall), Err(FlowError::MalformedMatrix { rows: 3, cols: 2 })));
        let long_last = vec![vec![1, 2], vec![3, 4, 5]];
        assert!(matches!(solve(&long_last), Err(FlowError::MalformedMatrix { rows: 2, cols: 3 })));
    }

    #[test]
    fn assignment_is_a_permutation() {
        let cost = vec![vec![7, 2, 1, 9], vec![4, 3, 6, 0], vec![5, 8, 2, 2], vec![1, 1, 4, 3]];
        let sol = solve(&cost).unwrap();
        let mut seen = [false; 4];
        for &j in &sol.assignment {
            assert!(!seen[j], "column {j} assigned twice");
            seen[j] = true;
        }
    }

    #[test]
    fn matches_brute_force_on_fixed_matrices() {
        let matrices = vec![
            vec![vec![3]],
            vec![vec![1, 2], vec![2, 1]],
            vec![vec![10, 4, 7], vec![5, 8, 3], vec![9, 6, 11]],
            vec![vec![0, 0, 0, 0], vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 3, 0, 2]],
            footrule_shaped(6, 3),
            footrule_shaped(7, 5),
        ];
        for cost in matrices {
            assert_eq!(solve(&cost).unwrap(), brute_force(&cost), "matrix {cost:?}");
        }
    }

    #[test]
    fn handles_negative_costs() {
        let cost = vec![vec![-5, 2], vec![3, -4]];
        let sol = solve(&cost).unwrap();
        assert_eq!(sol.total_cost, -9);
        assert_eq!(sol.assignment, vec![0, 1]);
        let cost = vec![vec![-3, -9, 0], vec![-9, -3, 0], vec![0, 0, -1]];
        assert_eq!(solve(&cost).unwrap(), brute_force(&cost));
    }

    #[test]
    fn handles_large_uniform_matrix() {
        let n = 64;
        SETTLED.with(|c| c.set(0));
        let sol = solve(&vec![vec![7i64; n]; n]).unwrap();
        assert_eq!(sol.total_cost, 7 * n as i64);
        assert_eq!(sol.assignment, (0..n).collect::<Vec<_>>());
        // Every column is tight and the first free one is as close as
        // any matched one, so each row is inserted in one step.
        assert_eq!(SETTLED.with(|c| c.get()), n);
    }
}
