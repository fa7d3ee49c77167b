//! Hungarian (Kuhn–Munkres) algorithm for the square assignment problem.
//!
//! `O(n³)` shortest-augmenting-path formulation (Jonker–Volgenant style
//! with dual potentials). Used in SOR only as the test oracle for the
//! min-cost-flow aggregation described in §IV-B of the paper: both must
//! produce a minimum-cost perfect matching between target places and
//! rank positions.

use crate::FlowError;

/// Solves the square assignment problem for `cost[i][j]`.
///
/// Returns `(assignment, total_cost)` where `assignment[i] = j` means row
/// `i` is matched to column `j`.
///
/// # Errors
///
/// [`FlowError::MalformedMatrix`] if the matrix is empty or ragged /
/// non-square.
///
/// # Example
///
/// ```
/// let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
/// let (assign, total) = sor_flow::hungarian::solve(&cost).unwrap();
/// assert_eq!(total, 5);
/// assert_eq!(assign.len(), 3);
/// ```
pub fn solve(cost: &[Vec<i64>]) -> Result<(Vec<usize>, i64), FlowError> {
    let n = cost.len();
    if n == 0 {
        return Err(FlowError::MalformedMatrix { rows: 0, cols: 0 });
    }
    for row in cost {
        if row.len() != n {
            return Err(FlowError::MalformedMatrix { rows: n, cols: row.len() });
        }
    }

    // 1-indexed arrays, the classic formulation: u/v are duals,
    // p[j] = row matched to column j (p[0] is the working row).
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];

    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![i64::MAX; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = i64::MAX;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        // Augment along the alternating path.
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut assignment = vec![0usize; n];
    let mut total = 0i64;
    for j in 1..=n {
        if p[j] > 0 {
            assignment[p[j] - 1] = j - 1;
            total += cost[p[j] - 1][j - 1];
        }
    }
    Ok((assignment, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(cost: &[Vec<i64>]) -> i64 {
        fn permute(cost: &[Vec<i64>], cols: &mut Vec<usize>, row: usize, best: &mut i64, acc: i64) {
            let n = cost.len();
            if acc >= *best {
                return;
            }
            if row == n {
                *best = acc;
                return;
            }
            for k in row..n {
                cols.swap(row, k);
                permute(cost, cols, row + 1, best, acc + cost[row][cols[row]]);
                cols.swap(row, k);
            }
        }
        let mut cols: Vec<usize> = (0..cost.len()).collect();
        let mut best = i64::MAX;
        permute(cost, &mut cols, 0, &mut best, 0);
        best
    }

    #[test]
    fn solves_identity_like_matrix() {
        let cost = vec![vec![0, 9, 9], vec![9, 0, 9], vec![9, 9, 0]];
        let (assign, total) = solve(&cost).unwrap();
        assert_eq!(total, 0);
        assert_eq!(assign, vec![0, 1, 2]);
    }

    #[test]
    fn solves_known_3x3() {
        let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        let (_, total) = solve(&cost).unwrap();
        assert_eq!(total, 5);
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
    fn assignment_is_a_permutation() {
        let cost = vec![vec![7, 2, 1, 9], vec![4, 3, 6, 0], vec![5, 8, 2, 2], vec![1, 1, 4, 3]];
        let (assign, _) = solve(&cost).unwrap();
        let mut seen = [false; 4];
        for &j in &assign {
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
        ];
        for cost in matrices {
            let (_, total) = solve(&cost).unwrap();
            assert_eq!(total, brute_force(&cost), "matrix {cost:?}");
        }
    }

    #[test]
    fn handles_negative_costs() {
        let cost = vec![vec![-5, 2], vec![3, -4]];
        let (assign, total) = solve(&cost).unwrap();
        assert_eq!(total, -9);
        assert_eq!(assign, vec![0, 1]);
    }

    #[test]
    fn handles_large_uniform_matrix() {
        let n = 50;
        let cost = vec![vec![7i64; n]; n];
        let (assign, total) = solve(&cost).unwrap();
        assert_eq!(total, 7 * n as i64);
        let mut seen = vec![false; n];
        for &j in &assign {
            assert!(!seen[j]);
            seen[j] = true;
        }
    }
}
