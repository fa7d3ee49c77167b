//! Step 2 of Algorithm 2: per-feature individual rankings.
//!
//! "For all target places belonging to a category … the algorithm
//! produces a ranking `R_j` (i.e. a sorted list) on each feature `j` by
//! sorting all the target places in the ascending order of the
//! corresponding feature values on the column by column basis."

use crate::ranking::distance::Ranking;

/// Produces one ranking per feature column of the distance matrix `Γ`
/// (N places × M features), ascending (smaller distance = better rank).
/// Ties break toward the lower place index, keeping results
/// deterministic.
///
/// # Panics
///
/// Panics if `gamma` is ragged.
pub fn individual_rankings(gamma: &[Vec<f64>]) -> Vec<Ranking> {
    let n = gamma.len();
    let m = gamma.first().map_or(0, |r| r.len());
    assert!(gamma.iter().all(|r| r.len() == m), "distance matrix must be rectangular");
    // Each column is sorted independently with a total, deterministic
    // comparator, so columns can go to the worker pool; `par_map_min`
    // preserves column order and the result is identical at any
    // `SOR_THREADS`. Small matrices stay sequential.
    let min_cols = if n.saturating_mul(m) >= PAR_RANKING_WORK_CUTOFF { 2 } else { usize::MAX };
    let feature_ids: Vec<usize> = (0..m).collect();
    sor_par::par_map_min(&feature_ids, min_cols, |&j| {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| gamma[a][j].total_cmp(&gamma[b][j]).then_with(|| a.cmp(&b)));
        Ranking::from_order(order).expect("sorted indexes form a permutation")
    })
}

/// Minimum `places × features` cell count before per-column sorting
/// fans out to the worker pool.
const PAR_RANKING_WORK_CUTOFF: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::feature::PlaceId;

    #[test]
    fn ranks_each_column_ascending() {
        let gamma = vec![vec![3.0, 0.0], vec![1.0, 2.0], vec![2.0, 1.0]];
        let rankings = individual_rankings(&gamma);
        assert_eq!(rankings.len(), 2);
        assert_eq!(rankings[0].order(), &[1, 2, 0]);
        assert_eq!(rankings[1].order(), &[0, 2, 1]);
    }

    #[test]
    fn ties_break_by_place_index() {
        let gamma = vec![vec![1.0], vec![1.0], vec![0.5]];
        let rankings = individual_rankings(&gamma);
        assert_eq!(rankings[0].order(), &[2, 0, 1]);
    }

    #[test]
    fn empty_matrix_yields_no_rankings() {
        let rankings = individual_rankings(&[]);
        assert!(rankings.is_empty());
    }

    #[test]
    fn single_place_single_feature() {
        let rankings = individual_rankings(&[vec![7.0]]);
        assert_eq!(rankings.len(), 1);
        assert_eq!(rankings[0].place_at(0), PlaceId(0));
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_matrix_panics() {
        individual_rankings(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn identical_rankings_at_any_thread_count() {
        // 128 places × 64 features crosses PAR_RANKING_WORK_CUTOFF.
        let gamma: Vec<Vec<f64>> = (0..128)
            .map(|i| (0..64).map(|j| (((i * 31 + j * 17) % 97) as f64) * 0.5).collect())
            .collect();
        let run = |threads| {
            sor_par::with_threads(threads, || {
                let rankings = individual_rankings(&gamma);
                assert_eq!(sor_par::current_threads(), threads);
                rankings
            })
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn rankings_are_permutations() {
        let gamma = vec![
            vec![0.3, 0.9, 0.1],
            vec![0.5, 0.5, 0.5],
            vec![0.1, 0.2, 0.9],
            vec![0.8, 0.1, 0.2],
        ];
        for r in individual_rankings(&gamma) {
            let mut sorted = r.order().to_vec();
            sorted.sort();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }
}
