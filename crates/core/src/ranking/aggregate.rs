//! Step 3 of Algorithm 2: rank aggregation.
//!
//! The target metric is the **weighted K-ranking distance**
//! `κ_K(R, Ω) = Σ_j w_j · d_K(R, R_j)` (eq. 7); minimising it is NP-hard
//! (Dwork et al., the paper's ref. [7]), so SOR minimises the **weighted
//! f-ranking distance** `κ_f` (eq. 11) instead, which is within a factor
//! 2 by the Diaconis–Graham inequality (eq. 10). The footrule-optimal
//! ranking is found exactly as a min-cost perfect matching between
//! places and rank positions on the auxiliary flow graph of §IV-B
//! ([`sor_flow::assignment::solve`]). Among equal-cost optima it is the
//! lexicographically smallest order: the lower place index gets the
//! better position, so the ranking depends on the input alone.

use sor_flow::assignment;

use crate::ranking::distance::{footrule_distance, kemeny_distance, Ranking};
use crate::CoreError;

/// Fixed-point scale for converting weighted float costs to the integer
/// costs required by the exact matching solvers. Weights in SOR are
/// user-interface integers (0–5), so this is exact for paper-style
/// profiles and a 2⁻²⁰-resolution approximation otherwise.
const COST_SCALE: f64 = (1u64 << 20) as f64;

/// How to aggregate individual rankings into the final ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationMethod {
    /// The paper's method: weighted-footrule-optimal via min-cost flow;
    /// ties between optima go to the lexicographically smallest order.
    #[default]
    FootruleFlow,
    /// The paper's method followed by *local Kemenization*: adjacent
    /// transpositions are applied while they reduce the weighted Kemeny
    /// distance. Never worse than `FootruleFlow` under κ_K (so the 2×
    /// bound is preserved) and usually optimal in practice.
    FootruleKemenized,
    /// Exact weighted-Kemeny-optimal ranking by bitmask DP. Exponential:
    /// limited to 16 places.
    KemenyExact,
    /// Weighted Borda count: sort by weighted mean position. Cheap
    /// baseline for the ablation study.
    Borda,
}

/// The weighted f-ranking distance `κ_f(R, Ω)` (eq. 11).
///
/// # Panics
///
/// Panics if `rankings` and `weights` lengths differ or ranking lengths
/// are inconsistent.
pub fn weighted_footrule(r: &Ranking, rankings: &[Ranking], weights: &[f64]) -> f64 {
    assert_eq!(rankings.len(), weights.len(), "one weight per ranking");
    rankings.iter().zip(weights).map(|(rj, &w)| w * footrule_distance(r, rj) as f64).sum()
}

/// The weighted K-ranking distance `κ_K(R, Ω)` (eq. 7).
///
/// # Panics
///
/// Panics if `rankings` and `weights` lengths differ or ranking lengths
/// are inconsistent.
pub fn weighted_kemeny(r: &Ranking, rankings: &[Ranking], weights: &[f64]) -> f64 {
    assert_eq!(rankings.len(), weights.len(), "one weight per ranking");
    rankings.iter().zip(weights).map(|(rj, &w)| w * kemeny_distance(r, rj) as f64).sum()
}

/// Aggregates individual rankings under user weights with the chosen
/// method.
///
/// # Errors
///
/// - [`CoreError::DimensionMismatch`] if `rankings`/`weights` lengths
///   differ, `rankings` is empty, or ranking lengths are inconsistent.
/// - [`CoreError::TooManyPlaces`] for `KemenyExact` beyond 16 places.
/// - [`CoreError::Flow`] if the matching solver fails (indicates a bug,
///   the instance is always feasible).
pub fn aggregate(
    rankings: &[Ranking],
    weights: &[f64],
    method: AggregationMethod,
) -> Result<Ranking, CoreError> {
    if rankings.len() != weights.len() {
        return Err(CoreError::DimensionMismatch {
            expected: rankings.len(),
            actual: weights.len(),
            what: "weights",
        });
    }
    let Some(first) = rankings.first() else {
        return Err(CoreError::DimensionMismatch { expected: 1, actual: 0, what: "rankings" });
    };
    let n = first.len();
    if rankings.iter().any(|r| r.len() != n) {
        return Err(CoreError::DimensionMismatch {
            expected: n,
            actual: 0,
            what: "equal-length rankings",
        });
    }
    if n == 0 {
        return Ok(Ranking::identity(0));
    }
    match method {
        AggregationMethod::FootruleFlow => footrule_optimal(rankings, weights, n),
        AggregationMethod::FootruleKemenized => {
            let base = footrule_optimal(rankings, weights, n)?;
            Ok(local_kemenize(base, rankings, weights))
        }
        AggregationMethod::KemenyExact => kemeny_exact(rankings, weights, n),
        AggregationMethod::Borda => Ok(borda(rankings, weights, n)),
    }
}

/// Local Kemenization (Dwork et al., the paper's ref. [7]): repeatedly
/// swap adjacent places when the swap strictly reduces the weighted
/// Kemeny distance. Terminates because κ_K strictly decreases and is
/// bounded below; the result is never worse than the input.
#[allow(clippy::needless_range_loop)] // u/v index a matrix both ways
fn local_kemenize(r: Ranking, rankings: &[Ranking], weights: &[f64]) -> Ranking {
    use crate::ranking::feature::PlaceId;
    let n = r.len();
    let mut order = r.order().to_vec();
    // pref[u][v]: total weight of rankings placing u before v.
    let mut pref = vec![vec![0.0f64; n]; n];
    for (rj, &w) in rankings.iter().zip(weights) {
        for u in 0..n {
            for v in 0..n {
                if u != v && rj.position_of(PlaceId(u)) < rj.position_of(PlaceId(v)) {
                    pref[u][v] += w;
                }
            }
        }
    }
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n.saturating_sub(1) {
            let (a, b) = (order[i], order[i + 1]);
            // Swapping a,b flips exactly their pairwise contribution:
            // currently a before b costs pref[b][a]; swapped costs
            // pref[a][b].
            if pref[b][a] > pref[a][b] {
                order.swap(i, i + 1);
                improved = true;
            }
        }
    }
    Ranking::from_order(order).expect("swaps preserve the permutation")
}

/// Exact weighted-footrule aggregation: the §IV-B flow construction,
/// whose canonical optimum is the smallest order among the optimal ones.
fn footrule_optimal(rankings: &[Ranking], weights: &[f64], n: usize) -> Result<Ranking, CoreError> {
    let sol = assignment::solve(&footrule_cost(rankings, weights, n))?;
    // sol.assignment[i] = position of place i; invert to an order.
    let mut order = vec![0usize; n];
    for (place, &pos) in sol.assignment.iter().enumerate() {
        order[pos] = place;
    }
    Ranking::from_order(order)
}

/// The fixed-point assignment costs
/// `cost(place i → position p) = Σ_j w_j · |π(i, R_j) − p|`.
fn footrule_cost(rankings: &[Ranking], weights: &[f64], n: usize) -> Vec<Vec<i64>> {
    use crate::ranking::feature::PlaceId;
    let mut cost = vec![vec![0i64; n]; n];
    for (i, row) in cost.iter_mut().enumerate() {
        for (p, cell) in row.iter_mut().enumerate() {
            let c: f64 = rankings
                .iter()
                .zip(weights)
                .map(|(rj, &w)| w * rj.position_of(PlaceId(i)).abs_diff(p) as f64)
                .sum();
            *cell = (c * COST_SCALE).round() as i64;
        }
    }
    cost
}

/// Exact weighted Kemeny aggregation by bitmask DP over place subsets.
///
/// `dp[S]` = minimum penalty of any ordering of the places in `S`
/// occupying the first `|S|` positions; appending place `v` to `S` costs
/// `Σ_{u ∉ S∪{v}} disagree(v, u)` where `disagree(v,u)` is the total
/// weight of rankings placing `u` before `v` (those pairs become
/// violations since `v` now precedes `u`).
#[allow(clippy::needless_range_loop)] // u/v index a matrix both ways
fn kemeny_exact(rankings: &[Ranking], weights: &[f64], n: usize) -> Result<Ranking, CoreError> {
    use crate::ranking::feature::PlaceId;
    const MAX_N: usize = 16;
    if n > MAX_N {
        return Err(CoreError::TooManyPlaces { places: n, max: MAX_N });
    }
    // disagree[v][u] = weight of rankings with u before v.
    let mut disagree = vec![vec![0.0f64; n]; n];
    for (rj, &w) in rankings.iter().zip(weights) {
        for v in 0..n {
            for u in 0..n {
                if u != v && rj.position_of(PlaceId(u)) < rj.position_of(PlaceId(v)) {
                    disagree[v][u] += w;
                }
            }
        }
    }
    let full = (1usize << n) - 1;
    let mut dp = vec![f64::INFINITY; full + 1];
    let mut parent = vec![usize::MAX; full + 1]; // place appended to reach state
    dp[0] = 0.0;
    for mask in 0..=full {
        if dp[mask].is_infinite() {
            continue;
        }
        for v in 0..n {
            if mask & (1 << v) != 0 {
                continue;
            }
            let next = mask | (1 << v);
            // Cost of placing v before every place not yet placed.
            let mut add = 0.0;
            for u in 0..n {
                if u != v && next & (1 << u) == 0 {
                    add += disagree[v][u];
                }
            }
            if dp[mask] + add < dp[next] {
                dp[next] = dp[mask] + add;
                parent[next] = v;
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let v = parent[mask];
        order.push(v);
        mask &= !(1 << v);
    }
    order.reverse();
    Ranking::from_order(order)
}

/// Weighted Borda: rank by ascending weighted mean position (ties toward
/// the lower place index).
fn borda(rankings: &[Ranking], weights: &[f64], n: usize) -> Ranking {
    use crate::ranking::feature::PlaceId;
    let mut score = vec![0.0f64; n];
    for (rj, &w) in rankings.iter().zip(weights) {
        for (i, s) in score.iter_mut().enumerate() {
            *s += w * rj.position_of(PlaceId(i)) as f64;
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| score[a].total_cmp(&score[b]).then_with(|| a.cmp(&b)));
    Ranking::from_order(order).expect("sorted indexes form a permutation")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rk(order: &[usize]) -> Ranking {
        Ranking::from_order(order.to_vec()).unwrap()
    }

    /// All permutations of 0..n, for brute-force optimality checks.
    fn all_perms(n: usize) -> Vec<Ranking> {
        fn rec(cur: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Ranking>) {
            let n = used.len();
            if cur.len() == n {
                out.push(Ranking::from_order(cur.clone()).unwrap());
                return;
            }
            for v in 0..n {
                if !used[v] {
                    used[v] = true;
                    cur.push(v);
                    rec(cur, used, out);
                    cur.pop();
                    used[v] = false;
                }
            }
        }
        let mut out = Vec::new();
        rec(&mut Vec::new(), &mut vec![false; n], &mut out);
        out
    }

    #[test]
    fn unanimous_rankings_aggregate_to_themselves() {
        let r = rk(&[2, 0, 1]);
        let rankings = vec![r.clone(), r.clone(), r.clone()];
        let weights = vec![1.0, 2.0, 5.0];
        for method in [
            AggregationMethod::FootruleFlow,
            AggregationMethod::KemenyExact,
            AggregationMethod::Borda,
        ] {
            let agg = aggregate(&rankings, &weights, method).unwrap();
            assert_eq!(agg, r, "{method:?}");
        }
    }

    /// The smallest order among the weighted-footrule optima
    /// (`all_perms` lists orders lexicographically).
    fn smallest_footrule_optimum(rankings: &[Ranking], weights: &[f64]) -> Ranking {
        let mut best: Option<(f64, Ranking)> = None;
        for r in all_perms(rankings[0].len()) {
            let c = weighted_footrule(&r, rankings, weights);
            if best.as_ref().is_none_or(|(b, _)| c < *b) {
                best = Some((c, r));
            }
        }
        best.expect("at least one order").1
    }

    #[test]
    fn footrule_flow_is_optimal_by_enumeration() {
        // Integer weights make the fixed-point costs exact, so the
        // enumeration's ties are the solver's.
        let cases = vec![
            (vec![rk(&[0, 1, 2, 3]), rk(&[3, 2, 1, 0]), rk(&[1, 3, 0, 2])], vec![5.0, 1.0, 2.0]),
            (
                vec![rk(&[4, 2, 0, 1, 3]), rk(&[0, 1, 2, 3, 4]), rk(&[1, 0, 3, 2, 4])],
                vec![3.0, 2.0, 4.0],
            ),
            (vec![rk(&[2, 0, 1]), rk(&[1, 2, 0]), rk(&[0, 1, 2])], vec![1.0, 1.0, 1.0]),
            (vec![rk(&[0, 1, 2, 3]), rk(&[3, 2, 1, 0])], vec![2.0, 2.0]),
            (vec![rk(&[3, 1, 0, 2]), rk(&[0, 2, 1, 3])], vec![4.0, 4.0]),
        ];
        for (rankings, weights) in cases {
            let agg = aggregate(&rankings, &weights, AggregationMethod::FootruleFlow).unwrap();
            assert_eq!(agg, smallest_footrule_optimum(&rankings, &weights), "{rankings:?}");
        }
    }

    #[test]
    fn footrule_flow_attains_the_cost_matrix_optimum() {
        let rankings = vec![rk(&[4, 2, 0, 1, 3]), rk(&[0, 1, 2, 3, 4]), rk(&[1, 0, 3, 2, 4])];
        let weights = vec![3.0, 2.0, 4.0];
        let flow = aggregate(&rankings, &weights, AggregationMethod::FootruleFlow).unwrap();
        // The matrix optimum, read back as a footrule; integer weights
        // make the fixed-point cost exact.
        let optimum = assignment::solve(&footrule_cost(&rankings, &weights, 5))
            .expect("square matrix")
            .total_cost;
        let flow_cost = weighted_footrule(&flow, &rankings, &weights);
        assert_eq!(flow_cost, optimum as f64 / COST_SCALE);
    }

    #[test]
    fn kemeny_exact_is_optimal_by_enumeration() {
        let rankings = vec![rk(&[0, 1, 2, 3]), rk(&[2, 0, 3, 1]), rk(&[1, 0, 2, 3])];
        let weights = vec![1.0, 3.0, 2.0];
        let agg = aggregate(&rankings, &weights, AggregationMethod::KemenyExact).unwrap();
        let best = all_perms(4)
            .into_iter()
            .map(|r| weighted_kemeny(&r, &rankings, &weights))
            .fold(f64::INFINITY, f64::min);
        let got = weighted_kemeny(&agg, &rankings, &weights);
        assert!((got - best).abs() < 1e-9, "got {got}, optimal {best}");
    }

    #[test]
    fn footrule_two_approximates_kemeny() {
        // The paper's guarantee: footrule-optimal κ_K ≤ 2 · optimal κ_K.
        let cases = vec![
            (vec![rk(&[0, 1, 2]), rk(&[2, 1, 0]), rk(&[1, 0, 2])], vec![2.0, 1.0, 1.0]),
            (vec![rk(&[3, 1, 0, 2]), rk(&[0, 2, 1, 3])], vec![4.0, 5.0]),
        ];
        for (rankings, weights) in cases {
            let foot = aggregate(&rankings, &weights, AggregationMethod::FootruleFlow).unwrap();
            let kem = aggregate(&rankings, &weights, AggregationMethod::KemenyExact).unwrap();
            let foot_cost = weighted_kemeny(&foot, &rankings, &weights);
            let opt_cost = weighted_kemeny(&kem, &rankings, &weights);
            assert!(
                foot_cost <= 2.0 * opt_cost + 1e-9,
                "footrule κ_K {foot_cost} > 2×optimal {opt_cost}"
            );
        }
    }

    #[test]
    fn kemenization_never_hurts_and_often_reaches_optimum() {
        let cases = vec![
            (vec![rk(&[0, 1, 2, 3]), rk(&[3, 2, 1, 0]), rk(&[1, 3, 0, 2])], vec![5.0, 1.0, 2.0]),
            (vec![rk(&[2, 0, 1]), rk(&[1, 2, 0]), rk(&[0, 1, 2])], vec![1.0, 1.0, 1.0]),
            (vec![rk(&[4, 2, 0, 1, 3]), rk(&[0, 1, 2, 3, 4])], vec![2.0, 3.0]),
        ];
        for (rankings, weights) in cases {
            let plain = aggregate(&rankings, &weights, AggregationMethod::FootruleFlow).unwrap();
            let refined =
                aggregate(&rankings, &weights, AggregationMethod::FootruleKemenized).unwrap();
            let exact = aggregate(&rankings, &weights, AggregationMethod::KemenyExact).unwrap();
            let k_plain = weighted_kemeny(&plain, &rankings, &weights);
            let k_refined = weighted_kemeny(&refined, &rankings, &weights);
            let k_exact = weighted_kemeny(&exact, &rankings, &weights);
            assert!(k_refined <= k_plain + 1e-9, "refinement regressed: {k_refined} > {k_plain}");
            assert!(k_refined >= k_exact - 1e-9);
        }
    }

    #[test]
    fn kemenization_fixes_a_suboptimal_adjacent_pair() {
        // Two rankings agree that 1 should precede 0; a third (lightly
        // weighted) disagrees. If footrule happens to output [0,1,...],
        // kemenization must flip it. Construct directly via the helper's
        // behaviour: majority preference wins on adjacent pairs.
        let rankings = vec![rk(&[1, 0, 2]), rk(&[1, 0, 2]), rk(&[0, 1, 2])];
        let weights = vec![1.0, 1.0, 1.0];
        let refined = aggregate(&rankings, &weights, AggregationMethod::FootruleKemenized).unwrap();
        // 1 must precede 0 in the refined output (2:1 majority).
        assert!(
            refined.position_of(crate::ranking::feature::PlaceId(1))
                < refined.position_of(crate::ranking::feature::PlaceId(0)),
            "{refined}"
        );
    }

    #[test]
    fn methods_produce_valid_permutations() {
        let rankings = vec![rk(&[2, 0, 1, 3]), rk(&[3, 1, 0, 2]), rk(&[0, 1, 2, 3])];
        let weights = vec![3.0, 2.5, 5.0];
        for method in [
            AggregationMethod::FootruleFlow,
            AggregationMethod::FootruleKemenized,
            AggregationMethod::KemenyExact,
            AggregationMethod::Borda,
        ] {
            let mut order = aggregate(&rankings, &weights, method).unwrap().order().to_vec();
            order.sort();
            assert_eq!(order, vec![0, 1, 2, 3], "{method:?}");
        }
    }

    #[test]
    fn zero_weight_rankings_are_ignored() {
        let dominant = rk(&[2, 1, 0]);
        let noise = rk(&[0, 1, 2]);
        let agg =
            aggregate(&[dominant.clone(), noise], &[5.0, 0.0], AggregationMethod::FootruleFlow)
                .unwrap();
        assert_eq!(agg, dominant);
    }

    #[test]
    fn heavier_weight_dominates() {
        let a = rk(&[0, 1, 2]);
        let b = rk(&[2, 1, 0]);
        let agg = aggregate(&[a.clone(), b], &[5.0, 1.0], AggregationMethod::FootruleFlow).unwrap();
        assert_eq!(agg, a);
    }

    #[test]
    fn dimension_errors() {
        let r = rk(&[0, 1]);
        assert!(matches!(
            aggregate(std::slice::from_ref(&r), &[1.0, 2.0], AggregationMethod::Borda),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            aggregate(&[], &[], AggregationMethod::Borda),
            Err(CoreError::DimensionMismatch { .. })
        ));
        let r3 = rk(&[0, 1, 2]);
        assert!(matches!(
            aggregate(&[r, r3], &[1.0, 1.0], AggregationMethod::Borda),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn kemeny_exact_rejects_large_instances() {
        let big = Ranking::identity(17);
        assert!(matches!(
            aggregate(&[big], &[1.0], AggregationMethod::KemenyExact),
            Err(CoreError::TooManyPlaces { places: 17, max: 16 })
        ));
    }

    #[test]
    fn borda_simple_majority() {
        let rankings = vec![rk(&[0, 1, 2]), rk(&[0, 2, 1]), rk(&[1, 0, 2])];
        let agg = aggregate(&rankings, &[1.0, 1.0, 1.0], AggregationMethod::Borda).unwrap();
        assert_eq!(agg.place_at(0).0, 0);
    }

    #[test]
    fn single_place_aggregation() {
        let r = rk(&[0]);
        for method in [
            AggregationMethod::FootruleFlow,
            AggregationMethod::KemenyExact,
            AggregationMethod::Borda,
        ] {
            assert_eq!(aggregate(std::slice::from_ref(&r), &[3.0], method).unwrap(), r);
        }
    }
}
