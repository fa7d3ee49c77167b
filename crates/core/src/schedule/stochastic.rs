//! Stochastic (sampled) greedy: "lazier than lazy greedy".
//!
//! Instead of scanning every candidate instant per round, each round
//! evaluates a uniform random sample of `s = ⌈(N/k)·ln(1/ε)⌉`
//! candidates and commits the best of the sample (Mirzasoleiman et al.,
//! AAAI 2015). For a monotone submodular objective under a cardinality
//! budget this achieves `(1 − 1/e − ε)` of the optimum in expectation
//! with only `O(N·ln(1/ε))` total evaluations — the right trade for
//! metro-sized instances where even CELF's first-round sweep is too
//! expensive.
//!
//! Randomness comes from a self-contained splitmix64 stream seeded by
//! the caller, so a (problem, seed) pair always produces the same
//! schedule — the determinism contract every other solver in this crate
//! honours.

use crate::matroid::SenseAction;
use crate::schedule::celf::attribute_user;
use crate::schedule::greedy::GreedyStats;
use crate::schedule::{Schedule, ScheduleProblem};
use crate::time::InstantId;

/// Deterministic 64-bit PRNG (splitmix64). Good enough for sampling
/// candidate subsets; crucially, dependency-free and stable forever.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..bound` (modulo bias is irrelevant here).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Runs stochastic greedy with sampling slack `epsilon` and PRNG seed
/// `rng_seed`. Smaller `epsilon` means larger samples (more work,
/// tighter guarantee); `epsilon = 0.1` is a good default.
pub fn stochastic_greedy(problem: &ScheduleProblem, epsilon: f64, rng_seed: u64) -> Schedule {
    stochastic_greedy_seeded_stats(problem, &[], epsilon, rng_seed).0
}

/// [`stochastic_greedy`] starting from pre-existing coverage (see
/// [`crate::schedule::greedy_seeded`]), additionally reporting the work
/// performed.
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1)`.
pub fn stochastic_greedy_seeded_stats(
    problem: &ScheduleProblem,
    seed: &[InstantId],
    epsilon: f64,
    rng_seed: u64,
) -> (Schedule, GreedyStats) {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
    let mut stats = GreedyStats::default();
    let n = problem.grid().len();
    let (mut remaining, users_at) = problem.budgets_and_presence();
    let mut taken = vec![false; n];
    let mut state = problem.coverage_state();
    for &s in seed {
        taken[s.0] = true;
        state.add(s);
    }
    let mut schedule = Schedule::new();
    let mut rng = SplitMix64(rng_seed);

    // Sample size per round: s = ⌈(N/k)·ln(1/ε)⌉ with k the total
    // selection budget. Fixed for the whole run, as in the paper.
    let ground = (0..n).filter(|&i| !taken[i] && !users_at[i].is_empty()).count();
    let k: usize = remaining.iter().sum::<usize>().max(1);
    let sample_size = (((ground as f64 / k as f64) * (1.0 / epsilon).ln()).ceil() as usize).max(1);

    // Candidates are kept compact: each round drops taken and
    // infeasible instants (budgets never regrow, so drops are final).
    let mut candidates: Vec<usize> =
        (0..n).filter(|&i| !taken[i] && users_at[i].iter().any(|u| remaining[u.0] > 0)).collect();

    while !candidates.is_empty() {
        let s = sample_size.min(candidates.len());
        // Partial Fisher–Yates: the first `s` slots become the sample.
        for t in 0..s {
            let j = t + rng.below(candidates.len() - t);
            candidates.swap(t, j);
        }
        let mut best: Option<(f64, usize)> = None;
        for &i in &candidates[..s] {
            let gain = state.marginal_gain(InstantId(i));
            stats.gain_evaluations += 1;
            let better = match best {
                None => true,
                // Tie-break toward the earlier instant, same rule as
                // every other solver in this crate.
                Some((bg, bi)) => gain > bg || (gain == bg && i < bi),
            };
            if better {
                best = Some((gain, i));
            }
        }
        let (_, i) = best.expect("sample is non-empty");
        stats.iterations += 1;
        let user = attribute_user(&users_at[i], &remaining);
        remaining[user.0] -= 1;
        taken[i] = true;
        state.add(InstantId(i));
        schedule.push(SenseAction { user, instant: i });

        candidates.retain(|&c| !taken[c] && users_at[c].iter().any(|u| remaining[u.0] > 0));
    }
    (schedule, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::GaussianCoverage;
    use crate::schedule::{greedy, DecayCurve, Participant, UserId};
    use crate::time::TimeGrid;

    fn problem(n: usize, users: &[(f64, f64, usize)]) -> ScheduleProblem {
        let grid = TimeGrid::new(0.0, 10.0 * n as f64, n).unwrap();
        let participants = users
            .iter()
            .enumerate()
            .map(|(k, &(a, d, b))| Participant::new(UserId(k), a, d, b))
            .collect();
        ScheduleProblem::new(grid, GaussianCoverage::new(10.0), participants)
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = problem(80, &[(0.0, 800.0, 6), (100.0, 500.0, 4), (300.0, 800.0, 5)]);
        let a = stochastic_greedy(&p, 0.1, 42);
        let b = stochastic_greedy(&p, 0.1, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn respects_feasibility_and_budgets() {
        let p = problem(60, &[(0.0, 300.0, 4), (200.0, 600.0, 3)]);
        for seed in 0..10 {
            let s = stochastic_greedy(&p, 0.2, seed);
            assert!(p.is_feasible(&s), "seed {seed}");
        }
    }

    #[test]
    fn approximation_bound_holds_on_fixed_seeds() {
        // Guarantee under test: E[f] ≥ (1 − 1/e − ε)·OPT. Greedy is a
        // lower bound proxy for OPT, so clearing the threshold against
        // greedy clears it against OPT too. Checked per-seed, not just
        // in expectation, on a fixed corpus of 20 seeds.
        let epsilon = 0.1;
        let threshold = 1.0 - (-1.0f64).exp() - epsilon;
        let p = problem(100, &[(0.0, 1000.0, 8), (200.0, 700.0, 5), (500.0, 1000.0, 6)]);
        let exact = p.evaluate(&greedy(&p));
        for seed in 0..20 {
            let v = p.evaluate(&stochastic_greedy(&p, epsilon, seed));
            assert!(
                v >= threshold * exact,
                "seed {seed}: stochastic {v:.4} < {threshold:.3} × exact {exact:.4}"
            );
        }
    }

    #[test]
    fn approximation_bound_holds_under_decay() {
        let epsilon = 0.1;
        let threshold = 1.0 - (-1.0f64).exp() - epsilon;
        let p = problem(80, &[(0.0, 800.0, 6), (150.0, 600.0, 4)])
            .with_decay(DecayCurve::exponential(0.002));
        let exact = p.evaluate(&greedy(&p));
        for seed in 0..20 {
            let v = p.evaluate(&stochastic_greedy(&p, epsilon, seed));
            assert!(v >= threshold * exact, "seed {seed}: {v:.4} < {:.4}", threshold * exact);
        }
    }

    #[test]
    fn evaluates_fewer_gains_than_plain_on_large_instances() {
        let users: Vec<(f64, f64, usize)> = (0..4).map(|k| (k as f64 * 100.0, 2000.0, 4)).collect();
        let p = problem(200, &users);
        let (_, plain) = greedy::greedy_seeded_stats(&p, &[]);
        let (_, stoch) = stochastic_greedy_seeded_stats(&p, &[], 0.1, 7);
        assert!(
            stoch.gain_evaluations < plain.gain_evaluations / 2,
            "stochastic {} vs plain {}",
            stoch.gain_evaluations,
            plain.gain_evaluations
        );
    }

    #[test]
    fn honours_seed_instants() {
        let p = problem(30, &[(0.0, 300.0, 3)]);
        let seed: Vec<InstantId> = vec![InstantId(4), InstantId(11)];
        let (s, _) = stochastic_greedy_seeded_stats(&p, &seed, 0.2, 3);
        for a in s.iter() {
            assert!(!seed.contains(&InstantId(a.instant)), "re-selected seed instant");
        }
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn full_budget_used_when_instants_abound() {
        let p = problem(40, &[(0.0, 400.0, 5)]);
        let s = stochastic_greedy(&p, 0.3, 9);
        assert_eq!(s.len(), 5);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let p = problem(10, &[(0.0, 100.0, 2)]);
        stochastic_greedy(&p, 1.5, 0);
    }
}
