//! Algorithm 1 of the paper: plain greedy coverage maximisation.
//!
//! "Keep adding into the solution the time instant that can result in
//! the maximum incremental coverage until no mobile users can be
//! scheduled to sense more without violating their budget constraints."
//!
//! Because the objective is monotone submodular and the constraint is a
//! matroid, this greedy is a 1/2-approximation (Gargano & Hammar, the
//! paper's ref. [10]). Feasibility testing is `O(1)` via per-user
//! counters, exactly as the paper describes, giving `O(N²)` overall
//! (the kernel window shrinks the constant dramatically in practice).

use crate::matroid::SenseAction;
use crate::schedule::celf::attribute_user;
use crate::schedule::{Schedule, ScheduleProblem};
use crate::time::InstantId;

/// Work counters for one greedy run, reported so callers can expose
/// scheduler cost as metrics without this crate depending on any
/// observability machinery. In a discrete-event simulation wall time is
/// meaningless; these counts are the deterministic cost measure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyStats {
    /// Selection rounds (actions committed to the schedule).
    pub iterations: u64,
    /// Marginal-gain evaluations performed.
    pub gain_evaluations: u64,
    /// CELF heap pops (lazy and incremental solvers; 0 for plain greedy).
    pub heap_pops: u64,
    /// Stale bounds refreshed and pushed back into the CELF heap.
    pub bound_reinserts: u64,
    /// Reschedules triggered by churn events (online scheduler only).
    pub replans: u64,
}

impl GreedyStats {
    /// Adds another run's counts into this one (used by the online
    /// scheduler to accumulate cost across reschedules).
    pub fn absorb(&mut self, other: GreedyStats) {
        self.iterations += other.iterations;
        self.gain_evaluations += other.gain_evaluations;
        self.heap_pops += other.heap_pops;
        self.bound_reinserts += other.bound_reinserts;
        self.replans += other.replans;
    }
}

/// Runs plain greedy (Algorithm 1) on `problem` and returns the schedule.
///
/// Determinism: ties in marginal gain break toward the earlier instant;
/// the user attribution for a chosen instant goes to the present user
/// with the most remaining budget (then the smallest id), which keeps
/// load spread without affecting the achieved coverage.
pub fn greedy(problem: &ScheduleProblem) -> Schedule {
    greedy_seeded(problem, &[])
}

/// Plain greedy starting from pre-existing coverage: the instants in
/// `seed` are treated as already measured (they consume no budget and
/// are not re-selectable). The online scheduler's reference plan uses
/// it to plan the future around an executed prefix.
pub fn greedy_seeded(problem: &ScheduleProblem, seed: &[InstantId]) -> Schedule {
    greedy_seeded_stats(problem, seed).0
}

/// [`greedy_seeded`], additionally reporting the work performed.
pub fn greedy_seeded_stats(
    problem: &ScheduleProblem,
    seed: &[InstantId],
) -> (Schedule, GreedyStats) {
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

    loop {
        // Find the feasible instant with maximum marginal gain (Step 2).
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            if taken[i] {
                continue;
            }
            if !users_at[i].iter().any(|u| remaining[u.0] > 0) {
                continue; // no present user has budget left
            }
            let gain = state.marginal_gain(InstantId(i));
            stats.gain_evaluations += 1;
            let better = match best {
                None => true,
                Some((bg, _)) => gain > bg,
            };
            if better {
                best = Some((gain, i));
            }
        }
        let Some((_, i)) = best else { break };
        stats.iterations += 1;

        // Attribute the instant to the feasible user with the most
        // remaining budget (ties: smallest id).
        let user = attribute_user(&users_at[i], &remaining);
        remaining[user.0] -= 1;
        taken[i] = true;
        state.add(InstantId(i));
        schedule.push(SenseAction { user, instant: i });
    }
    (schedule, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::{GaussianCoverage, TriangularCoverage};
    use crate::schedule::{Participant, UserId};
    use crate::time::TimeGrid;

    fn simple_problem(budgets: &[(f64, f64, usize)]) -> ScheduleProblem {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        let participants = budgets
            .iter()
            .enumerate()
            .map(|(k, &(a, d, b))| Participant::new(UserId(k), a, d, b))
            .collect();
        ScheduleProblem::new(grid, GaussianCoverage::new(10.0), participants)
    }

    #[test]
    fn respects_budgets_and_stays() {
        let p = simple_problem(&[(0.0, 100.0, 3), (30.0, 70.0, 2)]);
        let s = greedy(&p);
        assert!(p.is_feasible(&s));
        assert!(s.load_of(UserId(0)) <= 3);
        assert!(s.load_of(UserId(1)) <= 2);
    }

    #[test]
    fn uses_full_budget_when_instants_abound() {
        let p = simple_problem(&[(0.0, 100.0, 4)]);
        let s = greedy(&p);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn never_double_books_an_instant() {
        let p = simple_problem(&[(0.0, 100.0, 8), (0.0, 100.0, 8)]);
        let s = greedy(&p);
        let mut instants = s.instants();
        instants.sort();
        instants.dedup();
        assert_eq!(instants.len(), s.len(), "duplicate instants in greedy schedule");
    }

    #[test]
    fn spreads_measurements_over_period() {
        // One user, 2 picks, fast-decaying kernel: the greedy should pick
        // well-separated instants, not adjacent ones.
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        let p = ScheduleProblem::new(
            grid,
            TriangularCoverage::new(30.0),
            vec![Participant::new(UserId(0), 0.0, 100.0, 2)],
        );
        let s = greedy(&p);
        let picks = s.for_user(UserId(0));
        assert_eq!(picks.len(), 2);
        let gap = picks[1].0 as i64 - picks[0].0 as i64;
        assert!(gap.abs() >= 4, "picks too close: {picks:?}");
    }

    #[test]
    fn no_participants_yields_empty_schedule() {
        let p = simple_problem(&[]);
        assert!(greedy(&p).is_empty());
    }

    #[test]
    fn zero_budget_user_gets_nothing() {
        let p = simple_problem(&[(0.0, 100.0, 0), (0.0, 100.0, 2)]);
        let s = greedy(&p);
        assert_eq!(s.load_of(UserId(0)), 0);
        assert_eq!(s.load_of(UserId(1)), 2);
    }

    #[test]
    fn budget_capped_by_available_instants() {
        // User present only over instants {2..7} (5 instants) but budget 9:
        // schedule at most 5 (set semantics — one reading per instant).
        let p = simple_problem(&[(25.0, 75.0, 9)]);
        let s = greedy(&p);
        assert_eq!(s.len(), 5);
        assert!(p.is_feasible(&s));
    }

    #[test]
    fn greedy_is_deterministic() {
        let p = simple_problem(&[(0.0, 100.0, 3), (20.0, 90.0, 3)]);
        assert_eq!(greedy(&p), greedy(&p));
    }

    #[test]
    fn seeded_greedy_avoids_seed_instants() {
        let p = simple_problem(&[(0.0, 100.0, 3)]);
        let seed = vec![InstantId(4), InstantId(5)];
        let s = greedy_seeded(&p, &seed);
        assert_eq!(s.len(), 3);
        for a in s.iter() {
            assert!(!seed.contains(&InstantId(a.instant)), "re-selected seed instant");
        }
    }

    #[test]
    fn seeded_greedy_fills_gaps_around_seed() {
        // Seed covers the left half; new picks should land to the right.
        let p = simple_problem(&[(0.0, 100.0, 2)]);
        let seed: Vec<InstantId> = (0..5).map(InstantId).collect();
        let s = greedy_seeded(&p, &seed);
        assert!(s.iter().all(|a| a.instant >= 5), "{s:?}");
    }

    #[test]
    fn stats_count_rounds_and_evaluations() {
        let p = simple_problem(&[(0.0, 100.0, 3), (20.0, 90.0, 2)]);
        let (s, stats) = greedy_seeded_stats(&p, &[]);
        assert_eq!(stats.iterations, s.len() as u64);
        // Each selection round scans every untaken feasible instant, so
        // at least one evaluation per committed action.
        assert!(stats.gain_evaluations >= stats.iterations);
        // Deterministic like the schedule itself.
        assert_eq!(greedy_seeded_stats(&p, &[]).1, stats);

        let mut total = GreedyStats::default();
        total.absorb(stats);
        total.absorb(stats);
        assert_eq!(total.gain_evaluations, 2 * stats.gain_evaluations);
    }

    #[test]
    fn coverage_increases_with_budget() {
        let small = simple_problem(&[(0.0, 100.0, 2)]);
        let large = simple_problem(&[(0.0, 100.0, 6)]);
        let cov_small = small.average_coverage(&greedy(&small));
        let cov_large = large.average_coverage(&greedy(&large));
        assert!(cov_large > cov_small);
    }
}
