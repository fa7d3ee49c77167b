//! Lazy-evaluation greedy (full CELF): same output as Algorithm 1, far
//! fewer marginal-gain evaluations.
//!
//! Submodularity guarantees marginal gains only shrink as the solution
//! grows, so a stale upper bound popped from a max-heap can be
//! re-evaluated and re-inserted; when a popped bound is already exact it
//! must be the true maximiser (Minoux's lazy greedy, the CELF
//! acceleration). The one heap is carried across *all* selection rounds
//! — an entry computed in round `r` serves as an upper bound in every
//! later round until it surfaces again. Feasibility of an instant (≥1
//! present user with budget) also only shrinks, so infeasible pops are
//! discarded permanently.
//!
//! The loop and its tie-breaking rules live in [`crate::schedule::celf`];
//! the online scheduler's incremental planner runs the same loop, so
//! both stay bit-identical to plain greedy.

use std::collections::BinaryHeap;

use crate::schedule::celf::{self, Entry};
use crate::schedule::greedy::GreedyStats;
use crate::schedule::{Schedule, ScheduleProblem};
use crate::time::InstantId;

/// Minimum feasible-instant count before the first-round gain sweep
/// fans out to the worker pool.
const PAR_FIRST_ROUND_CUTOFF: usize = 64;

/// Runs lazy greedy on `problem`. Produces a schedule identical to
/// [`crate::schedule::greedy`] (same tie-breaking) in far less time on
/// large instances.
pub fn lazy_greedy(problem: &ScheduleProblem) -> Schedule {
    lazy_greedy_stats(problem).0
}

/// [`lazy_greedy`], additionally reporting the work performed. The
/// whole point of laziness is fewer `gain_evaluations` than plain
/// greedy for the same schedule; the stats make that claim testable
/// (`heap_pops` and `bound_reinserts` expose the CELF internals).
pub fn lazy_greedy_stats(problem: &ScheduleProblem) -> (Schedule, GreedyStats) {
    let mut stats = GreedyStats::default();
    let n = problem.grid().len();
    let (mut remaining, users_at) = problem.budgets_and_presence();
    let mut state = problem.coverage_state();

    // First round: every feasible instant needs a gain bound, and the
    // empty-solution gains are independent reads of `state`, so they
    // can be evaluated on the worker pool. `par_map_min` preserves
    // instant order, so the heap is built from the identical entry
    // sequence — and therefore pops identically — at any `SOR_THREADS`.
    let feasible: Vec<usize> = (0..n).filter(|&i| !users_at[i].is_empty()).collect();
    let gains: Vec<f64> = sor_par::par_map_min(&feasible, PAR_FIRST_ROUND_CUTOFF, |&i| {
        state.marginal_gain(InstantId(i))
    });
    stats.gain_evaluations += feasible.len() as u64;
    let heap: BinaryHeap<Entry> = feasible
        .iter()
        .zip(&gains)
        .map(|(&instant, &gain)| Entry { gain, instant, round: 0 })
        .collect();

    let actions = celf::run(heap, &mut state, &users_at, &mut remaining, &mut stats, |_, _| {});
    (Schedule::from_actions(actions), stats)
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
    fn matches_plain_greedy_small() {
        let p = problem(12, &[(0.0, 120.0, 3), (30.0, 90.0, 2)]);
        assert_eq!(lazy_greedy(&p), greedy(&p));
    }

    #[test]
    fn matches_plain_greedy_medium() {
        let p =
            problem(60, &[(0.0, 600.0, 5), (100.0, 400.0, 4), (250.0, 600.0, 6), (0.0, 150.0, 2)]);
        let lazy = lazy_greedy(&p);
        let plain = greedy(&p);
        // The objective values must agree exactly; the schedules should too
        // given identical tie-breaking.
        assert!((p.evaluate(&lazy) - p.evaluate(&plain)).abs() < 1e-9);
        assert_eq!(lazy, plain);
    }

    #[test]
    fn matches_plain_greedy_under_decay() {
        for decay in [DecayCurve::linear(0.0008), DecayCurve::exponential(0.003)] {
            let p = problem(50, &[(0.0, 500.0, 4), (80.0, 350.0, 3), (200.0, 500.0, 5)])
                .with_decay(decay);
            assert_eq!(lazy_greedy(&p), greedy(&p), "decay {decay:?}");
        }
    }

    #[test]
    fn respects_feasibility() {
        let p = problem(20, &[(0.0, 60.0, 3), (100.0, 200.0, 15)]);
        let s = lazy_greedy(&p);
        assert!(p.is_feasible(&s));
    }

    #[test]
    fn empty_problem_is_empty_schedule() {
        let p = problem(10, &[]);
        assert!(lazy_greedy(&p).is_empty());
    }

    #[test]
    fn heavily_overlapping_users_match_plain() {
        let users: Vec<(f64, f64, usize)> = (0..6).map(|k| (k as f64 * 20.0, 400.0, 3)).collect();
        let p = problem(40, &users);
        assert_eq!(lazy_greedy(&p), greedy(&p));
    }

    #[test]
    fn identical_schedule_at_any_thread_count() {
        // Large enough to cross PAR_FIRST_ROUND_CUTOFF so the parallel
        // first-round sweep actually runs.
        let users: Vec<(f64, f64, usize)> = (0..8).map(|k| (k as f64 * 50.0, 2000.0, 5)).collect();
        let p = problem(200, &users);
        let run = |threads| {
            sor_par::with_threads(threads, || {
                let schedule = lazy_greedy(&p);
                assert_eq!(sor_par::current_threads(), threads);
                schedule
            })
        };
        let seq = run(1);
        assert_eq!(seq, run(8), "lazy greedy must be bit-for-bit thread-count independent");
        assert_eq!(seq, greedy(&p));
    }

    #[test]
    fn lazy_evaluates_fewer_gains_than_plain() {
        let users: Vec<(f64, f64, usize)> = (0..6).map(|k| (k as f64 * 20.0, 600.0, 4)).collect();
        let p = problem(60, &users);
        let (lazy_s, lazy_stats) = lazy_greedy_stats(&p);
        let (plain_s, plain_stats) = greedy::greedy_seeded_stats(&p, &[]);
        assert_eq!(lazy_s, plain_s);
        assert_eq!(lazy_stats.iterations, plain_stats.iterations);
        assert!(
            lazy_stats.gain_evaluations < plain_stats.gain_evaluations,
            "lazy {} vs plain {}",
            lazy_stats.gain_evaluations,
            plain_stats.gain_evaluations
        );
    }

    #[test]
    fn heap_counters_account_for_all_work() {
        let users: Vec<(f64, f64, usize)> = (0..5).map(|k| (k as f64 * 30.0, 500.0, 3)).collect();
        let p = problem(50, &users);
        let (s, stats) = lazy_greedy_stats(&p);
        assert!(stats.heap_pops > 0);
        // Every pop either commits, discards (infeasible), or reinserts.
        assert!(stats.heap_pops >= stats.iterations + stats.bound_reinserts);
        // Evaluations = first-round sweep + one per reinsert.
        assert_eq!(stats.gain_evaluations, 50 + stats.bound_reinserts);
        assert_eq!(s.len() as u64, stats.iterations);
        // The batch solver is not an online replan.
        assert_eq!(stats.replans, 0);
    }
}
