//! Property-based tests for the SOR core algorithms.

use std::sync::Arc;

use proptest::prelude::*;
use sor_core::coverage::{coverage_of_instants, CoverageModel, CoverageState, GaussianCoverage};
use sor_core::matroid::{verify_axioms, BudgetMatroid, SenseAction};
use sor_core::ranking::{
    aggregate, footrule_distance, individual_rankings, kemeny_distance, weighted_footrule,
    weighted_kemeny, AggregationMethod, Ranking,
};
use sor_core::schedule::online::OnlineScheduler;
use sor_core::schedule::{
    baseline, brute_force, greedy, lazy_greedy, stochastic_greedy, DecayCurve, Participant,
    ScheduleProblem, UserId,
};
use sor_core::time::{InstantId, TimeGrid};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn permutation(n: usize) -> impl Strategy<Value = Ranking> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher-Yates with proptest's rng for shrinkable determinism.
        for i in (1..n).rev() {
            let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        Ranking::from_order(order).unwrap()
    })
}

fn small_problem() -> impl Strategy<Value = ScheduleProblem> {
    (
        2usize..=8, // instants
        proptest::collection::vec((0.0f64..50.0, 10.0f64..100.0, 0usize..4), 0..4),
        1.0f64..30.0, // sigma
    )
        .prop_map(|(n, users, sigma)| {
            let span = 10.0 * n as f64;
            let participants = users
                .iter()
                .enumerate()
                .map(|(k, &(a, d, b))| {
                    let arrival = a.min(span - 1.0);
                    let departure = (arrival + d).min(span);
                    Participant::new(UserId(k), arrival, departure, b)
                })
                .collect();
            let grid = TimeGrid::new(0.0, span, n).unwrap();
            ScheduleProblem::new(grid, GaussianCoverage::new(sigma), participants)
        })
}

fn decay_curve() -> impl Strategy<Value = DecayCurve> {
    prop_oneof![
        Just(DecayCurve::Constant),
        (0.0f64..0.02).prop_map(DecayCurve::linear),
        (0.0f64..0.02).prop_map(DecayCurve::exponential),
    ]
}

/// A mid-sized problem (large enough for CELF laziness to matter) with a
/// random decay curve applied.
fn decayed_problem() -> impl Strategy<Value = ScheduleProblem> {
    (
        8usize..=40, // instants
        proptest::collection::vec((0.0f64..200.0, 20.0f64..400.0, 0usize..5), 0..5),
        1.0f64..30.0, // sigma
        decay_curve(),
    )
        .prop_map(|(n, users, sigma, decay)| {
            let span = 10.0 * n as f64;
            let participants = users
                .iter()
                .enumerate()
                .map(|(k, &(a, d, b))| {
                    let arrival = a.min(span - 1.0);
                    let departure = (arrival + d).min(span);
                    Participant::new(UserId(k), arrival, departure, b)
                })
                .collect();
            let grid = TimeGrid::new(0.0, span, n).unwrap();
            ScheduleProblem::new(grid, GaussianCoverage::new(sigma), participants).with_decay(decay)
        })
}

/// One churn event for the online-scheduler equivalence property.
#[derive(Debug, Clone)]
enum ChurnOp {
    Arrive { user: usize, dt: f64, stay: f64, budget: usize },
    Depart { user: usize, dt: f64 },
    Advance { dt: f64 },
}

fn churn_trace() -> impl Strategy<Value = Vec<ChurnOp>> {
    let op = prop_oneof![
        (0usize..5, 0.0f64..80.0, 30.0f64..400.0, 1usize..5)
            .prop_map(|(user, dt, stay, budget)| ChurnOp::Arrive { user, dt, stay, budget }),
        (0usize..5, 0.0f64..80.0, 30.0f64..400.0, 1usize..5)
            .prop_map(|(user, dt, stay, budget)| ChurnOp::Arrive { user, dt, stay, budget }),
        (0usize..5, 0.0f64..80.0).prop_map(|(user, dt)| ChurnOp::Depart { user, dt }),
        (0.0f64..120.0).prop_map(|dt| ChurnOp::Advance { dt }),
    ];
    proptest::collection::vec(op, 1..10)
}

/// Applies one churn event to a scheduler on the 600 s test period,
/// moving the shared clock `t`. Returns whether the event replanned.
fn apply_churn(sched: &mut OnlineScheduler, op: &ChurnOp, t: &mut f64) -> bool {
    match *op {
        ChurnOp::Arrive { user, dt, stay, budget } => {
            *t = (*t + dt).min(600.0);
            sched.arrive(UserId(user), *t, (*t + stay).min(600.0), budget);
            true
        }
        ChurnOp::Depart { user, dt } => {
            *t = (*t + dt).min(600.0);
            sched.depart(UserId(user), *t);
            true
        }
        ChurnOp::Advance { dt } => {
            *t = (*t + dt).min(600.0);
            sched.advance_to(*t);
            false
        }
    }
}

// ---------------------------------------------------------------------
// Coverage objective invariants
// ---------------------------------------------------------------------

proptest! {
    /// Monotonicity: adding any measurement never decreases the total.
    #[test]
    fn coverage_is_monotone(picks in proptest::collection::vec(0usize..20, 0..15)) {
        let grid = TimeGrid::new(0.0, 200.0, 20).unwrap();
        let model = GaussianCoverage::new(10.0);
        let mut state = CoverageState::new(&grid, &model);
        let mut prev = 0.0;
        for p in picks {
            state.add(InstantId(p));
            prop_assert!(state.total() >= prev - 1e-12);
            prev = state.total();
        }
        prop_assert!(state.average() <= 1.0 + 1e-9);
    }

    /// Submodularity: the gain of an element never increases as the set
    /// grows along any insertion order.
    #[test]
    fn coverage_is_submodular(
        picks in proptest::collection::vec(0usize..15, 1..10),
        probe in 0usize..15,
    ) {
        let grid = TimeGrid::new(0.0, 150.0, 15).unwrap();
        let model = GaussianCoverage::new(12.0);
        let mut state = CoverageState::new(&grid, &model);
        let mut prev_gain = state.marginal_gain(InstantId(probe));
        for p in picks {
            state.add(InstantId(p));
            let gain = state.marginal_gain(InstantId(probe));
            prop_assert!(gain <= prev_gain + 1e-12);
            prev_gain = gain;
        }
    }

    /// Marginal gains must telescope to the total.
    #[test]
    fn gains_telescope(picks in proptest::collection::vec(0usize..20, 0..12)) {
        let grid = TimeGrid::new(0.0, 200.0, 20).unwrap();
        let model = GaussianCoverage::new(8.0);
        let mut state = CoverageState::new(&grid, &model);
        let mut acc = 0.0;
        for p in &picks {
            acc += state.marginal_gain(InstantId(*p));
            state.add(InstantId(*p));
        }
        let direct = coverage_of_instants(&grid, &model, &picks.iter().map(|&p| InstantId(p)).collect::<Vec<_>>());
        prop_assert!((acc - state.total()).abs() < 1e-9);
        prop_assert!((acc - direct).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// Matroid axioms
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn budget_matroid_axioms_hold(
        budgets in proptest::collection::vec(0usize..3, 1..3),
        elems in proptest::collection::vec((0usize..3, 0usize..3), 1..6),
    ) {
        let m = BudgetMatroid::new(budgets.clone());
        // Matroids are families of sets: deduplicate the ground elements.
        let mut ground: Vec<SenseAction> = elems
            .into_iter()
            .filter(|(u, _)| *u < budgets.len())
            .map(|(u, i)| SenseAction { user: UserId(u), instant: i })
            .collect();
        ground.sort_by_key(|a| (a.user, a.instant));
        ground.dedup();
        prop_assert!(verify_axioms(&m, &ground));
    }
}

// ---------------------------------------------------------------------
// Scheduling invariants
// ---------------------------------------------------------------------

proptest! {
    /// Greedy and lazy greedy always produce feasible schedules and
    /// identical coverage.
    #[test]
    fn greedy_variants_feasible_and_equal(problem in small_problem()) {
        let g = greedy(&problem);
        let l = lazy_greedy(&problem);
        prop_assert!(problem.is_feasible(&g));
        prop_assert!(problem.is_feasible(&l));
        prop_assert!((problem.evaluate(&g) - problem.evaluate(&l)).abs() < 1e-9);
    }

    /// The paper's 1/2 bound: greedy >= optimum/2 on brute-forceable
    /// instances (and trivially greedy <= optimum).
    #[test]
    fn greedy_half_approximation(problem in small_problem()) {
        let g = problem.evaluate(&greedy(&problem));
        let opt = problem.evaluate(&brute_force(&problem));
        prop_assert!(g <= opt + 1e-9);
        prop_assert!(g >= 0.5 * opt - 1e-9, "greedy {} < half of optimum {}", g, opt);
    }

    /// CELF is *bit-identical* to plain greedy — same instants, same
    /// user attribution, same order — on random problems with random
    /// decay curves (the acceptance bar for the lazy solver).
    #[test]
    fn celf_bit_identical_to_plain_greedy(problem in decayed_problem()) {
        prop_assert_eq!(lazy_greedy(&problem), greedy(&problem));
    }

    /// Incremental CELF re-planning matches from-scratch seeded plain
    /// greedy (the reference plan) bit-for-bit after every arrival and
    /// departure of a random churn trace, under a random decay curve.
    /// Bare advances do not replan, so they are not compared.
    #[test]
    fn incremental_replan_matches_from_scratch(
        trace in churn_trace(),
        decay in decay_curve(),
    ) {
        let grid = TimeGrid::new(0.0, 600.0, 60).unwrap();
        let mut sched = OnlineScheduler::new(grid, GaussianCoverage::new(10.0)).with_decay(decay);
        let mut t = 0.0f64;
        for op in &trace {
            if !apply_churn(&mut sched, op, &mut t) {
                continue;
            }
            let (reference, _) = sched.reference_plan();
            prop_assert_eq!(
                sched.planned(),
                reference.assignments(),
                "diverged after {:?} at t={}", op, t
            );
        }
    }

    /// The executed prefix depends only on which actions are past, not
    /// on how the clock got there: a scheduler that also takes every
    /// bare advance of the trace, then reaches the period's end through
    /// random intermediate steps, holds the same `executed()` as one
    /// that only moves at arrivals and departures and then jumps to the
    /// end in one step.
    #[test]
    fn executed_prefix_is_independent_of_clock_steps(
        trace in churn_trace(),
        cuts in proptest::collection::vec(0.0f64..600.0, 0..6),
    ) {
        let grid = TimeGrid::new(0.0, 600.0, 60).unwrap();
        let mut jumps = OnlineScheduler::new(grid, GaussianCoverage::new(10.0));
        let mut steps = OnlineScheduler::new(grid, GaussianCoverage::new(10.0));
        let (mut t_jumps, mut t) = (0.0f64, 0.0f64);
        for op in &trace {
            if apply_churn(&mut steps, op, &mut t) {
                apply_churn(&mut jumps, op, &mut t_jumps);
                prop_assert_eq!(jumps.executed(), steps.executed(), "after {:?} at t={}", op, t);
            } else {
                t_jumps = t;
            }
        }
        let mut cuts: Vec<f64> = cuts.into_iter().filter(|&c| c > t).collect();
        cuts.sort_by(f64::total_cmp);
        for c in cuts {
            steps.advance_to(c);
        }
        steps.advance_to(600.0);
        jumps.advance_to(600.0);
        prop_assert_eq!(jumps.executed(), steps.executed());
    }

    /// A scheduler restored from the state saved at its last replan
    /// before event `k` plans exactly like the live one through the rest
    /// of the trace: after every arrival and departure both hold the same
    /// executed prefix and plan, and the plan is the reference plan.
    #[test]
    fn restored_scheduler_plans_like_the_live_one(trace in churn_trace(), k in 0usize..10) {
        let grid = TimeGrid::new(0.0, 600.0, 60).unwrap();
        let model: Arc<dyn CoverageModel> = Arc::new(GaussianCoverage::new(10.0));
        let mut live = OnlineScheduler::from_arc(grid, Arc::clone(&model));
        let (head, tail) = trace.split_at(k.min(trace.len()));
        let mut saved = (Vec::new(), Vec::new(), Vec::new(), grid.start());
        let mut t = 0.0f64;
        for op in head {
            if apply_churn(&mut live, op, &mut t) {
                saved = (
                    live.participants().to_vec(),
                    live.executed().to_vec(),
                    live.planned().to_vec(),
                    live.now(),
                );
            }
        }
        let (participants, executed, planned, now) = saved;
        let mut restored =
            OnlineScheduler::restore(grid, model, participants, executed, planned, now).unwrap();
        let mut t_restored = t;
        for op in tail {
            apply_churn(&mut restored, op, &mut t_restored);
            if !apply_churn(&mut live, op, &mut t) {
                continue;
            }
            prop_assert_eq!(restored.executed(), live.executed(), "after {:?} at t={}", op, t);
            prop_assert_eq!(restored.planned(), live.planned(), "after {:?} at t={}", op, t);
            let (reference, _) = live.reference_plan();
            prop_assert_eq!(live.planned(), reference.assignments());
        }
    }

    /// Stochastic greedy is deterministic per seed and always feasible
    /// on random decayed problems (its quality floor is pinned by the
    /// fixed-seed tests in `schedule::stochastic`).
    #[test]
    fn stochastic_greedy_deterministic_and_feasible(problem in decayed_problem()) {
        let a = stochastic_greedy(&problem, 0.1, 99);
        let b = stochastic_greedy(&problem, 0.1, 99);
        prop_assert_eq!(&a, &b);
        prop_assert!(problem.is_feasible(&a));
    }

    /// The baseline is always feasible (budget + stay constraints). Note
    /// it may legitimately exceed the set-semantics optimum on cramped
    /// instances because independent phones can re-measure the same
    /// instant, which the paper's `Ψ ⊆ T` family forbids.
    #[test]
    fn baseline_feasible(problem in small_problem()) {
        let b = baseline(&problem);
        prop_assert!(problem.is_feasible(&b));
        for p in problem.participants() {
            prop_assert!(b.load_of(p.user) <= p.budget);
        }
    }
}

// ---------------------------------------------------------------------
// Ranking distances and aggregation
// ---------------------------------------------------------------------

proptest! {
    /// Diaconis–Graham (eq. 10): d_K <= d_f <= 2 d_K.
    #[test]
    fn footrule_bounds_kemeny(r1 in permutation(6), r2 in permutation(6)) {
        let dk = kemeny_distance(&r1, &r2);
        let df = footrule_distance(&r1, &r2);
        prop_assert!(dk <= df);
        prop_assert!(df <= 2 * dk || dk == 0 && df == 0);
    }

    /// Both distances are metrics: symmetry + triangle inequality +
    /// identity of indiscernibles.
    #[test]
    fn distances_are_metrics(
        a in permutation(5),
        b in permutation(5),
        c in permutation(5),
    ) {
        prop_assert_eq!(kemeny_distance(&a, &b), kemeny_distance(&b, &a));
        prop_assert_eq!(footrule_distance(&a, &b), footrule_distance(&b, &a));
        prop_assert!(kemeny_distance(&a, &c) <= kemeny_distance(&a, &b) + kemeny_distance(&b, &c));
        prop_assert!(footrule_distance(&a, &c) <= footrule_distance(&a, &b) + footrule_distance(&b, &c));
        prop_assert_eq!(kemeny_distance(&a, &a), 0);
        prop_assert_eq!(footrule_distance(&a, &a), 0);
    }

    /// The flow aggregation is the smallest footrule-optimal order
    /// (checked by enumerating all 4! candidate rankings: minimum cost
    /// first, then the lexicographically smallest order). Integer
    /// weights keep the costs exact, so ties are real ties.
    #[test]
    fn aggregation_is_footrule_optimal(
        rankings in proptest::collection::vec(permutation(4), 1..5),
        raw_weights in proptest::collection::vec(0u8..=5, 1..5),
    ) {
        let m = rankings.len().min(raw_weights.len());
        let rankings = &rankings[..m];
        let weights: Vec<f64> = raw_weights[..m].iter().map(|&w| w as f64).collect();
        let flow = aggregate(rankings, &weights, AggregationMethod::FootruleFlow).unwrap();

        let mut best = (f64::INFINITY, Vec::new());
        let mut order = vec![0, 1, 2, 3];
        permute_all(&mut order, 0, &mut |perm| {
            let r = Ranking::from_order(perm.to_vec()).unwrap();
            let c = weighted_footrule(&r, rankings, &weights);
            if c < best.0 || (c == best.0 && perm < best.1.as_slice()) {
                best = (c, perm.to_vec());
            }
        });
        prop_assert_eq!(flow.order(), best.1.as_slice());
    }

    /// Local Kemenization never regresses the footrule solution and
    /// stays within the exact optimum's reach.
    #[test]
    fn kemenization_sandwich(
        rankings in proptest::collection::vec(permutation(6), 2..5),
        raw_weights in proptest::collection::vec(1u8..=5, 2..5),
    ) {
        let m = rankings.len().min(raw_weights.len());
        let rankings = &rankings[..m];
        let weights: Vec<f64> = raw_weights[..m].iter().map(|&w| w as f64).collect();
        let plain = aggregate(rankings, &weights, AggregationMethod::FootruleFlow).unwrap();
        let refined = aggregate(rankings, &weights, AggregationMethod::FootruleKemenized).unwrap();
        let exact = aggregate(rankings, &weights, AggregationMethod::KemenyExact).unwrap();
        let k_plain = weighted_kemeny(&plain, rankings, &weights);
        let k_refined = weighted_kemeny(&refined, rankings, &weights);
        let k_exact = weighted_kemeny(&exact, rankings, &weights);
        prop_assert!(k_exact <= k_refined + 1e-9);
        prop_assert!(k_refined <= k_plain + 1e-9);
    }

    /// Footrule-optimal aggregation 2-approximates exact Kemeny (the
    /// paper's §IV-B guarantee).
    #[test]
    fn footrule_two_approx_kemeny(
        rankings in proptest::collection::vec(permutation(5), 2..5),
        raw_weights in proptest::collection::vec(1u8..=5, 2..5),
    ) {
        let m = rankings.len().min(raw_weights.len());
        let rankings = &rankings[..m];
        let weights: Vec<f64> = raw_weights[..m].iter().map(|&w| w as f64).collect();
        let foot = aggregate(rankings, &weights, AggregationMethod::FootruleFlow).unwrap();
        let exact = aggregate(rankings, &weights, AggregationMethod::KemenyExact).unwrap();
        let foot_k = weighted_kemeny(&foot, rankings, &weights);
        let opt_k = weighted_kemeny(&exact, rankings, &weights);
        prop_assert!(foot_k <= 2.0 * opt_k + 1e-9, "κ_K {} > 2×{}", foot_k, opt_k);
    }

    /// Individual rankings sort each column ascending.
    #[test]
    fn individual_rankings_sorted(
        gamma in proptest::collection::vec(
            proptest::collection::vec(0.0f64..100.0, 3), 1..8
        )
    ) {
        let rankings = individual_rankings(&gamma);
        for (j, r) in rankings.iter().enumerate() {
            for w in r.order().windows(2) {
                prop_assert!(gamma[w[0]][j] <= gamma[w[1]][j]);
            }
        }
    }
}

fn permute_all(order: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == order.len() {
        f(order);
        return;
    }
    for i in k..order.len() {
        order.swap(k, i);
        permute_all(order, k + 1, f);
        order.swap(k, i);
    }
}
