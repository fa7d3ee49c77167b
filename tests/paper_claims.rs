//! The paper's headline claims, asserted against this implementation:
//!
//! 1. Table I — trail rankings for Alice / Bob / Chris.
//! 2. Table II — coffee-shop rankings for David / Emma.
//! 3. Fig. 14 — the greedy scheduler beats the every-10s baseline by a
//!    large margin (paper: 65% on average) with lower variance.
//! 4. §III — greedy is a 1/2-approximation (validated on brute-forceable
//!    instances elsewhere; here: monotone in users and budget).
//! 5. §IV-B — the footrule-optimal ranking 2-approximates Kemeny.

use sor::sim::scenario::{
    alice, bob, chris, david, emma, run_coffee_field_test, run_scheduling_sim,
    run_trail_field_test, FieldTestConfig, SchedulingConfig,
};

#[test]
fn table_one_hiking_trail_rankings() {
    let out = run_trail_field_test(FieldTestConfig::trails()).unwrap();
    let cases = [
        (alice(), ["Cliff Trail", "Long Trail", "Green Lake Trail"]),
        (bob(), ["Long Trail", "Cliff Trail", "Green Lake Trail"]),
        (chris(), ["Green Lake Trail", "Long Trail", "Cliff Trail"]),
    ];
    for (prefs, expected) in cases {
        let ranking = out.server.rank("hiking-trail", &prefs).unwrap();
        assert_eq!(
            *ranking.order, expected,
            "Table I mismatch for {} (gamma: {:?})",
            prefs.name, ranking.outcome.gamma
        );
    }
}

#[test]
fn table_two_coffee_shop_rankings() {
    let out = run_coffee_field_test(FieldTestConfig::coffee()).unwrap();
    let cases = [
        (david(), ["Starbucks", "B&N Cafe", "Tim Hortons"]),
        (emma(), ["B&N Cafe", "Tim Hortons", "Starbucks"]),
    ];
    for (prefs, expected) in cases {
        let ranking = out.server.rank("coffee-shop", &prefs).unwrap();
        assert_eq!(
            *ranking.order, expected,
            "Table II mismatch for {} (matrix: {:?})",
            prefs.name, ranking.matrix
        );
    }
}

#[test]
fn fig14_greedy_beats_baseline_substantially() {
    // The paper's mid-range point: 30 users, budget 17.
    let out =
        run_scheduling_sim(SchedulingConfig { runs: 5, ..SchedulingConfig::paper(30, 17, 7) });
    let improvement = out.improvement();
    assert!(
        improvement > 0.35,
        "expected a large greedy advantage, got {:.0}% (greedy {:.3}, baseline {:.3})",
        improvement * 100.0,
        out.greedy_mean,
        out.baseline_mean
    );
    // Stability claim: the greedy's coverage profile is far more even
    // across the period than the baseline's clustered one.
    assert!(
        out.greedy_instant_var < out.baseline_instant_var,
        "greedy instant variance {} vs baseline {}",
        out.greedy_instant_var,
        out.baseline_instant_var
    );
}

#[test]
fn fig14_coverage_saturates_with_many_users() {
    // "when 55 users participate in sensing, our algorithm leads to
    // almost 100% coverage".
    let out =
        run_scheduling_sim(SchedulingConfig { runs: 3, ..SchedulingConfig::paper(55, 17, 3) });
    assert!(out.greedy_mean > 0.9, "greedy coverage {:.3}", out.greedy_mean);
}

#[test]
fn footrule_aggregation_two_approximates_kemeny_on_field_data() {
    use sor::core::ranking::{aggregate, individual_rankings, weighted_kemeny, AggregationMethod};
    let out = run_coffee_field_test(FieldTestConfig::quick(13)).unwrap();
    for prefs in [david(), emma()] {
        let gamma = sor::core::ranking::distance_matrix(&out.matrix, &prefs).unwrap();
        let rankings = individual_rankings(&gamma);
        let weights = prefs.weights();
        let foot = aggregate(&rankings, &weights, AggregationMethod::FootruleFlow).unwrap();
        let exact = aggregate(&rankings, &weights, AggregationMethod::KemenyExact).unwrap();
        let foot_cost = weighted_kemeny(&foot, &rankings, &weights);
        let best_cost = weighted_kemeny(&exact, &rankings, &weights);
        assert!(
            foot_cost <= 2.0 * best_cost + 1e-9,
            "{}: footrule κ_K {} > 2 × {}",
            prefs.name,
            foot_cost,
            best_cost
        );
    }
}

#[test]
fn rankings_are_personal_not_global() {
    // Same sensed data, different users, different orders — the core
    // §IV claim.
    let out = run_coffee_field_test(FieldTestConfig::quick(21)).unwrap();
    let d = out.server.rank("coffee-shop", &david()).unwrap();
    let e = out.server.rank("coffee-shop", &emma()).unwrap();
    assert_ne!(d.order, e.order);
}
