//! `SOR_THREADS` must never change what the system computes — only how
//! fast it computes it. These tests run whole coffee-shop field tests
//! at 1 and 8 workers and require byte-identical golden traces and
//! metrics exports, identical final rankings, and identical untraced
//! outcomes (feature matrix, transport stats, energy ledger).

use std::sync::Arc;

use sor_obs::Recorder;
use sor_sim::scenario::{
    profiles, run_coffee_field_test, run_coffee_field_test_traced, FieldTestConfig,
};

/// One fully traced field test + rank at a fixed worker count, returning
/// every deterministic artefact: trace JSON, metrics JSON, and the final
/// ranking order for two §V-B profiles.
fn traced_run(threads: usize) -> (String, String, Arc<[String]>, Arc<[String]>) {
    sor_par::with_threads(threads, || {
        let rec = Recorder::enabled();
        let outcome = run_coffee_field_test_traced(FieldTestConfig::quick(7), rec.clone()).unwrap();
        let david = outcome.server.rank("coffee-shop", &profiles::david()).unwrap();
        let emma = outcome.server.rank("coffee-shop", &profiles::emma()).unwrap();
        assert_eq!(sor_par::current_threads(), threads);
        (rec.trace_json().unwrap(), rec.metrics_json().unwrap(), david.order, emma.order)
    })
}

#[test]
fn traced_field_test_is_identical_at_one_and_eight_workers() {
    let (trace1, metrics1, david1, emma1) = traced_run(1);
    let (trace8, metrics8, david8, emma8) = traced_run(8);
    assert_eq!(david1, david8, "final ranking must not depend on worker count");
    assert_eq!(emma1, emma8, "final ranking must not depend on worker count");
    assert_eq!(metrics1, metrics8, "metrics export must be byte-identical");
    assert_eq!(trace1, trace8, "golden trace must be byte-identical");
}

#[test]
fn untraced_field_test_outcome_is_identical_at_one_and_eight_workers() {
    // Untraced, the worker count still drives inbox decode, `rank_many`,
    // the ranker columns and the lazy-greedy first round.
    let run = |threads| {
        sor_par::with_threads(threads, || {
            let outcome = run_coffee_field_test(FieldTestConfig::quick(11)).unwrap();
            assert_eq!(sor_par::current_threads(), threads);
            outcome
        })
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq.stats, par.stats, "transport/ingest stats must match");
    assert_eq!(seq.app_ids, par.app_ids);
    assert_eq!(seq.matrix, par.matrix, "feature matrix must be bit-identical");
    assert_eq!(
        seq.energy_mj_per_place, par.energy_mj_per_place,
        "integer-microjoule energy accounting must be order-independent"
    );
    assert_eq!(seq.recoveries, par.recoveries);
}
