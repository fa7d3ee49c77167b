//! Ranking benchmarks: the aggregation cost behind Tables I/II, across
//! place counts and aggregation methods (the solver ablation of
//! DESIGN.md).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sor_core::ranking::{aggregate, AggregationMethod, Ranking};

/// Deterministic pseudo-random permutations without an RNG dependency.
fn permutation(n: usize, salt: u64) -> Ranking {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state as usize) % (i + 1));
    }
    Ranking::from_order(order).unwrap()
}

fn rankings(n_places: usize, m_features: usize) -> (Vec<Ranking>, Vec<f64>) {
    let rankings: Vec<Ranking> =
        (0..m_features).map(|j| permutation(n_places, j as u64 + 1)).collect();
    let weights: Vec<f64> = (0..m_features).map(|j| (j % 5 + 1) as f64).collect();
    (rankings, weights)
}

fn bench_aggregation_methods(c: &mut Criterion) {
    let mut g = c.benchmark_group("ranking/methods");
    let (r, w) = rankings(8, 5);
    for (name, method) in [
        ("footrule_flow", AggregationMethod::FootruleFlow),
        ("kemeny_exact", AggregationMethod::KemenyExact),
        ("borda", AggregationMethod::Borda),
    ] {
        g.bench_function(name, |b| b.iter(|| black_box(aggregate(&r, &w, method).unwrap())));
    }
    g.finish();
}

fn bench_place_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("ranking/places");
    for n in [3usize, 10, 30, 100] {
        let (r, w) = rankings(n, 5);
        g.bench_with_input(BenchmarkId::new("footrule_flow", n), &n, |b, _| {
            b.iter(|| black_box(aggregate(&r, &w, AggregationMethod::FootruleFlow).unwrap()))
        });
    }
    g.finish();
}

fn bench_feature_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("ranking/features");
    for m in [2usize, 8, 32] {
        let (r, w) = rankings(10, m);
        g.bench_with_input(BenchmarkId::new("footrule_flow", m), &m, |b, _| {
            b.iter(|| black_box(aggregate(&r, &w, AggregationMethod::FootruleFlow).unwrap()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_aggregation_methods, bench_place_scaling, bench_feature_scaling
}
criterion_main!(benches);
