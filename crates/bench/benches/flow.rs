//! Assignment-solver benchmarks: the §IV-B aggregation's min-cost
//! perfect matching on random instances of growing size, and on a fully
//! tied 64×64 matrix. Under a full tie every arc is tight, the worst
//! case of the solver's canonical tie-breaking pass.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sor_flow::assignment;

fn cost_matrix(n: usize) -> Vec<Vec<i64>> {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    (0..n)
        .map(|_| {
            (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 1000) as i64
                })
                .collect()
        })
        .collect()
}

fn bench_assignment(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow/assignment");
    for n in [5usize, 20, 50, 64, 100] {
        let cost = cost_matrix(n);
        g.bench_with_input(BenchmarkId::new("random", n), &cost, |b, cost| {
            b.iter(|| black_box(assignment::solve(black_box(cost)).unwrap()))
        });
    }
    let tied = vec![vec![7i64; 64]; 64];
    g.bench_with_input(BenchmarkId::new("tied", 64), &tied, |b, cost| {
        b.iter(|| black_box(assignment::solve(black_box(cost)).unwrap()))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_assignment
}
criterion_main!(benches);
