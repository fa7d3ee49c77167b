//! Flow-substrate benchmarks: min-cost flow vs Hungarian on assignment
//! instances of growing size.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sor_flow::{assignment, hungarian};

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

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow/assignment");
    for n in [5usize, 20, 50, 100] {
        let cost = cost_matrix(n);
        g.bench_with_input(BenchmarkId::new("mincost_flow", n), &cost, |b, cost| {
            b.iter(|| black_box(assignment::solve(cost).unwrap()))
        });
        g.bench_with_input(BenchmarkId::new("hungarian", n), &cost, |b, cost| {
            b.iter(|| black_box(hungarian::solve(cost).unwrap()))
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
    targets = bench_backends
}
criterion_main!(benches);
