//! Execution-engine throughput: one full phone-side dispatch (analyze +
//! execute) on the tree-walking interpreter vs the bytecode VM with a
//! cold and a warm compilation cache, plus a 64-phone fan-out of one
//! script — the fleet shape the [`sor_script::ScriptCache`] exists for.
//! `scripts/ci.sh` gates on `tree_walk / vm_warm >= 3x`, and
//! `scripts/bench.sh` records the `script_exec/*` figures into
//! `BENCH_pipeline.json`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use sor_script::analysis::{analyze, CapabilitySet};
use sor_script::{HostRegistry, Interpreter, Prepared, ScriptCache, Value, Vm};

/// The same representative sensing task as the interpreter bench: loops,
/// host acquisition calls, stdlib aggregation.
const SENSING_TASK: &str = r#"
    local samples = {}
    for i = 1, 10 do
        local batch = get_light_readings(5)
        insert(samples, mean(batch))
        sleep(1)
    end
    return stddev(samples)
"#;

fn fixed_host() -> HostRegistry {
    let mut host = HostRegistry::new();
    host.register("get_light_readings", |ctx, args| {
        let n = args.first().and_then(Value::as_number).unwrap_or(1.0) as usize;
        ctx.virtual_time += 0.1 * n as f64;
        Ok(Value::number_array(&(0..n).map(|i| 400.0 + (i as f64) * 3.5).collect::<Vec<_>>()))
    });
    host
}

fn caps() -> CapabilitySet {
    CapabilitySet::from_registry(&fixed_host())
}

/// One phone-side dispatch on the tree-walking path: re-verify with the
/// static analyzer (the phone does not trust the server), then parse
/// and execute the source.
fn dispatch_tree(caps: &CapabilitySet) -> Value {
    let verdict = analyze(SENSING_TASK, caps);
    assert!(!verdict.has_errors(), "bench task must pass analysis");
    let mut interp = Interpreter::with_host(fixed_host());
    interp.run(SENSING_TASK).expect("bench task runs")
}

/// One phone-side dispatch on the bytecode path: a cache lookup (which
/// analyzes and compiles on miss) and a VM run of the shared module.
fn dispatch_vm(caps: &CapabilitySet, cache: &ScriptCache) -> Value {
    let (prepared, _) = cache.get_or_prepare(SENSING_TASK, caps);
    let Prepared::Ready(p) = prepared else { panic!("bench task must compile") };
    let mut vm = Vm::with_host(fixed_host());
    vm.run_module(&p.module).expect("bench task runs")
}

fn bench_tree_walk(c: &mut Criterion) {
    let caps = caps();
    c.bench_function("script_exec/tree_walk", |b| b.iter(|| black_box(dispatch_tree(&caps))));
}

fn bench_vm_cold(c: &mut Criterion) {
    let caps = caps();
    c.bench_function("script_exec/vm_cold", |b| {
        b.iter(|| {
            // A fresh cache per dispatch: every run pays the full
            // analyze -> compile pipeline before executing.
            let cache = ScriptCache::new();
            black_box(dispatch_vm(&caps, &cache))
        })
    });
}

fn bench_vm_warm(c: &mut Criterion) {
    let caps = caps();
    let cache = ScriptCache::new();
    dispatch_vm(&caps, &cache); // warm the one entry
    c.bench_function("script_exec/vm_warm", |b| b.iter(|| black_box(dispatch_vm(&caps, &cache))));
}

fn bench_fanout(c: &mut Criterion) {
    let caps = caps();
    c.bench_function("script_exec/fanout64_tree", |b| {
        b.iter(|| {
            for _ in 0..64 {
                black_box(dispatch_tree(&caps));
            }
        })
    });
    c.bench_function("script_exec/fanout64_vm", |b| {
        b.iter(|| {
            // The server fans one script out to 64 phones sharing one
            // cache: the first dispatch compiles, the other 63 hit.
            let cache = ScriptCache::new();
            for _ in 0..64 {
                black_box(dispatch_vm(&caps, &cache));
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = bench_tree_walk, bench_vm_cold, bench_vm_warm, bench_fanout
}
criterion_main!(benches);
