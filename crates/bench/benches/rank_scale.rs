//! Batched-ranking scale benchmark: `rank_many` over 1/8/64 users on a
//! 32-place × 8-feature category, sequential vs the worker pool, plus
//! the warm [`sor_server::RankCache`] hit path against a cold rank.
//!
//! `scripts/ci.sh` parses this bench's output and enforces two speedup
//! guards: 64 users on 8 workers ≥ 1.5× over sequential, and a warm
//! cache hit ≥ 10× over a cold rank.
//!
//! The first guard reads its own paired measurement, not the two
//! `rank_scale/{seq,par8}/users=64` means: each pair times one
//! sequential and one 8-worker `rank_many` back to back, in ABBA order
//! (sequential first in even pairs, parallel first in odd ones), so
//! drift in the host's speed falls on both runs of a pair instead of on
//! one side of the ratio. The guard is the median per-pair seq/par8
//! ratio; the last field of the `rank_scale/par8_speedup/users=64` line.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use sor_core::ranking::Preference;
use sor_core::UserPreferences;
use sor_server::processor::FEATURES_TABLE;
use sor_server::{ApplicationSpec, Extractor, FeatureSpec, SensingServer};
use sor_store::Value;

const N_PLACES: u64 = 32;
const N_FEATURES: usize = 8;

fn feature_specs() -> Vec<FeatureSpec> {
    (0..N_FEATURES)
        .map(|j| FeatureSpec::new(format!("f{j}"), "", Extractor::Mean { sensor: j as u16 }, 60.0))
        .collect()
}

/// A server with 32 registered places in one category and a fully
/// populated features table (values written directly — collection cost
/// is not what this bench measures).
fn populated_server() -> SensingServer {
    let mut s = SensingServer::new().unwrap();
    for app_id in 1..=N_PLACES {
        s.register_application(ApplicationSpec {
            app_id,
            name: format!("place {app_id}"),
            creator: "owner".into(),
            category: "coffee-shop".into(),
            latitude: 43.05,
            longitude: -76.15,
            radius_m: 150.0,
            script: "get_temperature_readings(1)".into(),
            period_seconds: 3600.0,
            instants: 360,
            features: feature_specs(),
        })
        .unwrap();
    }
    let db = s.durable_database().db_mut();
    for app_id in 1..=N_PLACES {
        for j in 0..N_FEATURES {
            // Deterministic spread so every profile induces a distinct order.
            let v = ((app_id as f64) * 1.7 + (j as f64) * 13.3) % 40.0 + 55.0;
            db.insert(
                FEATURES_TABLE,
                vec![Value::Int(app_id as i64), Value::text(format!("f{j}")), Value::Float(v)],
            )
            .unwrap();
        }
    }
    s
}

/// Monotone salt source shared by every bench in this binary: the
/// server (and so the rank cache) is shared too, and a reused salt
/// would turn an intended cold rank into a warm hit.
static SALT: AtomicU64 = AtomicU64::new(1);

fn fresh_salt() -> u64 {
    SALT.fetch_add(1, Ordering::Relaxed)
}

/// A preference profile parameterised by `salt` so every benchmark
/// iteration is a distinct cache key (cold path stays cold). The salt
/// lands in the f64 target at full resolution: distinct salt, distinct
/// fingerprint.
fn prefs(salt: u64) -> UserPreferences {
    let target = 55.0 + (salt as f64) * 1e-6;
    UserPreferences::new(
        "bench",
        (0..N_FEATURES).map(|j| Preference::value(target + j as f64, (j % 5 + 1) as u8)).collect(),
    )
}

/// `users` fresh profiles: every one misses the rank cache.
fn fresh_profiles(users: usize) -> Vec<UserPreferences> {
    let salt = fresh_salt();
    (0..users).map(|u| prefs(salt * 1000 + u as u64)).collect()
}

fn rank_all(server: &SensingServer, profiles: &[UserPreferences]) {
    let requests: Vec<(&str, &UserPreferences)> =
        profiles.iter().map(|p| ("coffee-shop", p)).collect();
    black_box(server.rank_many(&requests));
}

fn bench_rank_many(c: &mut Criterion) {
    let server = populated_server();
    let mut g = c.benchmark_group("rank_scale");
    g.sample_size(10);
    for users in [1usize, 8, 64] {
        for (mode, threads) in [("seq", 1usize), ("par8", 8)] {
            g.bench_function(format!("{mode}/users={users}"), |b| {
                sor_par::set_threads(threads);
                b.iter(|| rank_all(&server, &fresh_profiles(users)));
                sor_par::set_threads(0);
            });
        }
    }
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let server = populated_server();
    let mut g = c.benchmark_group("rank_scale");
    g.bench_function("cold", |b| {
        b.iter(|| black_box(server.rank("coffee-shop", &prefs(fresh_salt() * 1000)).unwrap()))
    });
    let warm = prefs(0);
    server.rank("coffee-shop", &warm).unwrap();
    g.bench_function("cache_hit", |b| {
        b.iter(|| black_box(server.rank("coffee-shop", &warm).unwrap()))
    });
    g.finish();
}

/// ABBA pairs behind the parallel-speedup guard.
const PAIRS: usize = 41;

/// The `q`-quantile of ascending `xs`, interpolating between ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Times 64-user `rank_many` at 1 and 8 workers in ABBA pairs and
/// prints the per-pair seq/par8 ratio quartiles, median last.
fn paired_speedup(_: &mut Criterion) {
    let server = populated_server();
    let seconds_at = |threads: usize| {
        let profiles = fresh_profiles(64);
        sor_par::with_threads(threads, || {
            let t0 = Instant::now();
            rank_all(&server, &profiles);
            t0.elapsed().as_secs_f64()
        })
    };
    // Warm-up: fault in both paths.
    seconds_at(1);
    seconds_at(8);
    let mut pairs = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        pairs.push(if pair % 2 == 0 {
            let seq = seconds_at(1);
            (seq, seconds_at(8))
        } else {
            let par = seconds_at(8);
            (seconds_at(1), par)
        });
    }
    let median_ms = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        quantile(&xs, 0.5) * 1e3
    };
    let mut ratios: Vec<f64> = pairs.iter().map(|&(seq, par)| seq / par).collect();
    ratios.sort_by(f64::total_cmp);
    println!(
        "bench rank_scale/par8_speedup/users=64 {PAIRS} ABBA pairs: median seq {:.1} ms, \
         par8 {:.1} ms; seq/par8 q1 {:.3} q3 {:.3} median {:.3}",
        median_ms(pairs.iter().map(|p| p.0).collect()),
        median_ms(pairs.iter().map(|p| p.1).collect()),
        quantile(&ratios, 0.25),
        quantile(&ratios, 0.75),
        quantile(&ratios, 0.5),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_rank_many, bench_cache, paired_speedup
}
criterion_main!(benches);
