//! Overhead guard for the durability layer: running the coffee-shop
//! field test on a durable server (write-ahead log on a simulated
//! disk, every ack flushed) must cost less than 5% over the ephemeral
//! server.
//!
//! Method: paired rounds. Each round times one ephemeral and one
//! durable run back to back, in ABBA order (ephemeral first in even
//! rounds, durable first in odd ones), so drift in the host's speed
//! falls on both runs of a round alike instead of on one side of the
//! ratio. The overhead is the median of the per-round durable /
//! ephemeral ratios. Each durable run gets a fresh disk so no run pays
//! for the previous run's checkpoint or log replay.

use std::hint::black_box;
use std::time::Instant;

use sor_sim::scenario::{
    run_coffee_field_test, run_coffee_field_test_durable, DurableRun, FieldTestConfig,
};

const ROUNDS: usize = 41;

fn seconds<F: FnOnce()>(f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The `q`-quantile of ascending `xs`, interpolating between ranks.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn median_of(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile(&xs, 0.5)
}

fn main() {
    let cfg = FieldTestConfig::quick(3);
    let ephemeral = || {
        seconds(|| {
            black_box(run_coffee_field_test(cfg).unwrap());
        })
    };
    let durable = || {
        seconds(|| {
            let run = DurableRun::crashes_at(&cfg, vec![]);
            black_box(run_coffee_field_test_durable(cfg, run).unwrap());
        })
    };
    // Warm-up: fault in code paths for both configurations.
    ephemeral();
    durable();

    let mut rounds = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (e, d) = if round % 2 == 0 {
            let e = ephemeral();
            (e, durable())
        } else {
            let d = durable();
            (ephemeral(), d)
        };
        rounds.push((e, d));
    }

    let mut ratios: Vec<f64> = rounds.iter().map(|&(e, d)| d / e).collect();
    ratios.sort_by(f64::total_cmp);
    let overhead = quantile(&ratios, 0.5) - 1.0;
    println!(
        "bench wal_overhead: {ROUNDS} ABBA rounds, median ephemeral {:.1} ms, durable {:.1} ms; \
         durable/ephemeral q1 {:.4}, median {:.4}, q3 {:.4} → {:+.2}% overhead",
        median_of(rounds.iter().map(|r| r.0).collect()) * 1e3,
        median_of(rounds.iter().map(|r| r.1).collect()) * 1e3,
        quantile(&ratios, 0.25),
        quantile(&ratios, 0.5),
        quantile(&ratios, 0.75),
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "write-ahead logging costs {:.2}% of the pipeline (limit 5%)",
        overhead * 100.0
    );
    println!("bench wal_overhead OK (< 5%)");
}
