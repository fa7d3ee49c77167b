//! The churn-replanning benchmark: what one arrival/departure costs.
//!
//! Drives the deterministic churn scenario at three grid scales and
//! reports two figures per (arm, scale) point in the stub-criterion
//! line format `scripts/bench.sh` scrapes:
//!
//! - `sched_churn/{full,incr}/n=N` — wall nanoseconds per churn event;
//! - `sched_churn/{full,incr}_evals/n=N` — marginal-gain evaluations
//!   over the whole run (a deterministic work count smuggled through
//!   the same `~value ns/iter` line shape, not a time).
//!
//! `incr` is the online scheduler's incremental CELF repair, the only
//! way it replans. `full` is what a from-scratch replan would cost: the
//! scheduler's reference plan (seeded plain greedy), run after every
//! replan and timed on its own. The first full pass also checks that
//! every repaired plan equals its reference.
//!
//! The eval lines are what `scripts/ci.sh` guards: incremental
//! re-planning must do at most 10% of the full-replan evaluations at
//! `n=4096`. Work counts are exact and host-independent, so the guard
//! is safe on single-core CI hosts where wall time is noise.
//!
//! Hand-rolled `main` (no criterion harness): the eval counts come
//! from one run, and the big `full` points are too slow for the stub
//! harness's fixed 20 iterations.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sor_sim::scenario::{run_churn_sim, ChurnConfig};

fn report(label: &str, value: u128, note: &str) {
    println!("bench {label:<48} ~{value} ns/iter ({note})");
}

fn report_arm(tag: &str, n: usize, ns_per_event: u128, evals: u64) {
    report(&format!("sched_churn/{tag}/n={n}"), ns_per_event, "wall ns per churn event");
    report(
        &format!("sched_churn/{tag}_evals/n={n}"),
        u128::from(evals),
        "gain evaluations per run, not time",
    );
}

fn main() {
    for n in [64usize, 512, 4096] {
        let cfg = ChurnConfig::at_scale(n);
        let iters: u32 = if n >= 4096 { 2 } else { 10 };

        // Warm-up, the eval-count source, and the equality check.
        let mut full_evals = 0;
        let out = run_churn_sim(cfg, |s| {
            let (reference, work) = s.reference_plan();
            assert_eq!(s.planned(), reference.assignments(), "CELF diverged at n={n}");
            full_evals += work.gain_evaluations;
        });
        let events = u128::from(out.stats.replans.max(1));

        let mut full_time = Duration::ZERO;
        for _ in 0..iters {
            run_churn_sim(cfg, |s| {
                let start = Instant::now();
                black_box(s.reference_plan());
                full_time += start.elapsed();
            });
        }
        report_arm("full", n, full_time.as_nanos() / u128::from(iters) / events, full_evals);

        let start = Instant::now();
        for _ in 0..iters {
            black_box(run_churn_sim(cfg, |_| {}));
        }
        let incr_ns = start.elapsed().as_nanos() / u128::from(iters) / events;
        report_arm("incr", n, incr_ns, out.stats.gain_evaluations);
    }
}
