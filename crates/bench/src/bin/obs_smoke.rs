//! CI smoke check for the observability pipeline: runs a small traced
//! coffee-shop field test and validates that every export is well-formed
//! and actually observed the deployment. Exits non-zero on any failure.
//!
//! ```sh
//! cargo run --release -p sor-bench --bin obs_smoke
//! ```

use sor_obs::{parse_json, Recorder};
use sor_sim::scenario::{run_coffee_field_test_traced, FieldTestConfig};

fn check(cond: bool, what: &str) {
    if cond {
        println!("ok   {what}");
    } else {
        eprintln!("FAIL {what}");
        std::process::exit(1);
    }
}

fn main() {
    let rec = Recorder::enabled();
    let out = run_coffee_field_test_traced(FieldTestConfig::quick(3), rec.clone())
        .expect("field test runs");
    check(out.stats.uploads_accepted > 0, "field test accepted uploads");
    check(out.stats.decode_failures == 0, "no frames lost integrity");

    let metrics_json = rec.metrics_json().expect("enabled recorder exports metrics");
    check(parse_json(&metrics_json).is_ok(), "metrics JSON snapshot parses");
    let trace_json = rec.trace_json().expect("enabled recorder exports trace");
    check(parse_json(&trace_json).is_ok(), "trace JSON snapshot parses");

    let csv = rec.metrics_csv().unwrap();
    check(csv.lines().count() > 10, "metrics CSV is non-trivial");
    for name in [
        "script.runs_started",
        "phone.records_acquired",
        "net.frames_sent.server",
        "server.msg_received.sensed_data_upload",
        "store.rows_inserted.records",
        "server.features_computed",
        "sched.iterations_run",
        "pipeline.uploads_accepted",
    ] {
        check(rec.counter(name) > 0, &format!("counter {name} observed the pipeline"));
    }

    let report = rec.report().unwrap();
    check(report.contains("server.process_data"), "report covers data processing spans");
    let health = out.health.as_ref();
    check(health.is_some(), "traced field test grades its SLO catalog");
    check(health.is_some_and(|h| h.healthy()), "SLO health grade passes");
    check(out.alerts.is_empty(), "healthy baseline run fires no SLO alerts");

    // A digest over both exports: byte-identical run to run, and across
    // SOR_THREADS values — scripts/ci.sh diffs this line between its
    // SOR_THREADS=1 and SOR_THREADS=4 passes.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for b in metrics_json.bytes().chain(trace_json.bytes()) {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    println!("deterministic digest: {digest:016x}");
    println!("obs smoke OK");
}
