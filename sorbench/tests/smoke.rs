//! Every workload at `--smoke` scale, untraced then traced, at one and
//! at two worker threads: the output checks pass, the traced layers
//! explain the run, and the output digest does not depend on the
//! thread count.

use std::process::Command;

fn run(workload: &str, threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sorbench"))
        .args(["run", workload, "--smoke", "--seconds", "0", "--out", env!("CARGO_TARGET_TMPDIR")])
        .env("SOR_THREADS", threads)
        .output()
        .expect("spawn sorbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} at SOR_THREADS={threads} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn line_value<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
}

fn check(workload: &str) {
    let one = run(workload, "1");
    let two = run(workload, "2");
    for out in [&one, &two] {
        let unattributed: f64 = line_value(out, "metric bench.unattributed_ratio ")
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .expect("numeric ratio");
        assert!(unattributed <= 0.02, "{workload}: unattributed {unattributed}");
        let result = out.lines().last().expect("result line");
        assert!(result.starts_with("{\"correct\": true"), "{workload}: {result}");
    }
    assert_eq!(
        line_value(&one, "output_digest "),
        line_value(&two, "output_digest "),
        "{workload}: the digest must not depend on SOR_THREADS"
    );
}

#[test]
fn admission_churn_smoke() {
    check("admission_churn");
}

#[test]
fn trail_collection_smoke() {
    check("trail_collection");
}

#[test]
fn rank_storm_smoke() {
    check("rank_storm");
}
