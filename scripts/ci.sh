#!/usr/bin/env sh
# Offline CI gate: build, tests, lints, formatting.
#
# Runs entirely against the vendored dependency stubs in vendor/ — no
# network or registry access is required (--offline makes cargo fail
# fast instead of hanging if a lockfile change would need one).
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --workspace
# The whole suite at one worker and at four: SOR_THREADS must never
# change what any test observes, only how fast it runs.
run env SOR_THREADS=1 cargo test -q --offline --workspace
run env SOR_THREADS=4 cargo test -q --offline --workspace

# Recorded-results gate: at one worker and at four, the paper-reproduction
# binaries must reproduce results/ byte for byte (stdout and stderr
# together). `ablation` is left out because it prints wall times.
bin_dir=${CARGO_TARGET_DIR:-target}/release
results_match() {
    # $1: SOR_THREADS, $2: recorded file, rest: binary and its arguments.
    threads=$1
    expected=$2
    shift 2
    if ! env SOR_THREADS="$threads" "$@" 2>&1 | cmp -s - "$expected"; then
        echo "FAIL '$*' output differs from $expected at SOR_THREADS=$threads" >&2
        return 1
    fi
}
for threads in 1 4; do
    for bin in table1 table2 fig6 fig10 fig14; do
        results_match "$threads" "results/$bin.txt" "$bin_dir/$bin"
    done
    results_match "$threads" results/fig14.csv "$bin_dir/fig14" csv
    echo "==> results/ reproduced byte-identically at SOR_THREADS=$threads"
done
# The benchmark is a package of its own: its smoke test runs every
# workload at --smoke and requires the same output digest at
# SOR_THREADS=1 and 2.
run cargo test -q --offline --manifest-path sorbench/Cargo.toml
run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo clippy --offline --manifest-path sorbench/Cargo.toml --all-targets -- -D warnings
run cargo fmt --check
run cargo fmt --check --manifest-path sorbench/Cargo.toml

# Static-analysis gates: every corpus script's diagnostics must match
# its golden .expected file, and the three-way optdiff (tree-walker vs
# optimized tree-walker vs bytecode VM on both programs) must report
# zero divergences on the whole corpus — values, error kinds, print
# output, and instruction counts all have to agree.
run cargo test -q --offline -p sor-script --test lint_corpus
run cargo test -q --offline -p sor-script --test vm_corpus
run cargo run --release --offline -p sor-script --bin optdiff -- tests/lint_corpus

# Observability smoke: a traced field test must produce parseable
# exports, and the disabled recorder must stay under its overhead budget.
# Both smokes run twice — one worker, then four — and their deterministic
# summaries (trace/metrics digest, final ranking) must not diverge.
smoke_diverged() {
    # $1: binary name. Compares full stdout across SOR_THREADS=1 and 4.
    one=$(env SOR_THREADS=1 cargo run --release --offline -p sor-bench --bin "$1")
    four=$(env SOR_THREADS=4 cargo run --release --offline -p sor-bench --bin "$1")
    if [ "$one" != "$four" ]; then
        echo "FAIL $1 output diverges between SOR_THREADS=1 and 4" >&2
        printf '%s\n--- vs ---\n%s\n' "$one" "$four" >&2
        return 1
    fi
    echo "==> $1 deterministic across SOR_THREADS=1/4"
}
smoke_diverged obs_smoke
run cargo bench --offline -p sor-bench --bench obs_overhead
# Metro-scale guard: the always-on sampled layer (tail sampler, window
# rolls, top-k offers) must stay <2% of the pipeline at 10x users.
run cargo bench --offline -p sor-bench --bench obs_scale

# Trace lint: export the deterministic field-test golden trace and fail
# on structural defects — orphan parent ids, spans that close before
# they open, and cross-component (phone <-> server) spans missing a
# trace id. The same export is then graded against the SLO catalog.
trace_dir=$(mktemp -d)
top_dir=$(mktemp -d)
trap 'rm -rf "$trace_dir" "$top_dir"' EXIT
run env SOR_THREADS=1 cargo run --release --offline -p sor --bin sor -- export "$trace_dir"
run cargo run --release --offline -p sor --bin sor -- lint "$trace_dir/trace.json"
run cargo run --release --offline -p sor --bin sor -- health "$trace_dir/trace.json"

# Dashboard golden smoke: re-export at four workers and byte-compare
# the rendered `sor top` dashboards — worker count must never change
# what the operator sees.
run env SOR_THREADS=4 cargo run --release --offline -p sor --bin sor -- export "$top_dir"
top_one=$(cargo run --release --offline -p sor --bin sor -- top "$trace_dir")
top_four=$(cargo run --release --offline -p sor --bin sor -- top "$top_dir")
if [ "$top_one" != "$top_four" ]; then
    echo "FAIL sor top dashboard diverges between SOR_THREADS=1 and 4 exports" >&2
    printf '%s\n--- vs ---\n%s\n' "$top_one" "$top_four" >&2
    exit 1
fi
printf '%s\n' "$top_one"
echo "==> sor top dashboard deterministic across SOR_THREADS=1/4"

# Run-archive gates. Both exports above sealed a run.sorar; the two runs
# share a seed, so:
#  1. `sor diff` across them must report zero regressions and exit 0
#     (worker count is provenance, not behaviour);
#  2. `sor query trace` must re-emit the live trace.json byte-for-byte;
#  3. the archived causal tree must reconstruct the dispatch -> commit
#     chain and the rank pass from the sealed blob alone;
#  4. a synthetic 5x upload_commit_p95 degradation injected with
#     `sor degrade` must flip the diff gate to a nonzero exit.
run cargo run --release --offline -p sor --bin sor -- diff "$trace_dir/run.sorar" "$top_dir/run.sorar"
cargo run --release --offline -p sor --bin sor -- query "$trace_dir/run.sorar" trace > "$trace_dir/reexport.json"
if ! cmp -s "$trace_dir/reexport.json" "$trace_dir/trace.json"; then
    echo "FAIL archived trace re-export is not byte-identical to the live trace.json" >&2
    exit 1
fi
echo "==> archived trace re-export byte-identical to live export"
tree_out=$(cargo run --release --offline -p sor --bin sor -- query "$trace_dir/run.sorar" tree handle_message)
for span in server.task_dispatch processor.commit; do
    if ! printf '%s\n' "$tree_out" | grep -q "$span"; then
        echo "FAIL archived causal tree is missing the $span span" >&2
        exit 1
    fi
done
full_tree=$(cargo run --release --offline -p sor --bin sor -- query "$trace_dir/run.sorar" tree)
if ! printf '%s\n' "$full_tree" | grep -q "server.rank"; then
    echo "FAIL archived causal tree is missing the server.rank span" >&2
    exit 1
fi
echo "==> archived causal tree reconstructs dispatch -> commit -> rank"
run cargo run --release --offline -p sor --bin sor -- degrade "$trace_dir/run.sorar" \
    "$trace_dir/degraded.sorar" pipeline.upload_commit_latency_s 5
if cargo run --release --offline -p sor --bin sor -- diff "$trace_dir/run.sorar" "$trace_dir/degraded.sorar"; then
    echo "FAIL sor diff did not flag a synthetic 5x upload_commit_latency_s degradation" >&2
    exit 1
fi
echo "==> diff gate catches an injected 5x latency degradation"

# Durability smoke: a field test crashed twice mid-window must recover
# every acked upload and rank identically to the crash-free run, and
# write-ahead logging must stay under its overhead budget.
smoke_diverged recovery_smoke
run cargo bench --offline -p sor-bench --bench wal_overhead

# Parallel-speedup guard: rank_many over 64 users on 8 workers must beat
# the sequential path by >=1.5x, and a warm rank-cache hit must beat a
# cold rank by >=10x. The thread-scaling check reads the median seq/par8
# ratio of ABBA-paired runs (the last field of the bench's
# par8_speedup line), so drift in the host's speed between two separate
# means cannot decide it. It needs real hardware parallelism, so it is
# skipped on a single-core machine; the cache check always runs.
rank_out=$(cargo bench --offline -p sor-bench --bench rank_scale)
printf '%s\n' "$rank_out"
ns_of() { printf '%s\n' "$rank_out" | awk -v id="$1" '$2 == id { print substr($3, 2) }'; }
cold=$(ns_of rank_scale/cold)
hit=$(ns_of rank_scale/cache_hit)
if [ "$((cold / hit))" -lt 10 ]; then
    echo "FAIL warm cache hit (${hit} ns) is not >=10x faster than cold rank (${cold} ns)" >&2
    exit 1
fi
echo "==> rank cache hit speedup OK (${cold} ns cold vs ${hit} ns hit)"
if [ "$(nproc 2>/dev/null || echo 1)" -gt 1 ]; then
    speedup=$(printf '%s\n' "$rank_out" |
        awk '$2 == "rank_scale/par8_speedup/users=64" { print $NF }')
    if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 1.5) }'; then
        echo "FAIL par8 rank_many is not >=1.5x faster than sequential (median paired ratio ${speedup})" >&2
        exit 1
    fi
    echo "==> rank_many parallel speedup OK (median paired seq/par8 ratio ${speedup})"
else
    echo "==> skipping rank_many speedup guard (single hardware thread)"
fi

# Script-engine speedup guard: a warm-cache VM dispatch skips the
# per-dispatch parse + analyze + compile entirely, so it must beat a
# full tree-walker dispatch by >=3x.
exec_out=$(cargo bench --offline -p sor-bench --bench script_exec)
printf '%s\n' "$exec_out"
exec_ns_of() { printf '%s\n' "$exec_out" | awk -v id="$1" '$2 == id { print substr($3, 2) }'; }
tree=$(exec_ns_of script_exec/tree_walk)
warm=$(exec_ns_of script_exec/vm_warm)
if [ "$((tree / warm))" -lt 3 ]; then
    echo "FAIL warm-cache VM dispatch (${warm} ns) is not >=3x faster than tree-walk dispatch (${tree} ns)" >&2
    exit 1
fi
echo "==> script VM warm-cache speedup OK (${tree} ns tree vs ${warm} ns vm_warm)"

# Churn-replanning guard: incremental CELF re-planning must do at most
# 10% of the full-replan marginal-gain evaluations at n=4096. The
# `*_evals` lines are deterministic work counts, not wall time, so the
# guard is safe on single-core hosts.
churn_out=$(cargo bench --offline -p sor-bench --bench sched_churn)
printf '%s\n' "$churn_out"
churn_ns_of() { printf '%s\n' "$churn_out" | awk -v id="$1" '$2 == id { print substr($3, 2) }'; }
full_evals=$(churn_ns_of sched_churn/full_evals/n=4096)
incr_evals=$(churn_ns_of sched_churn/incr_evals/n=4096)
if [ "$((incr_evals * 10))" -gt "$full_evals" ]; then
    echo "FAIL incremental re-planning (${incr_evals} evals) exceeds 10% of full re-plan (${full_evals} evals) at n=4096" >&2
    exit 1
fi
echo "==> churn guard OK (${incr_evals} incremental vs ${full_evals} full-replan evals at n=4096)"

echo "==> CI OK"
