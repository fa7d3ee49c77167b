#!/usr/bin/env sh
# Runs the pipeline-level benches and writes BENCH_pipeline.json at the
# repo root: one median-ish ns figure per bench id (the vendored
# criterion stub reports a mean over 20 iterations), plus the worker
# count, hardware core count, and git revision the numbers came from.
# Each run also appends the same record as one JSON line to
# results/bench_history.jsonl, keyed by git SHA, so the perf trajectory
# accumulates across PRs instead of being overwritten.
#
# Usage: scripts/bench.sh
#   SOR_THREADS=8 scripts/bench.sh   # pin the recorded worker count
set -eu

cd "$(dirname "$0")/.."

rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
cores=$(nproc 2>/dev/null || echo 1)
threads=${SOR_THREADS:-$cores}
# History schema: bump when the line format changes incompatibly.
# `sor diff --against` only baselines across entries with equal
# schema_version/host/threads/cores/skew, so cross-host (or
# cross-schema) comparisons are skipped instead of mis-flagged.
schema_version=2
host=$(uname -sm 2>/dev/null | tr ' ' '-' || echo unknown)
# On a single hardware thread the par8 figures measure scheduling
# overhead, not parallelism, so par8 ~= seq is expected; annotate the
# record so cross-host comparisons don't read that as a regression.
if [ "$cores" -eq 1 ]; then
    note="single-core host: par8 figures approximate seq (no hardware parallelism)"
    skew=true
else
    note=""
    skew=false
fi
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

for bench in pipeline rank_scale script_analysis script_exec obs_scale sched_churn proto store; do
    echo "==> cargo bench --offline -p sor-bench --bench $bench" >&2
    cargo bench --offline -p sor-bench --bench "$bench" | tee -a "$raw" >&2
done

# Stub criterion lines look like:
#   bench rank_scale/seq/users=64    ~45815770 ns/iter (stub criterion, 20 iters)
awk -v rev="$rev" -v threads="$threads" -v cores="$cores" -v note="$note" '
BEGIN {
    printf "{\n  \"git_rev\": \"%s\",\n  \"threads\": %s,\n  \"cores\": %s,\n", rev, threads, cores
    if (note != "") printf "  \"note\": \"%s\",\n", note
    printf "  \"benches\": {\n"
}
/^bench .*ns\/iter/ {
    if (n++) printf ",\n"
    printf "    \"%s\": %s", $2, substr($3, 2)
}
END { printf "\n  }\n}\n" }
' "$raw" > BENCH_pipeline.json

echo "==> wrote BENCH_pipeline.json ($(grep -c ':' BENCH_pipeline.json) lines)"
cat BENCH_pipeline.json

# Append the run to the cross-PR history as a single JSON line. The full
# (non-short) SHA is the key; stamp is wall-clock so reruns at the same
# revision stay distinguishable.
mkdir -p results
sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)
awk -v sha="$sha" -v stamp="$stamp" -v threads="$threads" -v cores="$cores" -v note="$note" \
    -v schema="$schema_version" -v host="$host" -v skew="$skew" '
BEGIN {
    printf "{\"git_sha\": \"%s\", \"recorded_at\": \"%s\", \"schema_version\": %s, \"host\": \"%s\", \"threads\": %s, \"cores\": %s, \"single_core_skew\": %s, ", sha, stamp, schema, host, threads, cores, skew
    if (note != "") printf "\"note\": \"%s\", ", note
    printf "\"benches\": {"
}
/^bench .*ns\/iter/ {
    if (n++) printf ", "
    printf "\"%s\": %s", $2, substr($3, 2)
}
END { printf "}}\n" }
' "$raw" >> results/bench_history.jsonl
echo "==> appended run $sha to results/bench_history.jsonl ($(wc -l < results/bench_history.jsonl) total)"
