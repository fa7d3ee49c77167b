#!/usr/bin/env sh
# Paired benchmark runs: the working tree ("change") against a parent
# revision, through the `sorbench` command line only.
#
# The parent is exported with `git archive` into target/bench_pairs/
# (the repository's .git is only read), and both `sorbench` binaries are
# built in release mode from their own trees. Then, per workload and
# seed, PAIRS pairs of `sorbench run --trace 0` runs alternate which
# side goes first: the first pair of each workload runs the parent
# first, the next the change first, and so on.
#
# Per workload it prints, for every metric sorbench reports, each side's
# median and quartiles over the pairs, the parent's relative IQR
# ((q3 - q1) / median) and how many pairs the change won: lower wins,
# except for rates (units ending in "/s"), where higher wins, and ties
# count for neither side. It then reports, per seed, whether the two
# sides' output digests are equal, plus each side's `failed` operations
# and non-zero exits.
#
# Usage: scripts/bench_pairs.sh [-p REV] [-n PAIRS] [-w WORKLOADS] [-s SECONDS] SEED...
#   -p REV        parent revision (default HEAD)
#   -n PAIRS      pairs per workload and seed (default 1)
#   -w WORKLOADS  space-separated workload names
#                 (default "rank_storm admission_churn trail_collection")
#   -s SECONDS    sorbench --seconds (default 20, as BENCHMARK.json runs it)
#
# Example: ten rank_storm pairs at seeds 301-310
#   scripts/bench_pairs.sh -w rank_storm 301 302 303 304 305 306 307 308 309 310
set -eu

cd "$(dirname "$0")/.."

usage() {
    sed -n '/^# Usage:/,/^#   -s /p' "$0" >&2
    exit 2
}
rev=HEAD
pairs=1
workloads="rank_storm admission_churn trail_collection"
seconds=20
while getopts p:n:w:s: opt; do
    case $opt in
        p) rev=$OPTARG ;;
        n) pairs=$OPTARG ;;
        w) workloads=$OPTARG ;;
        s) seconds=$OPTARG ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -gt 0 ] || usage

sha=$(git rev-parse --verify "$rev^{commit}")
root=$(pwd)/target/bench_pairs
parent_tree=$root/parent-$sha
if [ ! -d "$parent_tree" ]; then
    echo "==> exporting $rev ($sha) into $parent_tree" >&2
    mkdir -p "$parent_tree.tmp"
    git archive --format=tar "$sha" | tar -x -C "$parent_tree.tmp"
    mv "$parent_tree.tmp" "$parent_tree"
fi

# Each tree builds into its own default target dir (sorbench/target), so
# the two binaries never share build state.
for tree in "$parent_tree" .; do
    echo "==> building sorbench in $tree" >&2
    env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        --manifest-path "$tree/sorbench/Cargo.toml"
done
work=$root/runs-$(date -u +%Y%m%dT%H%M%SZ)
mkdir -p "$work"
cp "$parent_tree/sorbench/target/release/sorbench" "$work/parent"
cp sorbench/target/release/sorbench "$work/change"
change_desc="$(git rev-parse --short HEAD) working tree"
if [ -n "$(git status --porcelain)" ]; then
    change_desc="$change_desc, with uncommitted changes"
fi
echo "==> parent $sha, change: $change_desc; outputs in $work" >&2

tsv=$work/results.tsv
: > "$tsv"
for w in $workloads; do
    k=0
    for seed in "$@"; do
        i=0
        while [ "$i" -lt "$pairs" ]; do
            if [ $((k % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
            for side in $order; do
                out=$work/$w.$seed.$k.$side.out
                tree=.
                [ "$side" = parent ] && tree=$parent_tree
                echo "==> $w seed $seed pair $k: $side" >&2
                status=0
                (cd "$tree" && "$work/$side" run --workload "$w" --seed "$seed" \
                    --seconds "$seconds" --trace 0) > "$out" 2>&1 || status=$?
                awk -v w="$w" -v side="$side" -v pair="$k" -v seed="$seed" -v status="$status" '
                    $1 == "metric" { print w, side, pair, seed, "metric", $2, $3, $4 }
                    $1 == "output_digest" { print w, side, pair, seed, "digest", $3 }
                    /^\{"correct"/ && match($0, /"failed": [0-9]+/) {
                        print w, side, pair, seed, "failed", substr($0, RSTART + 10, RLENGTH - 10)
                    }
                    END { print w, side, pair, seed, "status", status }
                ' "$out" >> "$tsv"
            done
            k=$((k + 1))
            i=$((i + 1))
        done
    done
done

awk '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# Linear interpolation between closest ranks of the sorted a[1..n].
function quantile(a, n, q,    h, lo) {
    h = 1 + (n - 1) * q
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{
    w = $1
    if (!(w in seen_w)) { seen_w[w] = 1; ws[++nw] = w }
    if ($3 + 1 > npairs[w]) npairs[w] = $3 + 1
    if (!((w, $4) in seen_s)) { seen_s[w, $4] = 1; seeds[w, ++ns[w]] = $4 }
}
$5 == "metric" && $7 != "null" {
    if (!((w, $6) in seen_m)) { seen_m[w, $6] = 1; names[w, ++nm[w]] = $6; unit[w, $6] = $8 }
    val[w, $2, $6, $3] = $7
}
$5 == "digest" {
    if (!((w, $2, $4) in dig)) dig[w, $2, $4] = $6
    else if (dig[w, $2, $4] != $6) unstable[w, $2, $4] = 1
}
$5 == "failed" { failed[w, $2] += $6 }
$5 == "status" && $6 != 0 { bad[w, $2]++ }
END {
    for (x = 1; x <= nw; x++) {
        w = ws[x]
        printf "\n== %s: %d pairs\n", w, npairs[w]
        printf "%-28s %-6s %-34s %-34s %8s %6s\n", "metric", "unit", "parent median [q1, q3]",
            "change median [q1, q3]", "p_riqr", "won"
        for (m = 1; m <= nm[w]; m++) {
            name = names[w, m]
            n = 0; won = 0
            for (p = 0; p < npairs[w]; p++) {
                if (!((w, "parent", name, p) in val) || !((w, "change", name, p) in val)) continue
                a = val[w, "parent", name, p] + 0; b = val[w, "change", name, p] + 0
                n++; pv[n] = a; cv[n] = b
                if (unit[w, name] ~ /\/s$/ ? b > a : b < a) won++
            }
            if (n == 0) continue
            sort(pv, n); sort(cv, n)
            pm = quantile(pv, n, 0.5)
            riqr = pm != 0 ? sprintf("%.1f%%", 100 * (quantile(pv, n, 0.75) - quantile(pv, n, 0.25)) / pm) : "-"
            printf "%-28s %-6s %-34s %-34s %8s %6s\n", name, unit[w, name],
                sprintf("%.4g [%.4g, %.4g]", pm, quantile(pv, n, 0.25), quantile(pv, n, 0.75)),
                sprintf("%.4g [%.4g, %.4g]", quantile(cv, n, 0.5), quantile(cv, n, 0.25), quantile(cv, n, 0.75)),
                riqr, won "/" n
        }
        for (s = 1; s <= ns[w]; s++) {
            seed = seeds[w, s]
            d0 = dig[w, "parent", seed]; d1 = dig[w, "change", seed]
            verdict = d0 == d1 && d0 != "" ? "equal" : "DIFFER"
            if ((w, "parent", seed) in unstable || (w, "change", seed) in unstable) verdict = "UNSTABLE"
            printf "digest seed %s: %s (parent %s, change %s)\n", seed, verdict, d0, d1
        }
        printf "failed: parent %d, change %d; non-zero exits: parent %d, change %d\n",
            failed[w, "parent"], failed[w, "change"], bad[w, "parent"], bad[w, "change"]
    }
}
' "$tsv"
