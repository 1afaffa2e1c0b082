#!/usr/bin/env bash
# Paired benchmark runs: a parent revision's benchmark against the working
# tree's, on one workload and seed.
#
#   scripts/pair.sh <parent-rev> <workload> [--seed N] [--pairs N] [--trace]
#
# The parent's benchmark is built in a temporary git worktree under
# target/pair/ (removed on exit), the change's from the working tree. Each
# pair runs both sides with `--seconds 15 --trace 0`, alternating which side
# goes first. Every result line is appended to
# target/pair/<workload>-s<seed>.jsonl, tagged with its side and pair number.
# With --trace the runs use `--trace 1` instead, their lines go to
# target/pair/<workload>-s<seed>-trace.jsonl, and the per-layer metrics of
# BENCHMARK.json are judged the same way as the end-to-end ones (a traced
# run prints only per-layer metrics).
# At the end, for each end-to-end metric in BENCHMARK.json: the parent's and
# the change's median and quartiles, the change/parent ratio of medians, how
# far apart the medians are in units of the parent's interquartile range,
# and the pairs the change won ("better" as BENCHMARK.json declares it).
# Then the totals of `correct` runs and `failed` operations per side.
#
# Needs bash, awk, git and cargo; run from anywhere inside the repository.
set -euo pipefail

usage() {
    echo "usage: scripts/pair.sh <parent-rev> <workload> [--seed N] [--pairs N] [--trace]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
rev=$1
workload=$2
shift 2
seed=7
pairs=10
trace=0
while [ $# -gt 0 ]; do
    case $1 in
    --seed) [ $# -ge 2 ] || usage; seed=$2; shift 2 ;;
    --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    --trace) trace=1; shift ;;
    *) usage ;;
    esac
done

root=$(git rev-parse --show-toplevel)
cd "$root"
out=target/pair
mkdir -p "$out"
tree=$out/parent-$$
log=$out/$workload-s$seed.jsonl
if ((trace)); then log=$out/$workload-s$seed-trace.jsonl; fi
runs=$out/runs-$$.jsonl

cleanup() {
    rm -f "$runs"
    git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
    git worktree prune
}
trap cleanup EXIT

git worktree add --quiet --detach "$tree" "$rev"
echo "building the benchmark at $rev and in the working tree..." >&2
cargo build --release --quiet --manifest-path "$tree/benchmark/Cargo.toml"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
parent_bin=$tree/benchmark/target/release/tapo-benchmark
change_bin=benchmark/target/release/tapo-benchmark

run() { # run <side> <pair>
    local bin line
    if [ "$1" = parent ]; then bin=$parent_bin; else bin=$change_bin; fi
    # A failed output check exits non-zero but still prints its result line.
    line=$("$bin" --workload "$workload" --seed "$seed" --seconds 15 --trace "$trace" | tail -n 1) || true
    case $line in
    '{'*) ;;
    *) echo "$1 run of pair $2 printed no result line" >&2; exit 1 ;;
    esac
    line="{\"side\":\"$1\",\"pair\":$2,${line#\{}"
    echo "$line" >> "$log"
    echo "$line" >> "$runs"
    echo "pair $2 $1: $line" >&2
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$i"; run change "$i"
    else
        run change "$i"; run parent "$i"
    fi
done

sections=end_to_end
if ((trace)); then sections="end_to_end per_layer"; fi
echo "$workload, seed $seed, $pairs pairs$( ((trace)) && echo ', traced'): $rev against the working tree"
awk -v sections="$sections" '
# Pass 1: BENCHMARK.json, joined and stripped of blanks, gives the metric
# names of each section in `sections` and their "better" direction, in
# file order.
FNR == NR { spec = spec $0; next }
FNR == 1 {
    gsub(/[ \t\r]/, "", spec)
    ns = split(sections, section, " ")
    for (s = 1; s <= ns; s++) {
        list = substr(spec, index(spec, "\"" section[s] "\":["))
        list = substr(list, 1, index(list, "]"))
        n = split(list, entries, "}")
        for (i = 1; i <= n; i++) {
            name = field(entries[i], "name")
            if (name != "") { metric[++nm] = name; better[name] = field(entries[i], "better") }
        }
    }
}
# Pass 2: the result lines of this invocation.
{
    side = field($0, "side")
    pair = $0; sub(/.*"pair":/, "", pair); sub(/,.*/, "", pair)
    runs[side]++
    if (index($0, "\"correct\":true")) correct[side]++
    f = $0; sub(/.*"failed":/, "", f); sub(/[,}].*/, "", f)
    failed[side] += f
    for (m = 1; m <= nm; m++) {
        v = $0
        key = "\"" metric[m] "\":{\"value\":"
        if (!index(v, key)) continue
        v = substr(v, index(v, key) + length(key)); sub(/[,}].*/, "", v)
        val[side, metric[m], pair] = v + 0
        seen[side, metric[m], pair] = 1
    }
    if (pair + 0 > maxpair) maxpair = pair + 0
}
END {
    printf "%-36s %-34s %-34s %7s %8s %6s\n", "metric", "parent median [q1, q3]", \
        "change median [q1, q3]", "ratio", "gap/IQR", "won"
    for (m = 1; m <= nm; m++) {
        name = metric[m]
        np = collect("parent", name, pv); nc = collect("change", name, cv)
        if (np == 0 || nc == 0) continue
        won = 0; both = 0
        for (p = 1; p <= maxpair; p++) {
            if (!seen["parent", name, p] || !seen["change", name, p]) continue
            both++
            a = val["parent", name, p]; b = val["change", name, p]
            if ((better[name] == "lower" && b < a) || (better[name] == "higher" && b > a)) won++
        }
        pm = quantile(pv, np, 0.5); cm = quantile(cv, nc, 0.5)
        iqr = quantile(pv, np, 0.75) - quantile(pv, np, 0.25)
        gap = cm - pm; if (gap < 0) gap = -gap
        printf "%-36s %-34s %-34s %7s %8s %6s\n", name, \
            sprintf("%.6g [%.6g, %.6g]", pm, quantile(pv, np, 0.25), quantile(pv, np, 0.75)), \
            sprintf("%.6g [%.6g, %.6g]", cm, quantile(cv, nc, 0.25), quantile(cv, nc, 0.75)), \
            (pm != 0 ? sprintf("%.3f", cm / pm) : "-"), \
            (iqr > 0 ? sprintf("%.2f", gap / iqr) : "-"), won "/" both
    }
    for (s = 1; s <= 2; s++) {
        side = s == 1 ? "parent" : "change"
        printf "%s: %d of %d runs correct, %d failed\n", side, correct[side], runs[side], failed[side]
    }
}
# The string value of "key" in a flat JSON fragment, or "".
function field(text, key,    at) {
    at = index(text, "\"" key "\":\"")
    if (!at) return ""
    text = substr(text, at + length(key) + 4)
    return substr(text, 1, index(text, "\"") - 1)
}
# Sorted values of one side and metric into out[1..n]; returns n.
function collect(side, name, out,    p, n, i, j, t) {
    n = 0
    for (p = 1; p <= maxpair; p++)
        if (seen[side, name, p]) out[++n] = val[side, name, p]
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
    return n
}
# Linear-interpolated quantile of sorted x[1..n].
function quantile(x, n, q,    h, lo) {
    h = 1 + (n - 1) * q
    lo = int(h)
    return lo >= n ? x[n] : x[lo] + (h - lo) * (x[lo + 1] - x[lo])
}
' BENCHMARK.json "$runs"
