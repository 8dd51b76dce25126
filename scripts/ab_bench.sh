#!/usr/bin/env bash
# A/B comparison of two built `afraid-benchmark` binaries.
#
# Runs PARENT and CHANGE in N pairs on one workload, alternating which
# of the two runs first in each pair, and prints for every metric the
# median and quartiles of each side, the change/parent ratio of the
# medians, and how many pairs the change won (ties count for neither).
# A metric is flagged "gain" when the change won at least nine tenths
# of the pairs and the medians differ by more than the distance between
# the parent's quartiles; "worse" when the change's median is worse
# than the parent's by more than the metric's bound in BENCHMARK.json.
#
# Usage, from the repository root:
#
#   scripts/ab_bench.sh PARENT_BIN CHANGE_BIN [--workload W] [--pairs N]
#       [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
#
# Build each binary from its own checkout, for example:
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml \
#       --target-dir /tmp/ab-change
#
# Defaults: fault-storm, 10 pairs, seed 42, BENCHMARK.json's run_seconds,
# --trace 0. Every run's result line is appended to --out (default: a
# temporary file, whose path is printed). Both binaries run from copies
# in one temporary directory, under paths of equal length, so the two
# sides start from process images of the same size. Exits 1 if any run
# reports an incorrect result or a failed item.
set -euo pipefail

usage() { sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }

[[ $# -ge 2 ]] || usage
parent=$1 change=$2
shift 2
root=$(cd "$(dirname "$0")/.." && pwd)
workload=fault-storm pairs=10 seed=42 trace=0 out=""
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
while [[ $# -gt 0 ]]; do
    case $1 in
        --workload) workload=$2 ;;
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        --out) out=$2 ;;
        *) usage ;;
    esac
    shift 2
done
for bin in "$parent" "$change"; do
    [[ -x $bin ]] || { echo "not an executable: $bin" >&2; exit 2; }
done
[[ -n $out ]] || out=$(mktemp -t ab_bench.XXXXXX.jsonl)
# The binary's path is part of its process image (argv[0], the auxiliary
# vector), so a shorter path shifts where the stack starts: copy both
# sides to paths of one length.
work=$(mktemp -d -t ab_bench.XXXXXX)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
cp "$parent" "$work/parent/afraid-benchmark"
cp "$change" "$work/change/afraid-benchmark"
parent=$work/parent/afraid-benchmark change=$work/change/afraid-benchmark
echo "ab_bench: $workload, $pairs pairs, seed $seed, ${seconds}s, trace $trace -> $out" >&2

run() { # side pair binary
    local line
    line=$("$3" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)
    printf '{"side": "%s", "pair": %d, "result": %s}\n' "$1" "$2" "$line" >>"$out"
    echo "  pair $2 $1 done" >&2
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run parent "$i" "$parent"
        run change "$i" "$change"
    else
        run change "$i" "$change"
        run parent "$i" "$parent"
    fi
done

python3 - "$root/BENCHMARK.json" "$out" <<'PY'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
runs = {"parent": {}, "change": {}}
ok = True
for line in open(sys.argv[2]):
    rec = json.loads(line)
    res = rec["result"]
    if not res["correct"] or res["failed"]:
        print(f"pair {rec['pair']} {rec['side']}: correct={res['correct']} failed={res['failed']}")
        ok = False
    runs[rec["side"]][rec["pair"]] = {k: v["value"] for k, v in res["metrics"].items()}

pairs = sorted(set(runs["parent"]) & set(runs["change"]))
n = len(pairs)


def quart(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, q2, q3 = statistics.quantiles(vs, n=4)
    return q1, statistics.median(vs), q3


print(f"{n} pairs")
print(f"{'metric':<26} {'parent q1/med/q3':>36} {'change q1/med/q3':>36} {'ratio':>7} {'wins':>6}")
for name in runs["parent"][pairs[0]]:
    p = [runs["parent"][i][name] for i in pairs]
    c = [runs["change"][i][name] for i in pairs]
    lower = meta.get(name, {}).get("better", "lower") == "lower"
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    pq, cq = quart(p), quart(c)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    flag = ""
    if wins * 10 >= 9 * n and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
        flag = "gain"
    bound = meta.get(name, {}).get("bound")
    if bound is not None and pq[1]:
        worse = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)
        if worse > bound:
            flag = "worse"
    fmt = lambda q: f"{q[0]:.5g}/{q[1]:.5g}/{q[2]:.5g}"
    print(f"{name:<26} {fmt(pq):>36} {fmt(cq):>36} {ratio:>7.3f} {wins:>3}/{n:<2} {flag}")
sys.exit(0 if ok else 1)
PY
