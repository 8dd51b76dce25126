#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 benchmark/spread.py --workload chaos-cuts --seeds 1-10 [--trace 0] [--sets 2]

For every metric it prints the median of the per-seed values and the
distance between their first and third quartiles as a share of that
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
in BENCHMARK.json. With ``--sets N`` every seed is run N times in a row,
one run for each set, so the sets alternate in time; each set's spread is
printed, and how much worse each later set's median is than the first's
(as a share of the first), for the check that two sets of runs of the same
code agree within the bounds. Extra arguments after ``--`` go to the
benchmark.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(spec, workload, seed, trace, extra):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", trace,
    ] + extra
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    lo, hi = (int(x) for x in args.seeds.split("-"))
    extra = [a for a in args.rest if a != "--"]

    sets = [{} for _ in range(args.sets)]
    for seed in range(lo, hi + 1):
        for k, values in enumerate(sets):
            got = run(spec, args.workload, seed, args.trace, extra)
            for name, v in got.items():
                values.setdefault(name, []).append(v)
            print(f"set {k} seed {seed}: " + ", ".join(
                f"{n}={v:.6g}" for n, v in got.items()), flush=True)

    first = {name: statistics.median(vs) for name, vs in sets[0].items()}
    for k, values in enumerate(sets):
        print(f"\nset {k}")
        print(f"{'metric':<28} {'median':>14} {'IQR/median':>11} {'worse':>8} {'bound':>7}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else float("nan")
            m = metrics.get(name, {})
            bound = m.get("bound")
            sign = -1 if m.get("better") == "higher" else 1
            worse = sign * (med - first[name]) / first[name] if first[name] else float("nan")
            flag = "" if bound is None or share < bound / 3 else "  <-- above bound/3"
            if bound is not None and worse > bound:
                flag += "  <-- median worse than bound"
            print(f"{name:<28} {med:>14.6g} {share:>11.4f} {worse:>8.4f} "
                  f"{bound if bound is not None else '-':>7}{flag}")


if __name__ == "__main__":
    main()
