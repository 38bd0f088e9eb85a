"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the result files that bench/run.py writes to
.bench_work/results/ (``<workload>-seed<n>-trace<t>.json``). For every
workload and metric found in both sets this prints each side's median and
quartile spread (as a share of the median), the change of the median, and in
how many seed-matched pairs the second set was better.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace): {seed: metrics}} from one directory of results."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-seed*-trace*.json")):
        with open(path) as f:
            doc = json.load(f)
        env = doc["report"]["environment"]
        key = (env["workload"], env["mode"])
        runs.setdefault(key, {})[env["seed"]] = doc["result"]["metrics"]
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(argv[0]), load(argv[1])
    print(f"{'workload':<9} {'mode':<9} {'metric':<26} {'before':>11} "
          f"{'spread':>7} {'after':>11} {'spread':>7} {'change':>8} wins")
    for key in sorted(set(before) & set(after)):
        a, b = before[key], after[key]
        seeds = sorted(set(a) & set(b))
        for metric in sorted(set(a[seeds[0]]) & set(b[seeds[0]])) if seeds else ():
            va = [a[s][metric]["value"] for s in seeds]
            vb = [b[s][metric]["value"] for s in seeds]
            (ma, sa), (mb, sb) = summary(va), summary(vb)
            sign = 1 if better.get(metric) == "higher" else -1
            wins = sum(1 for x, y in zip(va, vb) if sign * (y - x) > 0)
            change = (mb - ma) / ma if ma else float("nan")
            print(f"{key[0]:<9} {key[1]:<9} {metric:<26} {ma:11.4g} {sa:7.1%} "
                  f"{mb:11.4g} {sb:7.1%} {change:+8.1%} {wins}/{len(seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
