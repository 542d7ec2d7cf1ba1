#!/usr/bin/env python3
"""Compare two sides of paired benchmark runs.

    python3 perfbench/compare.py a-1.json a-2.json ... -- b-1.json b-2.json ...

Each file holds the last line of one ``run.py`` run. Files pair up by
position. For every metric: each side's median and quartiles, the share of
pairs the second side wins (ties count for neither), and the verdict: a gain
needs at least 9/10 wins and a median difference larger than the first
side's interquartile distance; a regression is a median worse by more than
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            lines = f.read().strip().splitlines()
        runs.append(json.loads(lines[-1]))
    return runs


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    cut = argv.index("--")
    a, b = _load(argv[:cut]), _load(argv[cut + 1:])
    if len(a) != len(b) or not a:
        print(f"need the same number of runs on both sides, got {len(a)} and {len(b)}")
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for side, runs in (("first", a), ("second", b)):
        failed = sum(r["failed"] for r in runs)
        print(f"{side}: {len(runs)} runs, {failed} failed of {sum(r['attempted'] for r in runs)}")
    print(f"{'metric':<44} {'first q1/med/q3':>32} {'second q1/med/q3':>32} {'wins':>6}  verdict")
    for name in a[0]["metrics"]:
        m = meta.get(name, {"better": "lower"})
        xa = [r["metrics"][name]["value"] for r in a]
        xb = [r["metrics"][name]["value"] for r in b]
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (vb - va) < 0 for va, vb in zip(xa, xb))
        qa = statistics.quantiles(xa, n=4) if len(xa) > 1 else [xa[0]] * 3
        qb = statistics.quantiles(xb, n=4) if len(xb) > 1 else [xb[0]] * 3
        diff = sign * (statistics.median(xb) - statistics.median(xa))
        verdict = ""
        if wins >= 0.9 * len(xa) and -diff > qa[2] - qa[0]:
            verdict = "gain"
        elif "bound" in m and diff > m["bound"] * abs(statistics.median(xa)):
            verdict = f"REGRESSION (bound {m['bound']:.0%})"
        fa = "/".join(f"{v:.4g}" for v in qa)
        fb = "/".join(f"{v:.4g}" for v in qb)
        print(f"{name:<44} {fa:>32} {fb:>32} {wins:>3}/{len(xa):<2}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
