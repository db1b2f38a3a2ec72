"""Compare two result sets of the benchmark: a parent and a change.

Usage (from the repository root):

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are ``results.jsonl`` files written by run.py (or
directories holding such files).  Only untraced runs are compared.  For
each workload and end-to-end metric of BENCHMARK.json the report gives
each side's median and quartiles, the pairs the change won (runs paired
by seed, ties counting for neither side) and a verdict:

- improved: at least 10 pairs, the change wins at least 9 in 10 of them,
  and the medians differ by more than the parent's interquartile range;
- within bound: the change's median is no worse than the parent's by
  more than the metric's bound;
- regressed: it is worse by more than the bound;
- unresolved: the parent's own spread (interquartile range over median)
  is wider than the bound, unless every change run reads better than
  every parent run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{workload: {metric: [(seed, value)]}} from untraced result records."""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    out = defaultdict(lambda: defaultdict(list))
    for f in files:
        for line in f.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec["meta"]["trace"]:
                continue
            for name, m in rec["result"]["metrics"].items():
                out[rec["meta"]["workload"]][name].append((rec["meta"]["seed"], m["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pair(parent, change):
    """Runs paired by seed, in the order each side ran them."""
    by_seed = defaultdict(list)
    for seed, v in change:
        by_seed[seed].append(v)
    pairs = []
    for seed, v in parent:
        if by_seed[seed]:
            pairs.append((v, by_seed[seed].pop(0)))
    return pairs


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    p1, pm, p3 = quartiles(pv)
    _, cm, _ = quartiles(cv)
    pairs = pair(parent, change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    scale = abs(pm) or 1.0
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        v = "improved"
    elif (p3 - p1) / scale > bound and not min(sign * c for c in cv) > max(sign * p for p in pv):
        v = "unresolved"
    elif sign * (pm - cm) / scale <= bound:
        v = "within bound"
    else:
        v = "regressed"
    return wins, len(pairs), v


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':12s} {'metric':18s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for workload in sorted(parent.keys() & change.keys()):
        for m in spec["end_to_end"]:
            p, c = parent[workload].get(m["name"]), change[workload].get(m["name"])
            if not p or not c:
                continue
            wins, n, v = verdict(p, c, m["better"], m["bound"])
            pq, cq = quartiles([x for _, x in p]), quartiles([x for _, x in c])
            print(f"{workload:12s} {m['name']:18s} "
                  f"{pq[1]:12.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                  f"{wins:3d}/{n:<3d}  {v} (bound {m['bound']}, {m['unit']}, "
                  f"{m['better']} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
