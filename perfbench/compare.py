"""Summarise one result set, or compare two.

    python3 perfbench/compare.py BASE.jsonl             # spread of each metric
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

A result set is the JSON-lines file that ``run.py --results`` appends to.
For each workload and metric the comparison prints each side's median and
quartiles, the ratio of the medians with its base, the share of pairs the
change won (pairs match runs by seed, ties count for neither side) and a
verdict by this rule:

- improved: the change wins at least 9 in 10 pairs and its median is better
  than the base median by more than the base's quartile distance;
- otherwise, when the base's quartile distance is wider than the metric's
  bound (as a share of its median): no worse if every change run reads better
  than every base run, else unresolved;
- otherwise worse if the change's median is worse than the base median by
  more than the bound, else no worse.

Per-layer metrics have no bound: they read improved, worse (the mirror of
improved) or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, metric): {seed: value}} from a result set, with the units."""
    values = defaultdict(dict)
    units = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                values[(rec["workload"], name)][rec["seed"]] = m["value"]
                units[name] = m["unit"]
    return values, units


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(base, change, pairs, better, bound):
    sign = 1 if better == "higher" else -1
    q1, mb_base, q3 = quartiles(base)
    iqr = q3 - q1
    mb_change = statistics.median(change)
    gain = sign * (mb_change - mb_base)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > iqr:
            return "worse"
        return "unresolved"
    if iqr > bound * abs(mb_base):
        every = all(sign * (b - a) > 0 for a in base for b in change)
        return "no worse" if every else "unresolved"
    return "worse" if -gain > bound * abs(mb_base) else "no worse"


def metric_specs():
    spec = json.loads(BENCHMARK.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def fmt(v):
    return "%.4g" % v


def summarise(path):
    values, units = load(path)
    specs = metric_specs()
    print("%-14s %-34s %5s %10s %10s %10s %8s %8s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound"))
    for (wl, name), by_seed in sorted(values.items()):
        vals = list(by_seed.values())
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        better, bound = specs.get(name, ("lower", None))
        flag = "" if bound is None or spread < bound / 3 else "  <-- spread above bound/3"
        print("%-14s %-34s %5d %10s %10s %10s %8.4f %8s%s" % (
            wl, name, len(vals), fmt(q1), fmt(med), fmt(q3), spread,
            "-" if bound is None else bound, flag))


def compare(base_path, change_path):
    base, units = load(base_path)
    change, _ = load(change_path)
    specs = metric_specs()
    print("%-14s %-34s %-28s %-28s %-24s %-7s %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
        "ratio change/base", "won", "verdict"))
    for key in sorted(set(base) & set(change)):
        wl, name = key
        a, b = base[key], change[key]
        seeds = sorted(set(a) & set(b))
        pairs = [(a[s], b[s]) for s in seeds]
        if not pairs:  # no seed in common: pair runs in order
            pairs = list(zip(a.values(), b.values()))
        better, bound = specs.get(name, ("lower", None))
        sign = 1 if better == "higher" else -1
        wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        print("%-14s %-34s %-28s %-28s %-24s %-7s %s" % (
            wl, name,
            "%s [%s, %s] %s" % (fmt(qa[1]), fmt(qa[0]), fmt(qa[2]), units[name]),
            "%s [%s, %s]" % (fmt(qb[1]), fmt(qb[0]), fmt(qb[2])),
            "%.4f (base %s %s)" % (ratio, fmt(qa[1]), units[name]),
            "%d/%d" % (wins, len(pairs)),
            verdict(list(a.values()), list(b.values()), pairs, better, bound),
        ))


def main(argv):
    if len(argv) == 1:
        summarise(argv[0])
    elif len(argv) == 2:
        compare(*argv)
    else:
        sys.exit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
