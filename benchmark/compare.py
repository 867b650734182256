#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 benchmark/compare.py A.json B.json

A and B are results files written by benchmark/run.py (each invocation
appends one run, so a file holds a set). For every workload x metric the
script prints each side's median and quartiles and a verdict for B against
A, judged with the bound BENCHMARK.json fixes for the metric:

  better / worse  the medians differ by more than the bound
  unchanged       they differ by less
  unresolved      a side's quartile spread is wider than the bound, unless
                  every run of B reads better than every run of A (better)

Per-layer metrics carry no bound: they read "unchanged" when every value on
both sides is identical, "-" otherwise. Exits 1 when any verdict is "worse".
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """{(workload, metric): [values]} over every run in a results file."""
    values = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        for workload, result in run["workloads"].items():
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault((workload, name), []).append(
                        metric["value"])
    return values


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, better, bound):
    """Verdict for run set b against run set a (lists of values)."""
    if a == b and len(set(a)) == 1:
        return "unchanged"
    if bound is None:
        return "unchanged" if len(set(a + b)) == 1 else "-"
    sign = 1.0 if better == "higher" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    if am == 0:
        gain = 0.0 if bm == 0 else sign * (1.0 if bm > 0 else -1.0)
    else:
        gain = sign * (bm - am) / abs(am)
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound:
        b_wins = all(sign * (y - x) > 0 for x in a for y in b)
        return "better" if b_wins else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "unchanged"


def compare(path_a, path_b, spec):
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load_runs(path_a), load_runs(path_b)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        better, bound = rules.get(name, ("lower", None))
        rows.append((workload, name, quartiles(a[key]), quartiles(b[key]),
                     bound, verdict(a[key], b[key], better, bound)))
    return rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(argv[1], argv[2], json.loads(SPEC.read_text()))
    print(f"{'workload':<14} {'metric':<30} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'bound':>6}  verdict")
    for workload, name, qa, qb, bound, v in rows:
        cell = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        print(f"{workload:<14} {name:<30} {cell(qa):>34} {cell(qb):>34} "
              f"{'-' if bound is None else bound:>6}  {v}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
