"""``python -m kgbench.compare A.json B.json`` — did B get worse than A?

A and B are result files of ``python -m kgbench`` (ideally ``--runs 10``
each).  For every (workload, end-to-end metric) this prints both
medians, the relative difference, the metric's bound and a verdict:

``within``      B's median is no worse than A's by more than the bound
``worse``       it is
``better``      B's median is better than A's by more than the bound
``unresolved``  either set's own spread (the distance between its
                quartiles over its median) exceeds the bound, so the
                difference cannot be told from noise

Exit code 1 when any pair is ``worse`` or ``unresolved``.
"""

import json
import statistics
import sys
from collections import defaultdict

from kgbench.metrics import declared


def load(path):
    """``{(workload, metric): [values]}`` over a file's untraced runs."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    values = defaultdict(list)
    for run in payload["runs"]:
        if run["traced"]:
            continue
        for metric, entry in run["metrics"].items():
            values[(run["workload"], metric)].append(entry["value"])
    return values


def spread(values):
    """Interquartile distance over the median; 0 below two values."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(before, after, better, bound):
    """Compare two sets of one metric; returns (difference, verdict)."""
    base = statistics.median(before)
    change = (statistics.median(after) - base) / base
    worsening = change if better == "lower" else -change
    if max(spread(before), spread(after)) > bound:
        return change, "unresolved"
    if worsening > bound:
        return change, "worse"
    if worsening < -bound:
        return change, "better"
    return change, "within"


def compare(before, after):
    rules = {
        row["name"]: (row["better"], row["bound"])
        for row in declared()["end_to_end"]
    }
    rows = []
    for key in sorted(before):
        workload, name = key
        if name not in rules or key not in after:
            continue
        better, bound = rules[name]
        change, outcome = verdict(before[key], after[key], better, bound)
        rows.append((
            workload, name, statistics.median(before[key]),
            statistics.median(after[key]), change, bound, outcome,
            len(before[key]), len(after[key]),
        ))
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':18} {'metric':18} {'A':>12} {'B':>12} "
          f"{'diff':>8} {'bound':>6}  verdict (runs A/B)")
    for workload, name, a, b, change, bound, outcome, n_a, n_b in rows:
        print(f"{workload:18} {name:18} {a:12.5g} {b:12.5g} "
              f"{change:+8.1%} {bound:6.0%}  {outcome} ({n_a}/{n_b})")
    return 1 if any(row[6] in ("worse", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
