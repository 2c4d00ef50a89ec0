"""Compare two records of ``run.py``: ``diff.py A.json B.json``.

For every workload × end-to-end metric it applies the metric's bound to the
medians — B may be worse than A by at most that share of A — and prints
``better``, ``same``, ``worse`` or ``unresolved``.  A metric within its bound
whose pass-to-pass spread (quartile distance ÷ median, either side) is wider
than the bound is ``unresolved``, not ``same``.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List

from metrics import END_TO_END, FAILED_SHARE, failed_share


def spread(samples: List[float]) -> float:
    """Quartile distance as a share of the median; 0 below two samples."""
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def samples_of(record: Dict[str, Any], metric: str) -> List[float]:
    if metric == "wall_s":
        return record["wall"]["samples"]
    if metric == "setup_s":
        return [record["setup"]["import_s"] + s for s in record["setup"]["samples"]]
    return []


def value_of(record: Dict[str, Any], metric: str) -> float:
    if metric == FAILED_SHARE.name:
        return failed_share(record)
    return record["metrics"][metric]["value"]


def verdict(base: Dict[str, Any], new: Dict[str, Any], metric) -> str:
    a, b = value_of(base, metric.name), value_of(new, metric.name)
    worse_by = (b - a) if metric.better == "lower" else (a - b)
    allowed = metric.bound * abs(a)
    if worse_by > allowed:
        return "worse"
    if worse_by < -allowed:
        return "better"
    noise = max(spread(samples_of(r, metric.name)) for r in (base, new))
    return "unresolved" if noise > metric.bound > 0 else "same"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> List[List[str]]:
    """Rows of (workload, metric, A, B, change, verdict)."""
    rows = []
    for workload, runs in base["workloads"].items():
        if workload not in new["workloads"]:
            continue
        a, b = runs["untraced"], new["workloads"][workload]["untraced"]
        for metric in END_TO_END + [FAILED_SHARE]:
            va, vb = value_of(a, metric.name), value_of(b, metric.name)
            change = f"{100.0 * (vb - va) / va:+.1f}%" if va else f"{vb - va:+.4f}"
            rows.append([
                workload, metric.name, f"{va:.4f}", f"{vb:.4f}", change,
                verdict(a, b, metric),
            ])
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(args[0]) as fa, open(args[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    for row in rows:
        print(f"{row[0]:14s} {row[1]:13s} {row[2]:>12s} -> {row[3]:>12s} "
              f"{row[4]:>8s}  {row[5]}")
    return 1 if any(row[5] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
