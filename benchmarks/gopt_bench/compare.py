"""``--compare A.json B.json``: one row per (workload, end-to-end metric).

A is the baseline, B the candidate.  A metric *regressed* when B's median is
worse than A's by more than the bound fixed in BENCHMARK.json; when either
side's run-to-run spread (interquartile range / median over ``--repeat``
runs) exceeds the bound the row is *unresolved*, not *ok*.  Count metrics
must repeat exactly and compare with ``==``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Sequence


def _values(summary: Dict[str, object], workload: str, metric: str) -> List[float]:
    entry = summary["workloads"].get(workload, {})
    repeats = entry.get("repeats", {}).get(metric)
    if repeats:
        return list(repeats)
    result = entry.get("end_to_end")
    if result is None or metric not in result["metrics"]:
        return []
    return [result["metrics"][metric]["value"]]


def _spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median; None under four runs."""
    if len(values) < 4:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(path_a: str, path_b: str, end_to_end: List[Dict[str, object]]) -> int:
    with open(path_a) as handle:
        summary_a = json.load(handle)
    with open(path_b) as handle:
        summary_b = json.load(handle)
    print("%-18s %-20s %14s %14s %9s %7s  %s"
          % ("workload", "metric", "A", "B", "diff", "bound", "verdict"))
    regressed = 0
    for workload in summary_a["workloads"]:
        for metric in end_to_end:
            name = metric["name"]
            a = _values(summary_a, workload, name)
            b = _values(summary_b, workload, name)
            if not a or not b:
                print("%-18s %-20s missing on one side" % (workload, name))
                regressed += 1
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = (median_b - median_a) / median_a
            worse = difference if metric["better"] == "lower" else -difference
            if metric["unit"] == "count":
                verdict = ("ok" if median_a == median_b else
                           "regressed" if worse > 0 else "ok (changed, not worse)")
            else:
                spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
                if spreads and max(spreads) > metric["bound"]:
                    verdict = "unresolved(spread %.1f%%>bound)" % (100 * max(spreads))
                elif worse > metric["bound"]:
                    verdict = "regressed"
                else:
                    verdict = "ok" if spreads else "ok (single run, spread unknown)"
            if verdict == "regressed":
                regressed += 1
            print("%-18s %-20s %14.4f %14.4f %+8.1f%% %6.1f%%  %s"
                  % (workload, name, median_a, median_b, 100 * difference,
                     100 * metric["bound"], verdict))
    print("%d regressed" % regressed)
    return 1 if regressed else 0
