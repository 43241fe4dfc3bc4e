"""``python -m bench compare A.json B.json``: apply the bounds, per workload.

For every (end-to-end metric, workload) pair found in both results files,
B's median is compared with A's by the metric's ``BENCHMARK.json`` bound:

* *unresolved* -- the spread between repetitions (interquartile range
  over median) of either side is wider than the bound, unless every B
  sample beats every A sample;
* *regressed* / *improved* -- B is worse / better by more than the bound;
* *unchanged* -- otherwise.

Simulated-time results (``exact``) are compared with a bound of zero:
for one seed they are identical on every host. One row per workload
names its worst verdict; the exit status is 1 on any regression.

Each row also shows the verdict on the raw seconds (``setup_s_raw``,
``run_s_raw``) by the bound of their normalized metric. Raw seconds carry
the host's speed swings, so they do not enter the row's verdict; they
are shown because the host-speed probe shares the process under test,
and a regression that slows the probe too is masked only in the
normalized times.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import load_spec

VERDICT_ORDER = ("regressed", "unresolved", "improved", "unchanged")


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def verdict(
    before: Sequence[float], after: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, relative change of the median, positive = worse)."""
    base = statistics.median(before)
    change = statistics.median(after) - base
    worse = (change if better == "lower" else -change) / abs(base) if base else 0.0
    if better == "lower":
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if max(spread(before), spread(after)) > bound:
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def compare(
    before: Dict[str, Any], after: Dict[str, Any],
    spec: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """One row per workload present in both results documents."""
    spec = spec if spec is not None else load_spec()
    rows = []
    for name, old in before["workloads"].items():
        new = after["workloads"].get(name)
        if new is None:
            continue
        pairs = []
        raw = []
        for metric in spec["end_to_end"]:
            for key, into in ((metric["name"], pairs),
                              (metric["name"] + "_raw", raw)):
                if key in old["samples"] and key in new["samples"]:
                    into.append((key, *verdict(
                        old["samples"][key], new["samples"][key],
                        metric["better"], metric["bound"],
                    )))
        for key, value in old.get("exact", {}).items():
            if key in new.get("exact", {}):
                pairs.append((key, *verdict(
                    [value["value"]], [new["exact"][key]["value"]], "lower", 0.0
                )))
        worst = min(
            (v for _, v, _ in pairs), key=VERDICT_ORDER.index,
            default="unchanged",
        )
        rows.append({"workload": name, "verdict": worst, "metrics": pairs,
                     "raw": raw})
    return rows


def _cells(pairs: List[Tuple[str, str, float]]) -> str:
    return ", ".join(
        f"{key} {v} ({worse * 100:+.1f}%)" for key, v, worse in pairs
    )


def render(rows: List[Dict[str, Any]]) -> str:
    lines = ["workload       verdict     per metric (change of B's median, + = worse)"]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['verdict']:<10}  {_cells(row['metrics'])}"
        )
        if row["raw"]:
            lines.append(f"{'':<26}  raw, not in the verdict: {_cells(row['raw'])}")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m bench compare A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0
