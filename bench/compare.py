"""Compare two benchmark result sets: ``python3 bench/compare.py A B``.

``A`` and ``B`` are ``results.json`` files written by ``bench/run.py`` (or the
directories holding them); ``A`` is the parent, ``B`` the change.  For every
workload and end-to-end metric it prints both medians, the change relative
to ``A``'s median, the metric's bound from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is; or the workload or metric is missing on either side
                (a workload that crashed reports nothing, which is not "no
                regression")
``unresolved``  either side has fewer than two runs, or its run-to-run spread
                is wider than the bound, so the comparison cannot tell (run
                more repeats, not a wider bound)

Timings are compared against their bounds.  The numbers that repeat exactly
for one seed are compared exactly when both sets ran the same seed:
``cost_vs_naive`` must be equal (1e-9), ``guarantee_sat_share`` and
``ok_ops_share`` may not drop at all, and the answers digest of each workload
must be the same.  Exits non-zero when any pairing is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Metrics that are a function of the seed alone: name -> may B's value differ
#: from A's in the better direction.
EXACT = {"cost_vs_naive": False, "guarantee_sat_share": True, "ok_ops_share": True}
EXACT_TOLERANCE = 1e-9


def load_results(path: str) -> Dict[str, object]:
    if os.path.isdir(path):
        path = os.path.join(path, "results.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_bounds() -> Dict[str, Dict[str, object]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric for metric in json.load(handle)["end_to_end"]}


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: quartile distance, or the
    full range when there are too few runs for quartiles."""
    median = statistics.median(values)
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / abs(median)
    return (max(values) - min(values)) / abs(median)


def verdict(
    a: Optional[Sequence[float]],
    b: Optional[Sequence[float]],
    better: str,
    bound: float,
    exact: Optional[bool] = None,
) -> Dict[str, object]:
    """Verdict on one workload x metric.

    ``exact`` is ``None`` for a timing; for a number that repeats per seed it
    says whether B may differ from A in the better direction.
    """
    if not a or not b or None in a or None in b:
        return dict.fromkeys(("median_a", "median_b", "change", "spread"), None) | {"status": "worse"}
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worsening = change if better == "lower" else -change
    if exact is not None:
        widest = None
        moved = abs(median_b - median_a) > EXACT_TOLERANCE
        status = "worse" if moved and (worsening > 0 or not exact) else "ok"
    else:
        widest = max(spread(a), spread(b)) if min(len(a), len(b)) >= 2 else None
        if worsening > bound:
            status = "worse"
        elif widest is None or widest > bound:
            status = "unresolved"
        else:
            status = "ok"
    return {
        "median_a": median_a,
        "median_b": median_b,
        "change": change,
        "spread": widest,
        "status": status,
    }


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Dict[str, object]]:
    bounds = load_bounds()
    same_seed = a.get("seed") == b.get("seed")
    rows = []
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        side_a = a["workloads"].get(workload, {})
        side_b = b["workloads"].get(workload, {})
        for name, spec in bounds.items():
            row = verdict(
                side_a.get("end_to_end", {}).get(name),
                side_b.get("end_to_end", {}).get(name),
                spec["better"],
                spec["bound"],
                exact=EXACT.get(name) if same_seed else None,
            )
            row.update(workload=workload, metric=name, unit=spec["unit"], bound=spec["bound"])
            rows.append(row)
        if same_seed:
            digest_a, digest_b = side_a.get("answers_digest"), side_b.get("answers_digest")
            same = bool(digest_a) and digest_a == digest_b and len(digest_a) == 1
            rows.append(
                {
                    "workload": workload,
                    "metric": "answers_digest",
                    "digests": (digest_a, digest_b),
                    "status": "ok" if same else "worse",
                }
            )
    return rows


def _cell(value: Optional[float], width: int, spec: str) -> str:
    return format("-" if value is None else format(value, spec), f">{width}")


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load_results(argv[0]), load_results(argv[1]))
    print(
        f"{'workload':<14} {'metric':<20} {'A median':>12} {'B median':>12} "
        f"{'change vs A':>12} {'spread':>8} {'bound':>7}  verdict"
    )
    for row in rows:
        if row["metric"] == "answers_digest":
            print(f"{row['workload']:<14} {'answers_digest':<20} {row['digests']}  {row['status']}")
            continue
        print(
            f"{row['workload']:<14} {row['metric']:<20} {_cell(row['median_a'], 12, '.5g')} "
            f"{_cell(row['median_b'], 12, '.5g')} {_cell(row['change'], 12, '+.2%')} "
            f"{_cell(row['spread'], 8, '.2%')} {row['bound']:>7.2%}  {row['status']}"
            f"  [{row['unit']}]"
        )
    return 1 if any(row["status"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
