"""Diff a fresh benchmark JSON against the committed baseline.

The benchmarks write what they measure to the git-ignored ``out/`` directory
beside this file (``conftest.write_result``); the ``BENCH_<profile>.json``
committed here are the baselines, which a run never touches.  With no paths
given the gate diffs the two files of ``--profile``.

The serving-throughput benchmarks emit deterministic *work counters* (UDF
evaluations, solver calls, group-index builds, bulk vs per-row UDF API
calls, warm/cold amortisation ratio, plan-cache hit rate) alongside noisy
wall-clock numbers.  This script compares only the counters, with a
relative tolerance, and exits non-zero when any counter regressed beyond
it — the ``bench-regression`` CI job runs it against the baselines
committed in the repository so solver, caching or vectorisation changes
cannot silently degrade the serving path.

Seven profiles select which counters are gated:

* ``serving`` (default) — the cold/warm trace replay of
  ``BENCH_serving.json``;
* ``coldpath`` — the ~25k-row cold scaling point of
  ``BENCH_coldpath.json``;
* ``scale`` — the 1M-row sharded/multi-core point of ``BENCH_scale.json``:
  the label-column and python-callable workloads replayed serial vs thread
  vs process pool, whose parity deltas (backend-vs-serial work counters and
  row-id mismatches) are committed as zero and therefore gated at *exactly*
  zero (any non-zero delta is an unbounded relative drift);
* ``update`` — the 1M-row incremental-ingest point of ``BENCH_update.json``
  (1% append to a warm table): refresh-path UDF/solver work must stay
  delta-proportional and ``group_index_builds`` stays at exactly zero;
* ``traffic`` — the ≥1000-concurrent-client asyncio point of
  ``BENCH_traffic.json``: warm-path work counters are deterministic by
  construction (``free_memoized=False``) and the shedding audit's
  ``accounting_delta`` is committed as 0 — every ``Overloaded`` raise must
  be counted, never silent.  Queries/sec and latency stay informational;
* ``restart`` — the 1M-row durable warm-restart point of
  ``BENCH_restart.json``: the first post-restart request must be a
  restored warm hit (``plan_restored`` pinned at 1) with every work and
  corruption counter (``udf_evaluations``, ``solver_calls``,
  ``row_ids_mismatch``, ``restore_errors``, ``rebuilds``,
  ``checksum_failures``) committed as zero and therefore gated at
  *exactly* zero — as is ``recheckpoint.unchanged_segments_written``: an
  unchanged re-checkpoint writes no segment.  The restart speedup and
  persist time are wall-clock and stay informational;
* ``outofcore`` — the bounded-memory point of ``BENCH_outofcore.json``:
  a durable table ~4x the residency budget served lazily.  Every
  ``parity.*`` counter (row-id mismatches and absolute work-counter
  deltas between the bounded and unbounded runs) is committed as zero
  and gated at *exactly* zero, and ``bounded.evictions`` is committed
  above zero so a run that stopped exercising eviction pressure fails
  the gate.  Peak RSS and peak resident bytes are informational.

Counters that *improved* beyond the tolerance do not fail the build, but are
reported loudly: a drifted baseline hides future regressions, so the
benchmark should be re-run and the baseline JSON re-committed.

A second, *informational* key class (``latency_p50_ms`` / ``latency_p99_ms``
from the serving layer's always-on histograms, plus anything passed via
repeated ``--informational`` flags) is printed in the diff for context but
never gates: latency is wall-clock and drifts with runner load.

Usage::

    python benchmarks/compare_bench.py --profile serving --tolerance 0.15

which is short for::

    python benchmarks/compare_bench.py \
        --baseline benchmarks/BENCH_serving.json \
        --fresh benchmarks/out/BENCH_serving.json \
        --tolerance 0.15 \
        --profile serving
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

#: Committed baselines live beside this script; fresh results in ``out/``.
BASELINE_DIR = Path(__file__).resolve().parent
OUT_DIR = BASELINE_DIR / "out"

#: ``(json path, lower_is_better)`` for every gated counter, per profile.
#: Wall-clock fields (seconds, queries_per_second) are deliberately absent:
#: they vary with runner load and would make the gate flaky.  The
#: ``group_index_builds`` / ``udf_*_calls`` counters are the cold-path
#: vectorisation gate: index builds must stay amortised by the shared table
#: cache and UDF work must stay batched (per-row API calls pinned at 0).
GATED_COUNTERS: Tuple[Tuple[str, bool], ...] = (
    ("cold.udf_evaluations", True),
    ("cold.solver_calls", True),
    ("cold.group_index_builds", True),
    ("cold.udf_bulk_calls", True),
    ("cold.udf_row_calls", True),
    ("warm.udf_evaluations", True),
    ("warm.solver_calls", True),
    ("warm.work", True),
    ("warm.group_index_builds", True),
    ("warm.udf_row_calls", True),
    ("work_ratio_cold_over_warm", False),
    ("warm.plan_cache.hit_rate", False),
)

COLDPATH_COUNTERS: Tuple[Tuple[str, bool], ...] = (
    ("rows", False),
    ("cold.udf_evaluations", True),
    ("cold.solver_calls", True),
    ("cold.group_index_builds", True),
    ("cold.udf_bulk_calls", True),
    ("cold.udf_row_calls", True),
)

#: The scale profile pins the sharded/parallel engine to the unsharded one:
#: the ``parity.*_abs_delta`` counters are absolute sharded-vs-unsharded
#: differences, committed as 0 — any non-zero fresh value is an unbounded
#: relative drift, so the ±tolerance gate degenerates to an exact ±0 gate.
SCALE_COUNTERS: Tuple[Tuple[str, bool], ...] = (
    ("rows", False),
    ("shards", False),
    ("workers", False),
    ("serial.udf_evaluations", True),
    ("serial.solver_calls", True),
    ("serial.udf_row_calls", True),
    ("python_udf.serial.udf_evaluations", True),
    ("python_udf.serial.solver_calls", True),
    ("parity.udf_evaluations_abs_delta", True),
    ("parity.solver_calls_abs_delta", True),
    ("parity.row_ids_mismatch", True),
    ("parity.thread_python_udf_evaluations_abs_delta", True),
    ("parity.thread_python_solver_calls_abs_delta", True),
    ("parity.thread_python_row_ids_mismatch", True),
    ("parity.process_udf_evaluations_abs_delta", True),
    ("parity.process_solver_calls_abs_delta", True),
    ("parity.process_row_ids_mismatch", True),
    ("parity.workload_row_ids_mismatch", True),
)

#: The update profile gates the incremental-ingest economics: the refresh
#: path's UDF evaluations and solver calls must stay delta-proportional
#: (appended_rows bounds them in-test), ``plan_refreshes`` pins that the
#: serving layer actually took the refresh path, and ``group_index_builds``
#: is committed as 0 — any from-scratch refactorisation during a
#: steady-state append is an unbounded relative drift from that zero.
UPDATE_COUNTERS: Tuple[Tuple[str, bool], ...] = (
    ("rows", False),
    ("appended_rows", True),
    ("warm.udf_evaluations", True),
    ("refresh.udf_evaluations", True),
    ("refresh.charged_evaluations", True),
    ("refresh.solver_calls", True),
    ("refresh.plan_refreshes", False),
    ("refresh.group_index_builds", True),
    ("cold.udf_evaluations", True),
)

#: The traffic profile gates the asyncio front-end's economics: with
#: ``free_memoized=False`` every warm execution's charged work is a pure
#: function of (plan, seed), so the herd's summed counters are exact, and
#: the shedding audit's ``accounting_delta`` (Overloaded raises minus the
#: ``shed`` counter) is committed as 0 — gated at exactly ±0, shedding can
#: never go silent.  The deadline audit (PR 8) is gated the same way:
#: every parked-past-deadline request raises the typed ``DeadlineExceeded``
#: and lands on the ``deadline_exceeded`` counter, so
#: ``deadline.accounting_delta`` and ``deadline.unexpected`` are committed
#: as 0 and gated at exactly ±0.  Latency and q/s stay informational:
#: wall-clock only.
TRAFFIC_COUNTERS: Tuple[Tuple[str, bool], ...] = (
    ("rows", False),
    ("clients", False),
    ("signatures", False),
    ("work.queries", False),
    ("work.plan_hits", False),
    ("work.solver_calls", True),
    ("work.udf_evaluations", True),
    ("work.shed", True),
    ("shed.fired", False),
    ("shed.shed_count", True),
    ("shed.silent_drops", True),
    ("shed.accounting_delta", True),
    ("deadline.fired", False),
    ("deadline.exceeded_count", False),
    ("deadline.unexpected", True),
    ("deadline.accounting_delta", True),
)

#: The restart profile gates the durable warm-restart contract: zero UDF
#: evaluations, zero solver calls, bitwise-identical row ids and a clean
#: recovery path (no restore errors, rebuilds or checksum failures) are
#: all committed as 0, so any non-zero fresh value is an unbounded
#: relative drift and the ±tolerance gate degenerates to exact ±0.  The
#: cold side's counters pin what a from-scratch rebuild costs — if they
#: collapse, the speedup claim is measuring the wrong thing.  The
#: ``recheckpoint.*`` pair holds the checkpoint's write set: closing a
#: reopened, untouched service writes no segment (committed as 0, so ±0),
#: and a 1% append costs the columns of the shards it touched.
RESTART_COUNTERS: Tuple[Tuple[str, bool], ...] = (
    ("rows", False),
    ("shards", False),
    ("windows", False),
    ("restored.plan_restored", False),
    ("restored.udf_evaluations", True),
    ("restored.charged_evaluations", True),
    ("restored.solver_calls", True),
    ("restored.row_ids_mismatch", True),
    ("restored.restore_errors", True),
    ("restored.rebuilds", True),
    ("restored.checksum_failures", True),
    ("restored.segments_loaded", True),
    ("cold.udf_evaluations", True),
    ("cold.solver_calls", True),
    ("recheckpoint.unchanged_segments_written", True),
    ("recheckpoint.after_append_segments_written", True),
)

#: The outofcore profile gates the bounded-memory serving contract: the
#: ``parity.*`` counters are absolute bounded-vs-unbounded differences,
#: committed as 0 — any non-zero fresh value is an unbounded relative
#: drift, so the ±tolerance gate degenerates to an exact ±0 gate — and
#: ``bounded.evictions`` is committed above zero with *higher is better*
#: polarity, so a run whose eviction pressure collapses (the table no
#: longer overflows the budget) regresses the gate instead of silently
#: measuring an in-core workload.
OUTOFCORE_COUNTERS: Tuple[Tuple[str, bool], ...] = (
    ("rows", False),
    ("shards", False),
    ("parity.row_ids_mismatch", True),
    ("parity.udf_evaluations_abs_delta", True),
    ("parity.charged_evaluations_abs_delta", True),
    ("parity.charged_retrieves_abs_delta", True),
    ("parity.solver_calls_abs_delta", True),
    ("unbounded.udf_evaluations", True),
    ("unbounded.solver_calls", True),
    ("bounded.udf_evaluations", True),
    ("bounded.maps", True),
    ("bounded.evictions", False),
)

PROFILES: Dict[str, Tuple[Tuple[str, bool], ...]] = {
    "serving": GATED_COUNTERS,
    "coldpath": COLDPATH_COUNTERS,
    "scale": SCALE_COUNTERS,
    "update": UPDATE_COUNTERS,
    "traffic": TRAFFIC_COUNTERS,
    "restart": RESTART_COUNTERS,
    "outofcore": OUTOFCORE_COUNTERS,
}

#: Keys printed alongside the gate for context but NEVER gated: wall-clock
#: derived numbers (latency percentiles) vary with runner load, so drift in
#: them is expected and informational only.  Extend ad hoc with repeated
#: ``--informational dotted.key`` flags.
INFORMATIONAL_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "serving": (
        "cold.latency_p50_ms",
        "cold.latency_p99_ms",
        "warm.latency_p50_ms",
        "warm.latency_p99_ms",
    ),
    "coldpath": ("cold.latency_p50_ms", "cold.latency_p99_ms"),
    "scale": ("parallel_speedup", "thread_python_speedup", "process_speedup"),
    "update": (),
    "traffic": ("latency.qps", "latency.p50_ms", "latency.p99_ms"),
    "restart": ("restart_speedup", "persist_seconds"),
    "outofcore": (
        "peak_rss_mb",
        "bounded.peak_resident_bytes",
        "bounded.refaults",
        "budget_bytes",
        "segment_bytes",
    ),
}


def _lookup(payload: dict, dotted: str) -> float:
    node = payload
    for part in dotted.split("."):
        node = node[part]
    return float(node)


def _classify(
    baseline: float, fresh: float, lower_is_better: bool, tolerance: float
) -> str:
    """One of ``ok`` / ``regression`` / ``improvement`` for a counter pair."""
    scale = max(abs(baseline), 1e-12)
    drift = (fresh - baseline) / scale
    if abs(drift) <= tolerance:
        return "ok"
    got_worse = drift > 0 if lower_is_better else drift < 0
    return "regression" if got_worse else "improvement"


def compare(
    baseline: dict, fresh: dict, tolerance: float, profile: str = "serving"
) -> Iterator[Tuple[str, float, float, str]]:
    """Yield ``(counter, baseline_value, fresh_value, verdict)`` rows."""
    for dotted, lower_is_better in PROFILES[profile]:
        try:
            base_value = _lookup(baseline, dotted)
            fresh_value = _lookup(fresh, dotted)
        except (KeyError, TypeError):
            # A missing counter means the benchmark schema changed without
            # re-baselining — that is itself a regression of the gate.
            yield dotted, float("nan"), float("nan"), "missing"
            continue
        yield dotted, base_value, fresh_value, _classify(
            base_value, fresh_value, lower_is_better, tolerance
        )


def informational_rows(
    baseline: dict, fresh: dict, profile: str, extra: Tuple[str, ...] = ()
) -> Iterator[Tuple[str, float, float]]:
    """Yield ``(key, baseline_value, fresh_value)`` for ungated context keys.

    Keys absent from either payload yield ``nan`` on that side — older
    baselines predating an informational key must not break the gate.
    """
    seen = set()
    for dotted in INFORMATIONAL_COUNTERS.get(profile, ()) + tuple(extra):
        if dotted in seen:
            continue
        seen.add(dotted)
        try:
            base_value = _lookup(baseline, dotted)
        except (KeyError, TypeError):
            base_value = float("nan")
        try:
            fresh_value = _lookup(fresh, dotted)
        except (KeyError, TypeError):
            fresh_value = float("nan")
        yield dotted, base_value, fresh_value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        help="baseline JSON to gate against (default: the committed "
        "BENCH_<profile>.json beside this script)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        help="freshly generated JSON to gate (default: out/BENCH_<profile>.json, "
        "where the benchmarks write)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative drift per counter (default: 0.15)",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="serving",
        help="which benchmark's counters to gate (default: serving)",
    )
    parser.add_argument(
        "--informational",
        action="append",
        default=[],
        metavar="DOTTED.KEY",
        help="extra JSON key to print in the diff without gating it "
        "(repeatable); latency percentiles are included per profile by "
        "default",
    )
    args = parser.parse_args(argv)

    filename = f"BENCH_{args.profile}.json"
    baseline = json.loads((args.baseline or BASELINE_DIR / filename).read_text())
    fresh = json.loads((args.fresh or OUT_DIR / filename).read_text())

    rows = list(compare(baseline, fresh, args.tolerance, args.profile))
    width = max(len(name) for name, *_ in rows)
    print(
        f"benchmark counter gate "
        f"(profile {args.profile}, tolerance ±{args.tolerance:.0%})"
    )
    for name, base_value, fresh_value, verdict in rows:
        marker = {"ok": " ", "improvement": "+", "regression": "!", "missing": "?"}[
            verdict
        ]
        print(
            f"  {marker} {name:<{width}}  baseline={base_value:<12g} "
            f"fresh={fresh_value:<12g} {verdict}"
        )

    info_rows = list(
        informational_rows(baseline, fresh, args.profile, tuple(args.informational))
    )
    if info_rows:
        print("informational (never gated):")
        info_width = max(len(name) for name, *_ in info_rows)
        for name, base_value, fresh_value in info_rows:
            print(
                f"  i {name:<{info_width}}  baseline={base_value:<12g} "
                f"fresh={fresh_value:<12g}"
            )

    regressions = [row for row in rows if row[-1] in ("regression", "missing")]
    improvements = [name for name, *_rest, verdict in rows if verdict == "improvement"]
    if improvements:
        print(
            "note: counters improved beyond tolerance "
            f"({', '.join(improvements)}); re-run the benchmark and commit the "
            "fresh baseline JSON so the gate keeps gating."
        )
    if regressions:
        # Name each breached counter with its values so the failure is
        # actionable straight from the CI log, without opening the JSONs.
        print(f"FAIL: {len(regressions)} counter(s) regressed (tolerance ±{args.tolerance:.0%}):")
        for name, base_value, fresh_value, verdict in regressions:
            if verdict == "missing":
                print(
                    f"  ! {name}: missing from baseline or fresh payload "
                    "(benchmark schema changed without re-baselining)"
                )
                continue
            if abs(base_value) < 1e-9:
                detail = f"delta {fresh_value - base_value:+g} from a zero baseline"
            else:
                detail = f"drift {(fresh_value - base_value) / abs(base_value):+.1%}"
            print(
                f"  ! {name}: baseline={base_value:g} fresh={fresh_value:g} ({detail})"
            )
        return 1
    print("OK: all gated counters within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
