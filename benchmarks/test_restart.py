"""Restart point: warm reopen from durable storage versus cold rebuild.

Builds a ~1M-row sharded table behind a :class:`~repro.serving.QueryService`
configured with ``storage_dir``, serves a query cold then warm (same seed
the measurement replays), and shuts the service down — checkpointing the
table into checksummed segments and persisting the warm state (plan-cache
entries, statistics, group-index codes, UDF memo) under the manifest.
Then two restart paths answer the *same previously-served query*:

* **warm restart** — reopen the catalog from the manifest (segments
  validate block CRCs and come back as read-only memmaps), restore the
  warm state, and serve: the first request must report
  ``plan_cache: "restored"`` and execute with **zero** UDF evaluations,
  returning row ids bitwise identical to the pre-shutdown warm run;
* **cold rebuild** — what a system without durable warm state must do:
  re-ingest the source columns into a fresh table and run the entire cold
  pipeline (labelling, column selection, sampling, solve, execution).

Wall-clock uses the suite's A/B discipline: ``WINDOWS`` interleaved,
order-alternating (restore, cold) pairs, and the asserted speedup is the
**median** of the per-window ratios — a single noisy window cannot flake
the gate.  Emits ``out/BENCH_restart.json``; the zero-committed work counters
(``restored.udf_evaluations``, ``restored.solver_calls``,
``restored.row_ids_mismatch``, ``restored.restore_errors``, ...) are gated
at exactly ±0 by ``compare_bench.py --profile restart`` in CI — among them
``recheckpoint.unchanged_segments_written``: closing a reopened service
that appended nothing checkpoints without writing one segment
(``recheckpoint.after_append_segments_written`` pins what a 1% append
then costs: the columns of the shards it touched, not of the table).  The
speedup itself (default floor ``REPRO_BENCH_MIN_RESTART_SPEEDUP`` = 10x,
``<= 0`` disarms) is wall-clock and never part of the JSON gate.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import tempfile
import time

import numpy as np
from conftest import run_once, write_result

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.storage import CatalogStore, storage_counters
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService, ServiceConfig


SCALE_ROWS = 1_000_000
BENCH_SHARDS = 8
TABLE_NAME = "restart_bench"
#: The seed the pre-shutdown warm run and every measured restart replay
#: share: warm execution draws per-request coins, so bitwise parity (and a
#: fully covering UDF memo) holds against the *warm* run at the same seed.
RESTART_SEED = 7
#: Interleaved, order-alternating (restore, cold) measurement windows; the
#: median per-window ratio is asserted.
WINDOWS = 3
#: Minimum warm-restart / cold-rebuild wall-clock ratio; ``<= 0`` disarms.
MIN_RESTART_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_RESTART_SPEEDUP", "10.0")
)

GROUP_FRACTIONS = (0.24, 0.20, 0.16, 0.14, 0.10, 0.08, 0.05, 0.03)
GROUP_SELECTIVITIES = (0.66, 0.48, 0.72, 0.30, 0.55, 0.62, 0.20, 0.44)

QUERY_ALPHA, QUERY_BETA, QUERY_RHO = 0.9, 0.85, 0.8


def _build_columns(rows: int, seed: int = 2015):
    """Array-native synthetic columns with exact per-group positive counts."""
    rng = np.random.default_rng(seed)
    sizes = [int(round(fraction * rows)) for fraction in GROUP_FRACTIONS]
    sizes[0] += rows - sum(sizes)
    codes = np.repeat(np.arange(len(sizes)), sizes)
    labels = np.zeros(rows, dtype=bool)
    start = 0
    for size, selectivity in zip(sizes, GROUP_SELECTIVITIES):
        labels[start : start + int(round(size * selectivity))] = True
        start += size
    order = rng.permutation(rows)
    codes, labels = codes[order], labels[order]
    group_names = np.array([f"g{i}" for i in range(len(sizes))])
    return {
        "grade": group_names[codes].tolist(),
        "is_good": labels.tolist(),
        "amount": np.abs(rng.normal(12_000, 6_000, rows)).tolist(),
    }


def _expensive_udf(name: str) -> UserDefinedFunction:
    """An expensive per-row predicate (see ``test_update_workload``)."""

    def check(row) -> bool:
        acc = 0.0
        for k in range(50):
            acc += math.sin(acc + k + row["amount"])
        return bool(row["is_good"]) ^ (acc > 1e9)  # acc term never trips

    return UserDefinedFunction(name=name, func=check)


def _query(udf: UserDefinedFunction) -> SelectQuery:
    return SelectQuery(
        table=TABLE_NAME,
        predicate=UdfPredicate(udf),
        alpha=QUERY_ALPHA,
        beta=QUERY_BETA,
        rho=QUERY_RHO,
        correlated_column=None,  # automatic column selection: full cold pipeline
    )


def _persist_workload(columns, storage_dir):
    """Serve cold + warm at RESTART_SEED, shut down, persist everything."""
    table = ShardedTable.from_columns(
        TABLE_NAME, columns, hidden_columns=["is_good"], num_shards=BENCH_SHARDS
    )
    udf = _expensive_udf("restart_served")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog), config=ServiceConfig(storage_dir=storage_dir)
    )
    service.submit(_query(udf), seed=100)  # cold: plans, statistics, memo
    warm = service.submit(_query(udf), seed=RESTART_SEED)
    assert warm.metadata["plan_cache"] == "hit"
    started = time.perf_counter()
    service.close()  # checkpoint + warm state, the durable commit
    persist_seconds = time.perf_counter() - started
    return np.asarray(warm.row_ids, dtype=np.intp), persist_seconds


def _restore_window(storage_dir, warm_row_ids):
    """One timed warm restart: manifest open -> restored warm hit."""
    started = time.perf_counter()
    catalog, reports = CatalogStore(storage_dir).open()
    udf = _expensive_udf("restart_served")  # UDFs are code: re-registered under the same name
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog), config=ServiceConfig(storage_dir=storage_dir)
    )
    result = service.submit(_query(udf), seed=RESTART_SEED)
    seconds = time.perf_counter() - started
    storage = service.stats().storage
    window = {
        "seconds": round(seconds, 4),
        "plan_cache": result.metadata["plan_cache"],
        "plan_restored": int(service.stats().serving["plan_restored"]),
        "udf_evaluations": int(udf.counter_snapshot()["calls"]),
        "charged_evaluations": int(result.ledger.evaluated_count),
        "solver_calls": int(service.stats().serving["solver_calls"]),
        "row_ids_mismatch": int(
            not np.array_equal(
                np.asarray(result.row_ids, dtype=np.intp), warm_row_ids
            )
        ),
        "restore_errors": int(storage["restore_errors"]),
        "rebuilds": int(storage["rebuilds"]),
        "checksum_failures": int(storage["checksum_failures"]),
        "segments_loaded": int(
            reports[TABLE_NAME].to_dict()["segments_loaded"]
        ),
    }
    service.close()
    return window


def _close_after_reopen(storage_dir, delta=None):
    """Reopen, optionally append ``delta`` durably, close: segments written."""
    catalog, _ = CatalogStore(storage_dir).open()
    catalog.register_udf(_expensive_udf("restart_served"))
    service = QueryService(
        Engine(catalog), config=ServiceConfig(storage_dir=storage_dir)
    )
    if delta is not None:
        CatalogStore(storage_dir).table_store(TABLE_NAME).append(
            catalog.table(TABLE_NAME), delta
        )
    before = storage_counters()["segments_written"]
    service.close()  # checkpoint + warm state
    return storage_counters()["segments_written"] - before


def _recheckpoint_counts(columns, storage_dir):
    """What a checkpoint writes once the table is durable: what changed.

    Run after the measured windows — the append moves the durable
    generation on, which would turn their restored hits into refreshes.
    """
    delta = {
        name: values[: SCALE_ROWS // 100] for name, values in columns.items()
    }
    return {
        "unchanged_segments_written": _close_after_reopen(storage_dir),
        "after_append_segments_written": _close_after_reopen(storage_dir, delta),
    }


def _cold_window(columns):
    """One timed cold rebuild: re-ingest + full cold pipeline."""
    started = time.perf_counter()
    table = ShardedTable.from_columns(
        TABLE_NAME, columns, hidden_columns=["is_good"], num_shards=BENCH_SHARDS
    )
    udf = _expensive_udf("restart_cold")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog))
    result = service.submit(_query(udf), seed=RESTART_SEED)
    seconds = time.perf_counter() - started
    window = {
        "seconds": round(seconds, 4),
        "udf_evaluations": int(udf.counter_snapshot()["calls"]),
        "charged_evaluations": int(result.ledger.evaluated_count),
        "solver_calls": int(service.stats().serving["solver_calls"]),
    }
    service.close()
    return window


def _restart_comparison():
    columns = _build_columns(SCALE_ROWS)
    storage_dir = tempfile.mkdtemp(prefix="repro-restart-bench-")
    try:
        warm_row_ids, persist_seconds = _persist_workload(columns, storage_dir)
        restore_windows = []
        cold_windows = []
        for window in range(WINDOWS):
            restore_first = window % 2 == 0
            if restore_first:
                restore_windows.append(_restore_window(storage_dir, warm_row_ids))
            cold_windows.append(_cold_window(columns))
            if not restore_first:
                restore_windows.append(_restore_window(storage_dir, warm_row_ids))
        recheckpoint = _recheckpoint_counts(columns, storage_dir)
    finally:
        shutil.rmtree(storage_dir, ignore_errors=True)
    speedups = [
        cold["seconds"] / max(restore["seconds"], 1e-9)
        for restore, cold in zip(restore_windows, cold_windows)
    ]
    return persist_seconds, restore_windows, cold_windows, speedups, recheckpoint


def test_restart_workload(benchmark):
    persist_seconds, restore_windows, cold_windows, speedups, recheckpoint = run_once(
        benchmark, _restart_comparison
    )
    restored, cold = restore_windows[0], cold_windows[0]
    speedup = statistics.median(speedups)

    print(
        f"\nRestart point — {SCALE_ROWS} rows, {BENCH_SHARDS} shards, "
        f"median of {WINDOWS} interleaved restore/cold windows"
    )
    print(f"  persist (close)  : {persist_seconds:.2f}s")
    print(
        f"  warm restart     : {restored['seconds']:.2f}s, "
        f"plan_cache={restored['plan_cache']}, "
        f"{restored['udf_evaluations']} UDF evaluations, "
        f"{restored['segments_loaded']} segments"
    )
    print(
        f"  cold rebuild     : {cold['seconds']:.2f}s, "
        f"{cold['udf_evaluations']} UDF evaluations, "
        f"{cold['solver_calls']} solver calls"
    )
    print(
        f"  re-checkpoint    : {recheckpoint['unchanged_segments_written']} segments "
        f"unchanged, {recheckpoint['after_append_segments_written']} after a 1% append "
        f"(of {restored['segments_loaded']} and more)"
    )
    print(
        "  restart speedup  : "
        + ", ".join(f"{value:.1f}x" for value in speedups)
        + f" -> median {speedup:.1f}x"
    )

    payload = {
        "rows": SCALE_ROWS,
        "shards": BENCH_SHARDS,
        "windows": WINDOWS,
        "persist_seconds": round(persist_seconds, 4),
        # Window 0 counters; every window is asserted identical below, so
        # the committed values are deterministic.
        "restored": restored,
        "cold": cold,
        "recheckpoint": recheckpoint,
        "restart_speedup": round(speedup, 2),
        "speedup_windows": [round(value, 2) for value in speedups],
        "cpu_count": os.cpu_count(),
    }
    write_result("BENCH_restart.json", json.dumps(payload, indent=2) + "\n")

    # The durable-restart claims, every window: the first post-restart
    # request is a restored warm hit with zero UDF evaluations and answers
    # bitwise identical to the pre-shutdown warm run at the same seed; the
    # recovery path saw no corruption, no rebuild, no restore errors.
    for window in restore_windows:
        assert window["plan_cache"] == "restored"
        assert window["plan_restored"] == 1
        assert window["udf_evaluations"] == 0
        assert window["solver_calls"] == 0
        assert window["row_ids_mismatch"] == 0
        assert window["restore_errors"] == 0
        assert window["rebuilds"] == 0
        assert window["checksum_failures"] == 0
    # A checkpoint writes what changed.  Nothing did before the untouched
    # close; the 1% append overflowed the (full) tail, which was sealed into
    # two fresh shards — their three columns each are written, the seven
    # sealed shards' files are referenced.
    assert recheckpoint == {
        "unchanged_segments_written": 0,
        "after_append_segments_written": 2 * 3,
    }
    # Work counters are deterministic: the windows must agree exactly.
    stable = [
        {k: w[k] for k in w if k != "seconds"} for w in restore_windows
    ]
    assert all(window == stable[0] for window in stable[1:])
    assert all(
        {k: w[k] for k in w if k != "seconds"}
        == {k: cold[k] for k in cold if k != "seconds"}
        for w in cold_windows[1:]
    )
    if MIN_RESTART_SPEEDUP > 0:
        assert speedup >= MIN_RESTART_SPEEDUP, (
            f"warm restart only {speedup:.1f}x faster than cold rebuild "
            f"(required {MIN_RESTART_SPEEDUP}x; set "
            "REPRO_BENCH_MIN_RESTART_SPEEDUP to tune)"
        )
