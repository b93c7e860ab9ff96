"""Out-of-core point: a durable table ~4x the memory budget, served bounded.

Builds a sharded table whose committed segments total roughly four times
the configured ``memory_budget_bytes``, then answers the same query twice
through a :class:`~repro.serving.QueryService`:

* **unbounded** — the eager open: every segment mapped up front;
* **bounded** — the lazy open under a :class:`ResidencyManager` holding a
  quarter of the table, so serving *must* evict and refault mid-query.

The acceptance contract of bounded-memory serving is gated, not the
wall-clock: row ids and every work counter (UDF evaluations, solver
calls, charged retrieves/evaluations) are compared bitwise and their
absolute deltas committed as **zero** — ``compare_bench.py --profile
outofcore`` turns any non-zero fresh value into an unbounded relative
drift, i.e. an exact ±0 gate.  ``bounded.evictions`` is committed > 0
(the run genuinely exercised eviction) and the peak resident bytes must
stay under budget + one pinned shard's columns.  Peak RSS is recorded
informationally; it is process-wide and monotonic, so it never gates.

Emits ``out/BENCH_outofcore.json``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import tempfile
import time

import numpy as np
from conftest import run_once, write_result

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService, ServiceConfig


BENCH_ROWS = 200_000
BENCH_SHARDS = 8
TABLE_NAME = "outofcore_bench"
QUERY_SEED = 2015
#: The budget is this fraction of the committed segment bytes: the table
#: is ~4x larger than what the manager may keep resident.
BUDGET_FRACTION = 0.25

GROUP_FRACTIONS = (0.24, 0.20, 0.16, 0.14, 0.10, 0.08, 0.05, 0.03)
GROUP_SELECTIVITIES = (0.66, 0.48, 0.72, 0.30, 0.55, 0.62, 0.20, 0.44)


def _build_columns(rows: int, seed: int = 2015):
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


def _segment_bytes(store: TableStore) -> int:
    return sum(
        os.path.getsize(os.path.join(store.segments_dir, name))
        for name in os.listdir(store.segments_dir)
    )


def _serve(table, tag, budget_bytes=None):
    """Answer the benchmark query once; return (row_ids, counters, residency)."""
    udf = UserDefinedFunction.from_label_column(f"ooc_{tag}", "is_good")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog),
        config=ServiceConfig(memory_budget_bytes=budget_bytes),
    )
    query = SelectQuery(
        table=TABLE_NAME,
        predicate=UdfPredicate(udf),
        alpha=0.9,
        beta=0.85,
        rho=0.8,
        correlated_column="grade",
    )
    started = time.perf_counter()
    result = service.submit(query, seed=QUERY_SEED)
    seconds = time.perf_counter() - started
    counters = {
        "seconds": round(seconds, 4),
        "udf_evaluations": int(udf.counter_snapshot()["calls"]),
        "charged_evaluations": int(result.ledger.evaluated_count),
        "charged_retrieves": int(result.ledger.retrieved_count),
        "solver_calls": int(service.stats().serving["solver_calls"]),
    }
    residency = service.stats().storage.get("residency")
    service.close()
    return np.asarray(result.row_ids, dtype=np.intp), counters, residency


def _max_shard_column_bytes(table) -> int:
    """The pin allowance: the largest single shard's summed column bytes."""
    worst = 0
    for shard in table.shards:
        total = 0
        for column in shard.schema.column_names:
            # payload_bytes comes from the validated header, so the
            # allowance is known before anything is mapped (and equals the
            # mapped nbytes for fixed-width columns).
            total += shard.segment_handle(column).payload_bytes
        worst = max(worst, total)
    return worst


def _outofcore_comparison():
    columns = _build_columns(BENCH_ROWS)
    directory = tempfile.mkdtemp(prefix="repro-outofcore-bench-")
    try:
        source = ShardedTable.from_columns(
            TABLE_NAME, columns, hidden_columns=["is_good"], num_shards=BENCH_SHARDS
        )
        store = TableStore(os.path.join(directory, TABLE_NAME))
        store.save(source)
        del source
        segment_bytes = _segment_bytes(store)
        budget = int(segment_bytes * BUDGET_FRACTION)

        eager, _ = store.open()
        eager_ids, eager_counters, _ = _serve(eager, "eager")
        del eager

        manager = ResidencyManager()
        lazy, _ = store.open(residency=manager)
        pin_allowance = _max_shard_column_bytes(lazy)
        bounded_ids, bounded_counters, residency = _serve(
            lazy, "bounded", budget_bytes=budget
        )
        del lazy
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return (
        segment_bytes,
        budget,
        pin_allowance,
        (eager_ids, eager_counters),
        (bounded_ids, bounded_counters),
        residency,
        peak_rss_mb,
    )


def test_outofcore_workload(benchmark):
    (
        segment_bytes,
        budget,
        pin_allowance,
        (eager_ids, eager_counters),
        (bounded_ids, bounded_counters),
        residency,
        peak_rss_mb,
    ) = run_once(benchmark, _outofcore_comparison)

    parity = {
        "row_ids_mismatch": int(not np.array_equal(eager_ids, bounded_ids)),
        "udf_evaluations_abs_delta": abs(
            bounded_counters["udf_evaluations"] - eager_counters["udf_evaluations"]
        ),
        "charged_evaluations_abs_delta": abs(
            bounded_counters["charged_evaluations"]
            - eager_counters["charged_evaluations"]
        ),
        "charged_retrieves_abs_delta": abs(
            bounded_counters["charged_retrieves"]
            - eager_counters["charged_retrieves"]
        ),
        "solver_calls_abs_delta": abs(
            bounded_counters["solver_calls"] - eager_counters["solver_calls"]
        ),
    }

    print(
        f"\nOut-of-core point — {BENCH_ROWS} rows, {BENCH_SHARDS} shards, "
        f"{segment_bytes / 1e6:.1f} MB of segments over a "
        f"{budget / 1e6:.1f} MB budget ({1 / BUDGET_FRACTION:.0f}x)"
    )
    print(
        f"  unbounded : {eager_counters['seconds']:.2f}s, "
        f"{eager_counters['udf_evaluations']} UDF evaluations"
    )
    print(
        f"  bounded   : {bounded_counters['seconds']:.2f}s, "
        f"{residency['evictions']} evictions, {residency['refaults']} refaults, "
        f"peak resident {residency['peak_resident_bytes'] / 1e6:.1f} MB"
    )
    print(
        f"  parity    : {parity} (gated at exactly 0)"
    )
    print(f"  peak RSS  : {peak_rss_mb:.0f} MB (informational)")

    payload = {
        "rows": BENCH_ROWS,
        "shards": BENCH_SHARDS,
        "segment_bytes": segment_bytes,
        "budget_bytes": budget,
        "pin_allowance_bytes": pin_allowance,
        "unbounded": eager_counters,
        "bounded": {
            **bounded_counters,
            "maps": int(residency["maps"]),
            "evictions": int(residency["evictions"]),
            "refaults": int(residency["refaults"]),
            "peak_resident_bytes": int(residency["peak_resident_bytes"]),
        },
        "parity": parity,
        "peak_rss_mb": round(peak_rss_mb, 1),
        "cpu_count": os.cpu_count(),
    }
    write_result("BENCH_outofcore.json", json.dumps(payload, indent=2) + "\n")

    # The bounded-memory acceptance contract, asserted before committing:
    # bitwise parity at ±0, genuine eviction pressure, and a peak residency
    # no higher than budget plus one pinned shard's columns.
    assert all(value == 0 for value in parity.values()), parity
    assert residency["evictions"] > 0
    assert residency["map_faults"] == 0 and residency["evict_faults"] == 0
    assert residency["peak_resident_bytes"] <= budget + pin_allowance
