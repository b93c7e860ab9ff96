"""Scale point: sharded multi-core execution at 1M rows, pinned to serial.

Builds a ~1M-row synthetic table (8 groups, mixed selectivities chosen so the
solved plans do real evaluation work) and replays the same 3-query cold trace
under two workloads:

* **label-column UDF** (vectorised NumPy evaluation) — serial vs the
  ``BENCH_WORKERS``-thread :class:`~repro.core.ParallelBatchExecutor` over an
  8-shard :class:`~repro.db.ShardedTable`.  Threads suffice here: per-span
  work stays inside GIL-releasing kernels.
* **python-callable UDF** (:class:`~repro.db.udf.RevealLabel`, evaluated row
  by row — the paper's expensive-predicate regime) — serial vs the thread
  pool vs :class:`~repro.core.procpool.ProcessPoolBatchExecutor` over
  shared-memory shards.  The thread executor never moves a python-callable
  UDF onto pool threads (they would serialise on the GIL: 0.09x of serial
  when it still did), so its replay runs every span on the calling thread —
  the counter coin stream and per-row reads of a sharded table, about 0.5x
  of the unsharded serial replay, recorded as information; the **process**
  replay is the one that must scale, and the one the speedup assert arms on.

Because the coin discipline is position-addressable and the process parent
replays serial charging while folding, every replay is *bitwise identical*:
same returned row ids, same UDF evaluations, same solver calls, for every
backend, shard layout and worker count.  ``BENCH_scale.json`` records all
replays plus ``parity.*`` counters (committed as zero;
``compare_bench.py --profile scale`` gates them at exactly ±0 in CI,
alongside the serial work counters at ±15%).

Throughput scaling is asserted only where it can physically happen: on hosts
with >= ``BENCH_WORKERS`` cores the **process** replay of the python-UDF
workload must reach ``REPRO_BENCH_MIN_PARALLEL_SPEEDUP`` (default 2.0,
``<= 0`` disarms) times the serial q/s.  The armed ratio follows the
suite's A/B discipline: ``WINDOWS`` interleaved, order-alternating
(serial, process) replay pairs, asserted on the **median** per-window
ratio so a single noisy window cannot flake the gate (the replays are
bitwise identical, so repeating them perturbs only wall-clock).  Thread
speedups are recorded but never asserted — the label-path fan is
memory-bandwidth bound and the python path does not fan on threads at all.
Wall-clock is never part of the JSON gate.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
from conftest import run_once, write_result

from repro.core import IntelSample, QueryConstraints
from repro.core.parallel import ParallelBatchExecutor
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db import CostLedger, ShardedTable, Table, UserDefinedFunction
from repro.db.shm import release_exports
from repro.db.udf import RevealLabel


#: Rows of the scale point (the ISSUE floor is 500k).
SCALE_ROWS = 1_000_000
BENCH_SHARDS = 8
BENCH_WORKERS = 4
#: (alpha, beta) per trace query; rho is fixed at 0.8.
TRACE = ((0.9, 0.85), (0.92, 0.8), (0.88, 0.9))
#: Interleaved, order-alternating (serial, process) python-UDF replay
#: pairs; the median per-window q/s ratio is the armed assert.
WINDOWS = 3
#: Minimum process-over-serial q/s on the python-UDF workload, on hosts with
#: >= BENCH_WORKERS cores.  Set REPRO_BENCH_MIN_PARALLEL_SPEEDUP=0 to disarm.
MIN_PARALLEL_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "2.0")
)

#: Group layout: sizes skewed, selectivities mixed (no group is pure), so
#: precision repair forces the plans to evaluate a large tuple fraction —
#: the UDF/execution work the parallel fan-out is supposed to absorb.
GROUP_FRACTIONS = (0.26, 0.20, 0.16, 0.12, 0.10, 0.08, 0.05, 0.03)
GROUP_SELECTIVITIES = (0.62, 0.35, 0.78, 0.22, 0.55, 0.88, 0.12, 0.45)


def _build_columns(rows: int, seed: int = 2015):
    """Array-native synthetic columns (exact per-group positive counts)."""
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


def _replay(table, workers: int, tag: str, executor_cls=ParallelBatchExecutor,
            python_udf: bool = False):
    """Run the cold trace (fresh UDF per query, index built lazily in-query)."""
    elapsed = 0.0
    udf_evaluations = 0
    solver_calls = 0
    row_calls = 0
    results = []
    for position, (alpha, beta) in enumerate(TRACE):
        if python_udf:
            # No label_column attribute: every backend takes the per-row
            # python-callable path (RevealLabel is module-level, so the spec
            # still ships to workers).
            udf = UserDefinedFunction(
                f"scale_{tag}_{position}", RevealLabel("is_good", True)
            )
        else:
            udf = UserDefinedFunction.from_label_column(
                f"scale_{tag}_{position}", "is_good"
            )
        ledger = CostLedger()
        strategy = IntelSample(
            random_state=9_000 + position,
            executor_factory=lambda rng: executor_cls(rng, max_workers=workers),
        )
        started = time.perf_counter()
        result = strategy.answer(
            table,
            udf,
            QueryConstraints(alpha=alpha, beta=beta, rho=0.8),
            ledger,
            correlated_column="grade",
        )
        elapsed += time.perf_counter() - started
        udf_evaluations += ledger.evaluated_count
        solver_calls += 1
        row_calls += udf.row_calls
        results.append(np.asarray(result.row_ids, dtype=np.intp))
    return {
        "seconds": round(elapsed, 4),
        "queries_per_second": round(len(TRACE) / elapsed, 2),
        "udf_evaluations": int(udf_evaluations),
        "solver_calls": int(solver_calls),
        "udf_row_calls": int(row_calls),
    }, results


def _abs_deltas(reference, other, other_results, reference_results, prefix=""):
    mismatches = sum(
        0 if np.array_equal(a, b) else 1
        for a, b in zip(reference_results, other_results)
    )
    return {
        f"{prefix}udf_evaluations_abs_delta": abs(
            other["udf_evaluations"] - reference["udf_evaluations"]
        ),
        f"{prefix}solver_calls_abs_delta": abs(
            other["solver_calls"] - reference["solver_calls"]
        ),
        f"{prefix}row_ids_mismatch": int(mismatches),
    }


def _scale_comparison():
    columns = _build_columns(SCALE_ROWS)
    serial_table = Table.from_columns(
        "scale_bench", columns, hidden_columns=["is_good"]
    )
    sharded_table = ShardedTable.from_columns(
        "scale_bench",
        columns,
        hidden_columns=["is_good"],
        num_shards=BENCH_SHARDS,
    )
    # Label-column workload: serial vs thread fan (unchanged exhibit).
    serial, serial_results = _replay(serial_table, workers=1, tag="serial")
    parallel, parallel_results = _replay(
        sharded_table, workers=BENCH_WORKERS, tag="parallel"
    )
    # Python-callable workload: serial vs thread (inline spans) vs process.
    # The armed serial-vs-process ratio runs WINDOWS interleaved,
    # order-alternating pairs; every replay is bitwise identical (the coin
    # discipline is position-addressable), so repetition perturbs only
    # wall-clock and window 0's counters/results stand for all windows.
    py_thread, py_thread_results = _replay(
        sharded_table, workers=BENCH_WORKERS, tag="py_thread", python_udf=True
    )
    py_serial_windows = []
    py_process_windows = []
    for window in range(WINDOWS):
        serial_first = window % 2 == 0
        if serial_first:
            py_serial_windows.append(
                _replay(serial_table, workers=1, tag="py_serial", python_udf=True)
            )
        py_process_windows.append(
            _replay(
                sharded_table,
                workers=BENCH_WORKERS,
                tag="py_process",
                executor_cls=ProcessPoolBatchExecutor,
                python_udf=True,
            )
        )
        if not serial_first:
            py_serial_windows.append(
                _replay(serial_table, workers=1, tag="py_serial", python_udf=True)
            )
    py_serial, py_serial_results = py_serial_windows[0]
    py_process, py_process_results = py_process_windows[0]
    process_speedup_windows = [
        proc["queries_per_second"] / serial["queries_per_second"]
        for (serial, _), (proc, _) in zip(py_serial_windows, py_process_windows)
    ]
    release_exports(sharded_table)
    parity = _abs_deltas(serial, parallel, parallel_results, serial_results)
    parity.update(
        _abs_deltas(
            py_serial, py_thread, py_thread_results, py_serial_results,
            prefix="thread_python_",
        )
    )
    parity.update(
        _abs_deltas(
            py_serial, py_process, py_process_results, py_serial_results,
            prefix="process_",
        )
    )
    # The two workloads must also agree with each other: the evaluation path
    # (vectorised labels vs python calls vs worker processes) may never
    # change which rows a plan touches.
    parity["workload_row_ids_mismatch"] = sum(
        0 if np.array_equal(a, b) else 1
        for a, b in zip(serial_results, py_serial_results)
    )
    # Window determinism: the repeated replays must agree on every work
    # counter — only wall-clock may differ between windows.
    wall_clock = ("seconds", "queries_per_second")
    for windows in (py_serial_windows, py_process_windows):
        stable = [
            {k: v for k, v in stats.items() if k not in wall_clock}
            for stats, _ in windows
        ]
        assert all(window == stable[0] for window in stable[1:]), (
            f"python-UDF replay work counters drifted across windows: {stable}"
        )
    return {
        "serial": serial,
        "parallel": parallel,
        "python_udf": {
            "serial": py_serial,
            "thread": py_thread,
            "process": py_process,
        },
        "parity": parity,
        "process_speedup_windows": process_speedup_windows,
    }


def test_scale_sharded_parallel(benchmark):
    data = run_once(benchmark, _scale_comparison)
    serial, parallel = data["serial"], data["parallel"]
    python_udf, parity = data["python_udf"], data["parity"]

    thread_speedup = parallel["queries_per_second"] / serial["queries_per_second"]
    py_thread_speedup = (
        python_udf["thread"]["queries_per_second"]
        / python_udf["serial"]["queries_per_second"]
    )
    speedup_windows = data["process_speedup_windows"]
    process_speedup = statistics.median(speedup_windows)
    print(
        f"\nScale point — {SCALE_ROWS} rows, {BENCH_SHARDS} shards, "
        f"{BENCH_WORKERS} workers, median of {WINDOWS} interleaved "
        "serial/process windows"
    )
    rows = (
        ("label serial", serial),
        ("label thread", parallel),
        ("python serial", python_udf["serial"]),
        ("python thread", python_udf["thread"]),
        ("python process", python_udf["process"]),
    )
    for label, row in rows:
        print(
            f"  {label:>14}: {row['queries_per_second']:>7} q/s, "
            f"{row['udf_evaluations']} UDF evaluations, "
            f"{row['solver_calls']} solver calls"
        )
    print(
        f"  thread speedup (label): {thread_speedup:.2f}x   "
        f"thread speedup (python): {py_thread_speedup:.2f}x   "
        "process speedup (python): "
        + ", ".join(f"{value:.2f}x" for value in speedup_windows)
        + f" -> median {process_speedup:.2f}x"
    )

    payload = {
        "rows": SCALE_ROWS,
        "shards": BENCH_SHARDS,
        "workers": BENCH_WORKERS,
        "trace_length": len(TRACE),
        "windows": WINDOWS,
        "serial": serial,
        "parallel": parallel,
        "python_udf": python_udf,
        # Committed as exact zeros; the scale gate profile fails on any
        # non-zero fresh value (an unbounded relative drift from 0).
        "parity": parity,
        "parallel_speedup": round(thread_speedup, 2),
        "thread_python_speedup": round(py_thread_speedup, 2),
        "process_speedup": round(process_speedup, 2),
        "process_speedup_windows": [
            round(value, 2) for value in speedup_windows
        ],
        "cpu_count": os.cpu_count(),
    }
    write_result("BENCH_scale.json", json.dumps(payload, indent=2) + "\n")

    # Exact parity: sharding, threads and processes must not change the work.
    for key, value in parity.items():
        assert value == 0, f"parity breach: {key}={value}"
    assert serial["udf_row_calls"] == 0 and parallel["udf_row_calls"] == 0, (
        "label-column scale path fell back to per-row UDF calls"
    )

    # Throughput scaling, where the hardware can deliver it: the armed assert
    # rides on the process pool — the thread executor keeps a python-UDF
    # workload on the calling thread, so it cannot exceed 1x by design.
    cores = os.cpu_count() or 1
    if cores >= BENCH_WORKERS and MIN_PARALLEL_SPEEDUP > 0:
        assert process_speedup >= MIN_PARALLEL_SPEEDUP, (
            f"process-pool python-UDF throughput only {process_speedup:.2f}x "
            f"serial (median of {WINDOWS} windows) at {SCALE_ROWS} rows with "
            f"{BENCH_WORKERS} workers on {cores} cores (required "
            f"{MIN_PARALLEL_SPEEDUP}x; set REPRO_BENCH_MIN_PARALLEL_SPEEDUP "
            "to tune)"
        )
