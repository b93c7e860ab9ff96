"""The five workloads: inputs from a seed, set-up, a timed phase, checks.

Every workload drives the program through its public surface only and keeps
one :class:`Op` record per timed operation.  Answers are scored against the
benchmark's own label array right after the timer stops, so neither the
latency nor the process's peak memory carries thousands of retained results.

The timed phase is bounded by time, not by count: it runs until ``seconds``
have passed *and* ``min_ops`` units are done (a unit is one query, or one
append-and-query cycle on ``durable_churn``).  The numbers that must repeat
exactly for one seed — ``cost_vs_naive``, ``guarantee_sat_share``, the
answers digest — are taken over the first ``min_ops`` units, which every run
completes; timings use everything the run completed.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import os
import resource
import shutil
import struct
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import Catalog, Engine, QueryService, SelectQuery, ServiceConfig, UdfPredicate
from repro.db import ShardedTable, Table, UserDefinedFunction
from repro.db.index import GroupIndex
from repro.db.residency import ResidencyManager, pinned_segments_total, resident_bytes_total
from repro.db.shm import exported_segment_count, release_exports
from repro.db.storage import CatalogStore
from repro.db.storage.store import storage_counters

from bench.speed import SpeedProbe
from bench.udfs import SpinLabel

TABLE = "bench"
RHO = 0.8
#: The table and the pre-warmed plans are a fixture, the same for every run
#: seed; ``--seed`` drives the request stream (per-request coin seeds, the
#: (alpha, beta) draws, arrival instants, signature popularity, the appended
#: deltas).  Were the plans re-drawn per seed, the work per query — and so
#: every timing — would differ between seeds by more than a regression bound.
DATA_SEED = 2015
#: Seeds of warm-up queries: above every timed op id, the same for every run.
WARM_SEED_BASE = 2**53

#: Group layout shared by every workload: skewed sizes, mixed selectivities
#: with no pure group, so solved plans both retrieve and evaluate.  Per-group
#: positive counts are exact.
GROUP_FRACTIONS = (0.26, 0.20, 0.16, 0.12, 0.10, 0.08, 0.05, 0.03)
GROUP_SELECTIVITIES = (0.62, 0.35, 0.78, 0.22, 0.55, 0.88, 0.12, 0.45)
REGIONS = 5

#: (alpha, beta) of the pre-warmed signatures.
SIGNATURES = (
    (0.80, 0.80),
    (0.90, 0.70),
    (0.70, 0.90),
    (0.85, 0.75),
    (0.88, 0.82),
    (0.75, 0.85),
)


class InvalidBenchmark(Exception):
    """The program did not take the path the workload prescribes.

    Not a slow number and not a failed operation: the run measured
    something other than what its name says, so it reports nothing.
    """


@dataclass
class Op:
    """One timed operation."""

    op_id: int
    kind: str  # "query" | "append" | "restart"
    expect: str = ""  # prescribed metadata["plan_cache"] path of a query
    latency_s: float = 0.0
    end_s: float = 0.0  # perf_counter when it ended
    probe_s: float = 0.0  # seconds the speed probe had used of the phase by then
    slowdown: float = 1.0  # machine slowdown around end_s (set after the run)
    path: str = ""
    ok: bool = True
    error: str = ""
    unit: int = 0  # index of the query, or of the cycle, it belongs to
    satisfied: bool = False
    cost: float = 0.0
    naive: float = 0.0
    retrieved: int = 0
    evaluated: int = 0
    sampled: int = 0
    digest: bytes = b""

    @property
    def norm_s(self) -> float:
        """Latency at reference machine speed."""
        return self.latency_s / self.slowdown

    @property
    def counted(self) -> bool:
        """Whether throughput counts it (restart steps only add wall time)."""
        return self.kind != "restart"


def make_columns(rows: int, rng: np.random.Generator) -> Tuple[Dict[str, list], np.ndarray]:
    """Seeded columns with exact per-group positive counts, and the labels."""
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
    groups = np.array([f"g{i}" for i in range(len(sizes))])
    regions = np.array([f"r{i}" for i in range(REGIONS)])
    columns = {
        "grade": groups[codes].tolist(),
        "region": regions[rng.integers(0, REGIONS, rows)].tolist(),
        "is_good": labels.tolist(),
        "amount": np.abs(rng.normal(12_000, 6_000, rows)).tolist(),
    }
    return columns, labels


def _user_bytes(columns: Dict[str, list]) -> int:
    return sum(np.asarray(values).nbytes for values in columns.values())


def _process_bytes_written() -> Optional[int]:
    """Bytes this process has passed to write calls (Linux), else ``None``."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


# -- counters from public snapshots ------------------------------------------
def _flatten(obj: object) -> Dict[str, float]:
    if isinstance(obj, QueryService):
        stats = obj.stats()
        flat = {f"service.{key}": float(value) for key, value in stats.serving.items()}
        flat["plan_cache.hits"] = float(stats.plan_cache["hits"])
        flat["plan_cache.misses"] = float(stats.plan_cache["misses"])
        flat["stats_cache.hits"] = float(sum(c["hits"] for c in stats.stats_cache.values()))
        flat["stats_cache.misses"] = float(sum(c["misses"] for c in stats.stats_cache.values()))
        return flat
    if isinstance(obj, UserDefinedFunction):
        snapshot = obj.counter_snapshot()
        return {
            f"udf.{key}": float(snapshot[key])
            for key in ("calls", "cache_hits", "cache_misses", "row_calls", "bulk_calls")
        }
    if isinstance(obj, ResidencyManager):
        snapshot = obj.snapshot()
        return {
            f"residency.{key}": float(snapshot[key])
            for key in ("maps", "evictions", "refaults", "map_seconds_total")
        }
    raise TypeError(f"no counters known for {type(obj).__name__}")


def _process_counters() -> Dict[str, float]:
    flat = {f"storage.{key}": float(value) for key, value in storage_counters().items()}
    flat["index.builds"] = float(GroupIndex.builds_total)
    flat["index.extensions"] = float(GroupIndex.extensions_total)
    return flat


class CounterTape:
    """Adds up counter advances of objects that come and go during a phase.

    ``watch`` notes an object's counters now; ``settle`` books what they
    advanced by since.  ``durable_churn`` replaces its service, UDF and
    residency manager at every restart, so a plain before/after pair of one
    object would miss most of the phase.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.peak_resident_bytes = 0
        self._watched: Dict[int, Tuple[object, Dict[str, float]]] = {}
        self._process_baseline = _process_counters()

    def _book(self, now: Dict[str, float], before: Dict[str, float]) -> None:
        for key, value in now.items():
            self.totals[key] = self.totals.get(key, 0.0) + value - before.get(key, 0.0)

    def watch(self, *objects: object) -> None:
        for obj in objects:
            self._watched[id(obj)] = (obj, _flatten(obj))

    def settle(self, *objects: object) -> None:
        for obj in objects:
            _, before = self._watched.pop(id(obj))
            self._book(_flatten(obj), before)
            if isinstance(obj, ResidencyManager):
                self.peak_resident_bytes = max(
                    self.peak_resident_bytes, int(obj.peak_resident_bytes)
                )

    def finish(self) -> None:
        self.settle(*[obj for obj, _ in self._watched.values()])
        self._book(_process_counters(), self._process_baseline)


class Workload:
    """Base: inputs in ``__init__``, then ``setup`` / ``run`` / ``teardown``."""

    name = ""
    rows = 0
    #: Units every run completes; the exactly-repeating numbers use these.
    min_ops = 100
    #: Set-ups per untraced run; ``setup_s`` is their median.  A set-up of a
    #: tenth of a second needs several to give a steady median.
    setup_repeats = 7

    def __init__(self, seed: int, rows_scale: float = 1.0, workdir: str = "."):
        self.seed = int(seed) % 2**32
        self.rows = self._scaled_rows(rows_scale)
        self.workdir = workdir
        self.rng = np.random.default_rng(self.seed)
        self.columns, self.labels = make_columns(self.rows, np.random.default_rng(DATA_SEED))
        self.ops: List[Op] = []
        self.started_s = 0.0  # perf_counter when the timed phase began
        self.probe = SpeedProbe()
        self.tape: Optional[CounterTape] = None
        self.unit = 0  # the unit the timed loop is in; stamped on every op
        self.user_bytes = 0
        self.bytes_written: Optional[int] = None
        self._written_before: Optional[int] = None
        self.shm_segments = 0
        self.peak_rss_kb = 0  # this process, at the end of the timed phase
        self._op_ids = itertools.count(self.seed * 1_000_000)
        self._warm_ids = itertools.count(WARM_SEED_BASE)
        self._positives: Dict[int, int] = {}
        self.service: Optional[QueryService] = None
        self.table: Optional[Table] = None
        self.udf: Optional[UserDefinedFunction] = None

    # -- helpers ---------------------------------------------------------------
    def _scaled_rows(self, rows_scale: float) -> int:
        return max(800, int(self.rows * rows_scale))

    def _query(self, udf, alpha: float, beta: float, column: Optional[str] = "grade"):
        return SelectQuery(
            table=TABLE,
            predicate=UdfPredicate(udf),
            alpha=alpha,
            beta=beta,
            rho=RHO,
            correlated_column=column,
        )

    def _serve(self, table, udf, config: ServiceConfig) -> QueryService:
        catalog = Catalog()
        catalog.register_table(table)
        catalog.register_udf(udf)
        return QueryService(Engine(catalog), config=config)

    def _warm(self, queries: Sequence[SelectQuery]) -> None:
        for query in queries:
            self.service.submit(query, seed=next(self._warm_ids))

    def _keep_going(self, started: float, seconds: float, ops: Optional[int], done: int) -> bool:
        if ops is not None:
            return done < ops
        return done < self.min_ops or time.perf_counter() - started < seconds

    def _score(self, op: Op, result, query: SelectQuery, rows: int) -> None:
        """Check and score one answer against the benchmark's own labels."""
        ids = np.asarray(result.row_ids, dtype=np.intp)
        if ids.size:
            valid = int(ids.min()) >= 0 and int(ids.max()) < rows
            if valid:
                seen = np.zeros(rows, dtype=bool)
                seen[ids] = True
                valid = int(seen.sum()) == ids.size
            if not valid:
                op.ok = False
                op.error = "row ids out of range or repeated"
                return
        positives = self._positives.get(rows)
        if positives is None:
            positives = self._positives[rows] = int(self.labels[:rows].sum())
        hits = int(self.labels[ids].sum())
        precision = hits / ids.size if ids.size else 1.0
        recall = hits / positives if positives else 1.0
        op.satisfied = precision >= query.alpha and recall >= query.beta
        ledger = result.ledger
        op.retrieved = int(ledger.retrieved_count)
        op.evaluated = int(ledger.evaluated_count)
        op.cost = float(ledger.total_cost)
        op.naive = rows * float(ledger.retrieval_cost + ledger.evaluation_cost)
        op.path = str(result.metadata.get("plan_cache", ""))
        report = result.metadata.get("report")
        op.sampled = int(report.sample_size) if report is not None else 0
        op.digest = hashlib.blake2b(
            ids.tobytes() + struct.pack("<qq", op.retrieved, op.evaluated), digest_size=16
        ).digest()

    def _timed(self, tracer, op: Op, action):
        """Time ``action()`` as ``op`` under a root span; return its result.

        An exception makes the op a failed op, and the run goes on.  The
        speed probe runs, when it is due, after the timer has stopped.
        """
        result = None
        with tracer.op(op.op_id):
            started = time.perf_counter()
            try:
                result = action()
            except Exception as exc:  # counted and reported, not fatal to the run
                op.ok = False
                op.error = f"{type(exc).__name__}: {exc}"
            op.end_s = time.perf_counter()
            op.latency_s = op.end_s - started
        op.probe_s = self.probe.spent_s
        self.ops.append(op)
        self.probe.sample_if_due()
        return result

    def _timed_query(self, tracer, service, query, expect: str, rows: int) -> None:
        op = Op(next(self._op_ids), "query", expect, unit=self.unit)
        result = self._timed(tracer, op, lambda: service.submit(query, seed=op.op_id))
        if result is not None:
            self._score(op, result, query, rows)

    def _reset_memo(self) -> None:
        """Forget memoised UDF outcomes between ops (outside the timer).

        ``reset`` also zeroes the UDF's counters, so their advance is booked
        first.
        """
        self.tape.settle(self.udf)
        self.udf.reset()
        self.tape.watch(self.udf)

    def _start_timed(self, *watched: object) -> float:
        self.tape = CounterTape()
        self.tape.watch(*watched)
        self.user_bytes = 0
        self._written_before = _process_bytes_written()
        self.probe = SpeedProbe()
        self.probe.sample()
        self.probe.spent_s = 0.0  # counts from the start of the timed phase
        self.started_s = time.perf_counter()
        return self.started_s

    def _end_timed(self) -> None:
        self.probe.sample()
        for op, slowdown in zip(self.ops, self.probe.slowdown_at([op.end_s for op in self.ops])):
            op.slowdown = float(slowdown)
        self.tape.finish()
        # Before teardown: its checks (the twin compare) are not the program's memory.
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.shm_segments = exported_segment_count()
        after = _process_bytes_written()
        if after is not None and self._written_before is not None:
            self.bytes_written = after - self._written_before

    # -- lifecycle -------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, ops: Optional[int], tracer) -> None:
        raise NotImplementedError

    def teardown(self) -> List[str]:
        """Close everything; return what leaked (a leak is a failed op)."""
        if self.service is not None:
            self.service.close()
        if self.table is not None:
            release_exports(self.table)
        self.service = self.table = self.udf = None
        gc.collect()
        return leaks()


def leaks() -> List[str]:
    found = []
    if exported_segment_count():
        found.append(f"{exported_segment_count()} shared-memory segments still exported")
    if resident_bytes_total():
        found.append(f"{resident_bytes_total()} segment bytes still resident")
    if pinned_segments_total():
        found.append(f"{pinned_segments_total()} segments still pinned")
    return found


class WarmHits(Workload):
    """Closed loop, 1 client, 4 pre-warmed signatures on a 20k-row 4-shard
    table: only plan lookup and the executor coin pass run, so solver and
    storage changes must not show.
    """

    name = "warm_hits"
    rows = 20_000
    min_ops = 1_000

    def setup(self) -> None:
        self.table = ShardedTable.from_columns(
            TABLE, self.columns, hidden_columns=["is_good"], num_shards=4
        )
        self.udf = UserDefinedFunction.from_label_column("bench_label", "is_good")
        self.service = self._serve(self.table, self.udf, ServiceConfig(free_memoized=False))
        self.queries = [self._query(self.udf, a, b) for a, b in SIGNATURES[:4]]
        self._warm(self.queries)  # plans
        self._warm(self.queries * 4)  # memo, first-touch allocations

    def run(self, seconds, ops, tracer) -> None:
        started = self._start_timed(self.service, self.udf)
        for done in itertools.count():
            if not self._keep_going(started, seconds, ops, done):
                break
            self.unit = done
            query = self.queries[done % len(self.queries)]
            self._timed_query(tracer, self.service, query, "hit", self.rows)
        self._end_timed()


class ColdPlans(Workload):
    """Closed loop, 1 client, caches off and the UDF memo reset per query on a
    5k-row table: sampling and the SLSQP solve dominate and execution is
    tiny, the mirror of warm_hits.
    """

    name = "cold_plans"
    rows = 5_000
    min_ops = 500

    def setup(self) -> None:
        self.table = Table.from_columns(TABLE, self.columns, hidden_columns=["is_good"])
        self.udf = UserDefinedFunction.from_label_column("bench_label", "is_good")
        self.service = self._serve(
            self.table,
            self.udf,
            ServiceConfig(plan_cache_size=0, stats_cache_size=0, free_memoized=False),
        )
        for position in range(16):  # index build, solver first-call set-up
            self.udf.reset()
            self._warm([self._draw_query(position)])

    def _draw_query(self, position: int) -> SelectQuery:
        alpha, beta = self.rng.uniform(0.70, 0.95, 2)
        # Every 4th query leaves the column to automatic selection.
        column = None if position % 4 == 3 else "grade"
        return self._query(self.udf, float(alpha), float(beta), column)

    def run(self, seconds, ops, tracer) -> None:
        started = self._start_timed(self.service, self.udf)
        for done in itertools.count():
            if not self._keep_going(started, seconds, ops, done):
                break
            self.unit = done
            query = self._draw_query(done)
            self._reset_memo()  # every query starts memo-cold
            self._timed_query(tracer, self.service, query, "miss", self.rows)
        self._end_timed()


class UdfProcess(Workload):
    """Closed loop, 1 client, python-callable UDF (~20 us/row) on the process
    backend over a 40k-row 8-shard table: the only workload where procpool,
    shm export and IPC carry the time.
    """

    name = "udf_process"
    rows = 40_000
    min_ops = 100
    setup_repeats = 3  # two seconds each: it spawns the worker pool
    spin = 150

    def setup(self) -> None:
        self.table = ShardedTable.from_columns(
            TABLE, self.columns, hidden_columns=["is_good"], num_shards=8
        )
        self.udf = UserDefinedFunction("bench_spin", SpinLabel("is_good", self.spin))
        self.service = self._serve(
            self.table,
            self.udf,
            ServiceConfig(
                executor="process", max_workers=os.cpu_count() or 1, free_memoized=False
            ),
        )
        self.queries = [self._query(self.udf, a, b) for a, b in SIGNATURES[:4]]
        self._warm(self.queries)  # plans; spawns the pool and exports the shards
        self.udf.reset()
        self._warm(self.queries[:2])  # workers import and attach

    def run(self, seconds, ops, tracer) -> None:
        started = self._start_timed(self.service, self.udf)
        for done in itertools.count():
            if not self._keep_going(started, seconds, ops, done):
                break
            self.unit = done
            self._reset_memo()  # workers evaluate every row afresh
            query = self.queries[done % len(self.queries)]
            self._timed_query(tracer, self.service, query, "hit", self.rows)
        self._end_timed()


class DurableChurn(Workload):
    """Closed loop, 1 client, durable 100k-row 8-shard table: WAL appends
    beside refresh and hit queries, and every 10th cycle a checkpoint, a
    restored query and reads under a residency budget a third of the read
    set; the only workload where storage, residency, index extension and
    in-place re-solve run.
    """

    name = "durable_churn"
    rows = 100_000
    min_ops = 20  # cycles of {append, 2 refresh queries, 3 hit queries}
    restart_every = 10

    def __init__(self, seed, rows_scale=1.0, workdir="."):
        super().__init__(seed, rows_scale, workdir)
        self.delta_rows = self.rows // 100
        self.history: List[Dict[str, list]] = []
        self.directory = ""
        self.manager: Optional[ResidencyManager] = None
        self.restarts = 0
        self.evictions_seen = False

    def _scaled_rows(self, rows_scale: float) -> int:
        # Shards of rows/8 and deltas of rows/100: a tail is always a whole
        # number of deltas, never half a shard (see the budget in _reopen_lazy).
        return super()._scaled_rows(rows_scale) // 800 * 800

    # -- durable plumbing --------------------------------------------------------
    def _new_udf(self) -> UserDefinedFunction:
        # UDFs are code, not data: re-registered under one name after a reopen.
        return UserDefinedFunction.from_label_column("bench_label", "is_good")

    def _open_service(self, catalog: Catalog, budget: Optional[int] = None) -> None:
        self.udf = self._new_udf()
        catalog.register_udf(self.udf)
        self.table = catalog.table(TABLE)
        self.service = QueryService(
            Engine(catalog),
            config=ServiceConfig(storage_dir=self.directory, memory_budget_bytes=budget),
        )
        self.queries = [self._query(self.udf, a, b) for a, b in SIGNATURES[:2]]
        if self.tape is not None:
            self.tape.watch(self.service, self.udf)

    def _close_service(self) -> None:
        self.service.close()  # checkpoint + warm state
        if self.tape is not None:
            self.tape.settle(self.service, self.udf)
        self.service = None

    def _next_delta(self) -> Dict[str, list]:
        """The next seeded 1% delta (input generation: outside every timer)."""
        delta, labels = make_columns(self.delta_rows, self.rng)
        self.history.append(delta)
        self.labels = np.concatenate([self.labels, labels])
        self.user_bytes += _user_bytes(delta)
        return delta

    def _append(self, delta: Dict[str, list]) -> None:
        """Journal and apply ``delta`` (an acknowledged write)."""
        CatalogStore(self.directory).table_store(TABLE).append(self.table, delta)

    def setup(self) -> None:
        self.directory = os.path.join(
            self.workdir, f"{self.name}-{os.getpid()}-{time.monotonic_ns()}"
        )
        table = ShardedTable.from_columns(
            TABLE, self.columns, hidden_columns=["is_good"], num_shards=8
        )
        catalog = Catalog()
        catalog.register_table(table)
        CatalogStore(self.directory).save(catalog)
        self._open_service(catalog)
        # The bulk-loaded layout ends in a full shard, so the first append
        # ever pays a one-time tail seal; steady churn does not.
        self._append(self._next_delta())
        self._warm(self.queries)

    # -- the timed phase ---------------------------------------------------------
    def _step(self, tracer, action) -> None:
        """A restart step: inside the timed wall, not a throughput op."""
        op = Op(next(self._op_ids), "restart", unit=self.unit)
        self._timed(tracer, op, action)
        if not op.ok:
            raise InvalidBenchmark(f"restart step failed: {op.error}")

    def _reopen_lazy(self) -> None:
        # watermark=1.0: with the default 0.9 every eviction is preceded by a
        # 'high' edge that sheds the plan cache, and the path of the next
        # query would depend on eviction timing instead of being prescribed.
        self.manager = ResidencyManager(watermark=1.0)
        catalog, _ = CatalogStore(self.directory).open(residency=self.manager)
        largest = max(
            shard.segment_handle("is_good").payload_bytes
            for shard in catalog.table(TABLE).shards
        )
        # 2.5 label segments of 8 (plus tails): the queries' read set is more
        # than three times the budget.  The odd byte keeps resident bytes
        # from ever equalling the budget, which would read as 'high'.
        self.tape.watch(self.manager)
        self._open_service(catalog, budget=int(2.5 * largest) + 1)

    def _reopen_eager(self) -> None:
        self._close_service()
        self.tape.settle(self.manager)
        self.evictions_seen = self.evictions_seen or self.manager.snapshot()["evictions"] > 0
        self.manager = None
        catalog, _ = CatalogStore(self.directory).open()
        self._open_service(catalog)

    def _restart(self, tracer) -> None:
        self.restarts += 1
        self._step(tracer, self._close_service)
        self._step(tracer, self._reopen_lazy)
        rows = self.table.num_rows
        self._timed_query(tracer, self.service, self.queries[0], "restored", rows)
        for _ in range(3):
            self._reset_memo()  # forces label reads, so map/evict traffic
            self._timed_query(tracer, self.service, self.queries[0], "hit", rows)
        self._step(tracer, self._reopen_eager)

    def run(self, seconds, ops, tracer) -> None:
        started = self._start_timed(self.service, self.udf)
        for cycle in itertools.count():
            if not self._keep_going(started, seconds, ops, cycle):
                break
            self.unit = cycle
            delta = self._next_delta()
            self._timed(
                tracer, Op(next(self._op_ids), "append", unit=cycle), lambda: self._append(delta)
            )
            rows = self.table.num_rows
            for query in self.queries:
                self._timed_query(tracer, self.service, query, "refresh", rows)
            for position in range(3):
                query = self.queries[position % len(self.queries)]
                self._timed_query(tracer, self.service, query, "hit", rows)
            if cycle % self.restart_every == self.restart_every - 1:
                self._restart(tracer)
        self._end_timed()

    def teardown(self) -> List[str]:
        found = super().teardown()
        if self.directory and os.path.isdir(self.directory):
            if self.ops:
                found.extend(self._compare_with_twin())
            shutil.rmtree(self.directory, ignore_errors=True)
        return found

    def _compare_with_twin(self) -> List[str]:
        """Every acknowledged append must be readable after a reopen."""
        catalog, _ = CatalogStore(self.directory).open()
        table = catalog.table(TABLE)
        wrong = []
        for name, base in self.columns.items():
            twin = np.asarray(list(itertools.chain(base, *(d[name] for d in self.history))))
            stored = table.column_array(name, allow_hidden=True)
            if len(stored) != len(twin) or not np.array_equal(stored, twin):
                wrong.append(f"column {name!r} differs from its in-memory twin after reopen")
        if self.restarts and not self.evictions_seen:
            wrong.append("the residency budget caused no eviction")
        del table, catalog
        gc.collect()
        return wrong


class AsyncClients(Workload):
    """Closed loop, 4 concurrent asyncio clients through submit_async onto 2
    pool threads, 6 zipf-popular warm signatures on a 24k-row table: the
    only workload with admission, the front-end pool, flight checks and
    requests queueing behind each other.
    """

    name = "async_clients"
    rows = 24_000
    min_ops = 1_000
    clients = 4
    #: Requests each client sends per round.  Between rounds nothing is in
    #: flight, which is when the machine-speed probe can run undisturbed: on
    #: the loop's thread beside busy pool threads it would time the
    #: interpreter lock, not the machine.
    round_length = 10
    zipf_s = 1.1

    def setup(self) -> None:
        self.table = ShardedTable.from_columns(
            TABLE, self.columns, hidden_columns=["is_good"], num_shards=4
        )
        self.udf = UserDefinedFunction.from_label_column("bench_label", "is_good")
        self.service = self._serve(
            self.table,
            self.udf,
            ServiceConfig(
                free_memoized=False, max_concurrency=os.cpu_count() or 1, max_pending=64
            ),
        )
        self.queries = [self._query(self.udf, a, b) for a, b in SIGNATURES]
        self._warm(self.queries)
        self._warm(self.queries * 2)

    def run(self, seconds, ops, tracer) -> None:
        started = self._start_timed(self.service, self.udf)
        asyncio.run(self._drive(started, seconds, ops, tracer))
        self._end_timed()

    async def _drive(self, started, seconds, ops, tracer) -> None:
        service = self.service
        weights = 1.0 / np.power(np.arange(1, len(self.queries) + 1, dtype=float), self.zipf_s)
        weights /= weights.sum()
        per_round = self.clients * self.round_length

        async def client(ops_of_client: List[Op], picks: np.ndarray) -> None:
            for op, pick in zip(ops_of_client, picks):
                query = self.queries[int(pick)]
                result = None
                with tracer.op(op.op_id):
                    begun = time.perf_counter()
                    try:
                        result = await service.submit_async(query, seed=op.op_id)
                    except Exception as exc:  # typed refusals included: a failed op
                        op.ok = False
                        op.error = f"{type(exc).__name__}: {exc}"
                    op.end_s = time.perf_counter()
                    op.latency_s = op.end_s - begun
                op.probe_s = self.probe.spent_s
                if result is not None:
                    self._score(op, result, query, self.rows)

        done = 0
        while self._keep_going(started, seconds, ops, done):
            count = per_round if ops is None else min(per_round, ops - done)
            batch = [Op(next(self._op_ids), "query", "hit", unit=done + i) for i in range(count)]
            picks = self.rng.choice(len(self.queries), size=count, p=weights)
            await asyncio.gather(
                *[
                    client(batch[k :: self.clients], picks[k :: self.clients])
                    for k in range(self.clients)
                ]
            )
            self.ops.extend(batch)
            self.probe.sample_if_due()
            done += count


WORKLOADS = {
    cls.name: cls for cls in (WarmHits, ColdPlans, UdfProcess, DurableChurn, AsyncClients)
}
