"""User-defined functions with cost accounting.

The paper charges ``o_e`` for every UDF evaluation and ``o_r`` for every tuple
retrieval.  :class:`CostLedger` tracks both so that an algorithm's total cost
``O = sum o_r (R+ + R-) + o_e (E+ + E-)`` can be read off after execution,
including the sampling phase (whose evaluations the paper explicitly counts).

:class:`UserDefinedFunction` wraps an arbitrary Python callable over a row
dict.  The common case in the reproduction is a UDF that simply reveals a
hidden ground-truth label column — exactly the simulation protocol of
Section 6.1 — but any callable works.
"""

from __future__ import annotations

import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.db.errors import (
    BudgetExhaustedError,
    DuplicateObjectError,
    UdfNotFoundError,
    UnpicklableUdfError,
)
from repro.db.table import Table
from repro.obs import metrics as _metrics
from repro.resilience import faults as _faults


@dataclass
class CostLedger:
    """Accumulates retrieval and evaluation costs.

    Attributes
    ----------
    retrieval_cost:
        Cost ``o_r`` charged per retrieved tuple.
    evaluation_cost:
        Cost ``o_e`` charged per UDF evaluation.
    """

    retrieval_cost: float = 1.0
    evaluation_cost: float = 3.0
    retrieved_count: int = 0
    evaluated_count: int = 0
    _budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retrieval_cost < 0 or self.evaluation_cost < 0:
            raise ValueError("costs must be non-negative")

    @property
    def total_cost(self) -> float:
        """Total cost charged so far."""
        return (
            self.retrieved_count * self.retrieval_cost
            + self.evaluated_count * self.evaluation_cost
        )

    @property
    def budget(self) -> Optional[float]:
        """Optional hard budget on total cost."""
        return self._budget

    def set_budget(self, budget: Optional[float]) -> None:
        """Install (or clear) a hard cost budget."""
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self._budget = budget

    def charge_retrieval(self, count: int = 1) -> None:
        """Charge for ``count`` tuple retrievals."""
        self._check_budget(count * self.retrieval_cost)
        self.retrieved_count += count

    def charge_evaluation(self, count: int = 1) -> None:
        """Charge for ``count`` UDF evaluations."""
        self._check_budget(count * self.evaluation_cost)
        self.evaluated_count += count

    def _check_budget(self, additional: float) -> None:
        if self._budget is not None and self.total_cost + additional > self._budget + 1e-9:
            raise BudgetExhaustedError(self._budget, self.total_cost)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict snapshot for reports."""
        return {
            "retrieved": self.retrieved_count,
            "evaluated": self.evaluated_count,
            "retrieval_cost": self.retrieval_cost,
            "evaluation_cost": self.evaluation_cost,
            "total_cost": self.total_cost,
        }

    def reset(self) -> None:
        """Zero the counters (the unit costs and budget stay)."""
        self.retrieved_count = 0
        self.evaluated_count = 0


class RevealLabel:
    """Picklable row callable that reveals a hidden ground-truth label column.

    This is the function behind :meth:`UserDefinedFunction.from_label_column`.
    It lives at module level (rather than as a closure) so every label-column
    UDF can be pickled into process-pool workers — closures cannot cross a
    process boundary, module-level callables can.
    """

    __slots__ = ("label_column", "positive_value")

    def __init__(self, label_column: str, positive_value: Any = True):
        self.label_column = label_column
        self.positive_value = positive_value

    def __call__(self, row: Mapping[str, Any]) -> bool:
        if self.label_column not in row:
            raise KeyError(
                f"row does not carry hidden label column {self.label_column!r}; "
                "evaluate through Engine/Executor so hidden columns are included"
            )
        return row[self.label_column] == self.positive_value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RevealLabel({self.label_column!r}, {self.positive_value!r})"


@dataclass(frozen=True)
class UdfSpec:
    """A picklable description of a UDF for process-pool workers.

    Workers never see the stateful :class:`UserDefinedFunction` (its memo
    cache, counters, and locks stay in the parent); they receive this spec,
    evaluate rows locally, and ship boolean outcomes back for the parent to
    fold in via :meth:`UserDefinedFunction.merge_remote_evaluations`.

    ``func`` is ``None`` when ``label_column`` is set — the worker then takes
    the vectorised label fast path and only needs that one column exported.
    """

    name: str
    label_column: Optional[str]
    positive_value: Any
    func: Optional[Callable[[Mapping[str, Any]], bool]]


class UserDefinedFunction:
    """An expensive boolean UDF with call accounting.

    Parameters
    ----------
    name:
        UDF name (unique within a registry).
    func:
        Callable mapping a full row dict (hidden columns included) to a
        boolean.
    evaluation_cost:
        Cost charged per *distinct* evaluation (memoised repeats are free when
        ``memoize`` is true, mirroring the fact that a real system would cache
        a value it already paid for).
    memoize:
        Cache results per row id.
    """

    def __init__(
        self,
        name: str,
        func: Callable[[Mapping[str, Any]], bool],
        evaluation_cost: float = 3.0,
        memoize: bool = True,
    ):
        if evaluation_cost < 0:
            raise ValueError(f"evaluation_cost must be non-negative, got {evaluation_cost}")
        self.name = name
        self._func = func
        self.evaluation_cost = evaluation_cost
        self.memoize = memoize
        self._cache: Dict[int, bool] = {}
        self.call_count = 0
        #: Row evaluations answered from the memo cache (no function call).
        self.cache_hits = 0
        #: Row evaluations that had to invoke the underlying function.
        self.cache_misses = 0
        #: Paid :meth:`evaluate_row` invocations (per-row API calls).  The
        #: cold-path benchmarks gate this against :attr:`bulk_calls` to prove
        #: the pipeline stays batched.
        self.row_calls = 0
        #: Paid :meth:`evaluate_rows` invocations (batched API calls).
        self.bulk_calls = 0
        #: Set by :meth:`from_label_column`; enables vectorised evaluation.
        self.label_column: Optional[str] = None
        self.positive_value: Any = True
        self._oracle_depth = 0
        # Counter/memo mutations are lock-protected so concurrent bulk calls
        # (the parallel executor evaluates disjoint shard spans on worker
        # threads) keep the paid-evaluation accounting exact — the CI parity
        # gates compare these counters at ±0.  The lock is taken per bulk
        # call, not per row, so the serial hot path is unaffected.
        self._state_lock = threading.Lock()
        # Sorted snapshot of the memo cache (ids array + aligned values
        # array) for vectorised bulk lookups; rebuilt lazily after writes.
        self._memo_snapshot: Optional[tuple] = None
        # Memoised answer to "does self._func pickle?" for worker_spec().
        self._func_picklable: Optional[bool] = None
        # Binds the name, not ``self``: a closure over the UDF would make it
        # (and its memo cache) a reference cycle only the collector frees.
        self._obs_counters = _metrics.BoundCounterCache(
            lambda registry, key: registry.counter(f"repro_udf_{key}_total", udf=name)
        )

    @classmethod
    def from_label_column(
        cls,
        name: str,
        label_column: str,
        evaluation_cost: float = 3.0,
        positive_value: Any = True,
    ) -> "UserDefinedFunction":
        """A UDF that reveals a hidden label column (the paper's protocol)."""
        udf = cls(
            name=name,
            func=RevealLabel(label_column, positive_value),
            evaluation_cost=evaluation_cost,
        )
        udf.label_column = label_column
        udf.positive_value = positive_value
        return udf

    @contextmanager
    def oracle_mode(self):
        """Side-effect-free evaluation for auditors and ground-truth readers.

        Inside the context, evaluations read the memo cache but never write
        it and never advance any counter — so peeking at the truth (which no
        real system could do for free) cannot make later *paid* evaluations
        look already-paid-for to serving-layer accounting.
        """
        self._oracle_depth += 1
        try:
            yield self
        finally:
            self._oracle_depth -= 1

    def evaluate_row(self, table: Table, row_id: int) -> bool:
        """Evaluate the UDF on one row of ``table`` (charges one call)."""
        if self._oracle_depth:
            if self.memoize and row_id in self._cache:
                return self._cache[row_id]
            return bool(self._func(table.row(row_id, include_hidden=True)))
        registry = _metrics.get_registry()
        if self.memoize and row_id in self._cache:
            with self._state_lock:
                self.row_calls += 1
                self.cache_hits += 1
            if registry.enabled:
                self._obs_counters.get(registry, "row_calls").inc()
                self._obs_counters.get(registry, "memo_hits").inc()
            return self._cache[row_id]
        row = table.row(row_id, include_hidden=True)
        result = bool(self._func(row))
        with self._state_lock:
            self.row_calls += 1
            self.call_count += 1
            self.cache_misses += 1
            if self.memoize:
                self._cache[row_id] = result
                self._memo_snapshot = None
        if registry.enabled:
            self._obs_counters.get(registry, "row_calls").inc()
            self._obs_counters.get(registry, "evaluations").inc()
        return result

    def evaluate_rows(self, table: Table, row_ids: Iterable[int]) -> np.ndarray:
        """Evaluate the UDF on many rows at once, returning a boolean array.

        Memoised rows are answered from the cache (counted as hits); only the
        remaining rows invoke the function.  Label-column UDFs take a
        vectorised fast path through :meth:`Table.column_array`; arbitrary
        callables fall back to per-row dict evaluation.  Counter semantics
        match :meth:`evaluate_row`: ``call_count``/``cache_misses`` advance
        once per actual function evaluation.
        """
        oracle = bool(self._oracle_depth)
        registry = _metrics.get_registry()
        # Fault-injection site ``udf_eval`` (tests only; a ``None`` check
        # otherwise): a ``sleep`` rule here models the paper's adversarially
        # slow predicate without touching the UDF under test.
        _faults.maybe_fire(_faults.active_plan(), "udf_eval")
        id_array = np.asarray(row_ids, dtype=np.intp)
        results, pending_positions, pending_array = self._bulk_split(
            id_array, oracle, registry
        )
        if pending_array.size:
            if self.label_column is not None and table.schema.has_column(self.label_column):
                # gather_column (not column_array[...]): residency-managed
                # tables serve the gather shard-at-a-time with the segment
                # pinned, instead of materialising the whole label column.
                fresh = np.asarray(
                    table.gather_column(
                        self.label_column, pending_array, allow_hidden=True
                    )
                    == self.positive_value,
                    dtype=bool,
                )
            else:
                fresh = np.fromiter(
                    (
                        bool(self._func(table.row(int(r), include_hidden=True)))
                        for r in pending_array
                    ),
                    dtype=bool,
                    count=int(pending_array.size),
                )
            self._bulk_absorb(
                results, pending_positions, pending_array, fresh, oracle, registry
            )
        return results

    def merge_remote_evaluations(
        self, row_ids: Iterable[int], outcomes: Iterable[bool]
    ) -> np.ndarray:
        """Fold UDF outcomes evaluated in a worker process into this instance.

        The process-pool executor evaluates rows against shared-memory column
        views in workers that hold only a :class:`UdfSpec` — no memo cache, no
        counters.  The parent calls this with the worker's ``(row_ids,
        outcomes)`` to replay exactly the accounting :meth:`evaluate_rows`
        would have produced locally: one bulk call, memoised rows counted as
        hits (their cached value wins; determinism makes the remote outcome
        identical), pending rows counted as misses and absorbed into the memo
        cache.  Returns the final boolean array for ``row_ids``, so serial
        and process-pool execution are bitwise indistinguishable to callers
        and to the CI parity gates.
        """
        oracle = bool(self._oracle_depth)
        registry = _metrics.get_registry()
        id_array = np.asarray(row_ids, dtype=np.intp)
        outcome_array = np.asarray(outcomes, dtype=bool)
        if outcome_array.shape != id_array.shape:
            raise ValueError(
                f"outcomes shape {outcome_array.shape} does not match "
                f"row_ids shape {id_array.shape}"
            )
        results, pending_positions, pending_array = self._bulk_split(
            id_array, oracle, registry
        )
        if pending_array.size:
            if pending_positions is not None:
                fresh = outcome_array[pending_positions]
            else:
                fresh = outcome_array
            self._bulk_absorb(
                results, pending_positions, pending_array, fresh, oracle, registry
            )
        return results

    def worker_spec(self) -> UdfSpec:
        """The picklable :class:`UdfSpec` shipped to process-pool workers.

        Label-column UDFs always qualify (the worker takes the vectorised
        label path and never needs the callable).  Arbitrary callables are
        pickle-tested once (the verdict is memoised); a closure or lambda
        raises :class:`~repro.db.errors.UnpicklableUdfError`, which the
        process executor treats as "fall back to in-process evaluation".
        """
        if self.label_column is not None:
            return UdfSpec(self.name, self.label_column, self.positive_value, None)
        if self._func_picklable is None:
            try:
                pickle.loads(pickle.dumps(self._func))
            except Exception:
                self._func_picklable = False
            else:
                self._func_picklable = True
        if not self._func_picklable:
            raise UnpicklableUdfError(self.name, self._func)
        return UdfSpec(self.name, None, self.positive_value, self._func)

    def _bulk_split(
        self, id_array: np.ndarray, oracle: bool, registry
    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """Count one bulk call and split ``id_array`` against the memo cache.

        Returns ``(results, pending_positions, pending_array)``: ``results``
        has memo-answered positions filled in, ``pending_array`` holds the
        row ids still needing evaluation, and ``pending_positions`` their
        positions in ``results`` (``None`` means everything is pending and
        positions are implicit).  Shared by :meth:`evaluate_rows` and
        :meth:`merge_remote_evaluations` so the two paths cannot drift.
        """
        if not oracle:
            with self._state_lock:
                self.bulk_calls += 1
            if registry.enabled:
                self._obs_counters.get(registry, "bulk_calls").inc()
        if self.memoize and self._cache:
            if self._use_memo_snapshot(id_array.size):
                # Vectorised memo lookup against a sorted snapshot of the
                # cache: one searchsorted + gather instead of a python dict
                # walk per row (the walk dominated large bulk calls and,
                # being GIL-bound, serialised the parallel executor's
                # workers).
                memo_ids, memo_values = self._memo_arrays()
                if memo_ids.size:
                    positions = np.searchsorted(memo_ids, id_array)
                    clipped = np.minimum(positions, memo_ids.size - 1)
                    hit_mask = memo_ids[clipped] == id_array
                else:  # cache cleared between truthiness check and snapshot
                    hit_mask = np.zeros(id_array.size, dtype=bool)
                    memo_values = memo_ids
                    clipped = hit_mask
                results = np.empty(id_array.size, dtype=bool)
                if hit_mask.any():
                    results[hit_mask] = memo_values[clipped[hit_mask]]
                pending_positions = np.flatnonzero(~hit_mask)
                pending_array = id_array[pending_positions]
            else:
                # Stale snapshot + small query: an O(k) dict walk beats
                # re-sorting the whole cache to look up a handful of ids.
                cache = self._cache
                pending_list = []
                results = np.empty(id_array.size, dtype=bool)
                for position, row_id in enumerate(id_array.tolist()):
                    cached = cache.get(row_id)
                    if cached is None:
                        pending_list.append(position)
                    else:
                        results[position] = cached
                pending_positions = np.asarray(pending_list, dtype=np.intp)
                pending_array = id_array[pending_positions]
            if not oracle:
                with self._state_lock:
                    self.cache_hits += int(id_array.size - pending_array.size)
                if registry.enabled:
                    self._obs_counters.get(registry, "memo_hits").inc(
                        int(id_array.size - pending_array.size)
                    )
        else:
            results = np.empty(len(id_array), dtype=bool)
            pending_positions = None  # everything pending, positions implicit
            pending_array = id_array
        return results, pending_positions, pending_array

    def _bulk_absorb(
        self,
        results: np.ndarray,
        pending_positions: Optional[np.ndarray],
        pending_array: np.ndarray,
        fresh: np.ndarray,
        oracle: bool,
        registry,
    ) -> None:
        """Scatter fresh outcomes into ``results`` and absorb the paid work.

        The other half of :meth:`_bulk_split`: advances
        ``call_count``/``cache_misses`` once per fresh outcome and writes the
        memo cache, regardless of whether the outcomes were computed locally
        or merged back from a worker process.
        """
        if pending_positions is not None:
            results[pending_positions] = fresh
        else:
            results[:] = fresh
        if not oracle:
            with self._state_lock:
                self.call_count += int(pending_array.size)
                self.cache_misses += int(pending_array.size)
                if self.memoize:
                    self._cache.update(
                        zip(pending_array.tolist(), fresh.tolist())
                    )
                    self._memo_snapshot = None
            if registry.enabled:
                self._obs_counters.get(registry, "evaluations").inc(
                    int(pending_array.size)
                )

    def _use_memo_snapshot(self, query_size: int) -> bool:
        """Whether a bulk lookup should go through the sorted snapshot.

        A fresh snapshot is free to reuse.  A stale one costs an
        O(cache log cache) rebuild, which only pays off when the query is a
        meaningful fraction of the cache — write-heavy workloads issuing
        small lookups (the warm serving path) stay on the O(k) dict walk.
        """
        if self._memo_snapshot is not None:
            return True
        return query_size * 16 >= len(self._cache)

    def _memo_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """The memo cache as sorted ``(row_ids, values)`` arrays (cached).

        Rebuilt lazily after cache writes; built and returned under the state
        lock so a concurrent writer can neither mutate the dict mid-iteration
        nor hand out a half-stale snapshot.  Callers treat the arrays as
        read-only.
        """
        with self._state_lock:
            snapshot = self._memo_snapshot
            if snapshot is None:
                count = len(self._cache)
                ids = np.fromiter(self._cache.keys(), dtype=np.intp, count=count)
                values = np.fromiter(self._cache.values(), dtype=bool, count=count)
                order = np.argsort(ids, kind="stable")
                snapshot = (ids[order], values[order])
                self._memo_snapshot = snapshot
            return snapshot

    def is_memoized(self, row_id: int) -> bool:
        """Whether the UDF value for ``row_id`` is already cached."""
        return self.memoize and row_id in self._cache

    def memoized_mask(self, row_ids: Iterable[int]) -> np.ndarray:
        """Boolean mask of rows whose UDF value is already memoised.

        Used by serving-accounting executors to charge only un-memoised rows
        without a per-row ``is_memoized`` call.
        """
        ids = np.asarray(row_ids, dtype=np.intp)
        if not self.memoize or not self._cache:
            return np.zeros(ids.size, dtype=bool)
        if not self._use_memo_snapshot(ids.size):
            cache = self._cache
            return np.fromiter(
                (row_id in cache for row_id in ids.tolist()),
                dtype=bool,
                count=ids.size,
            )
        memo_ids, _ = self._memo_arrays()
        if not memo_ids.size:
            return np.zeros(ids.size, dtype=bool)
        positions = np.minimum(np.searchsorted(memo_ids, ids), memo_ids.size - 1)
        return np.asarray(memo_ids[positions] == ids, dtype=bool)

    def counter_snapshot(self) -> Dict[str, int]:
        """Memoisation counters as a plain dict (for result metadata)."""
        return {
            "calls": self.call_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_size": len(self._cache),
            "row_calls": self.row_calls,
            "bulk_calls": self.bulk_calls,
        }

    def counter_delta(self, before: Mapping[str, int]) -> Dict[str, int]:
        """Counter advance since a :meth:`counter_snapshot` was taken.

        Counters are plain (unlocked) attributes shared by everyone holding
        the UDF, so under concurrent execution a delta attributes whatever
        happened on the UDF in the window — treat per-request deltas as
        approximate when requests share a UDF across threads.
        """
        now = self.counter_snapshot()
        return {
            name: now[name] - before.get(name, 0)
            for name in ("calls", "cache_hits", "cache_misses", "row_calls", "bulk_calls")
        }

    def __call__(self, row: Mapping[str, Any]) -> bool:
        """Evaluate directly on a row dict (charges one call, no memoisation)."""
        with self._state_lock:
            self.call_count += 1
            self.cache_misses += 1
            self.row_calls += 1
        registry = _metrics.get_registry()
        if registry.enabled:
            self._obs_counters.get(registry, "row_calls").inc()
            self._obs_counters.get(registry, "evaluations").inc()
        return bool(self._func(row))

    def reset(self) -> None:
        """Clear the memo cache and every counter."""
        with self._state_lock:
            self._cache.clear()
            self._memo_snapshot = None
            self.call_count = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.row_calls = 0
            self.bulk_calls = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UserDefinedFunction({self.name!r}, cost={self.evaluation_cost})"


class UdfRegistry:
    """A name → UDF mapping, as a query engine would maintain."""

    def __init__(self) -> None:
        self._udfs: Dict[str, UserDefinedFunction] = {}

    def register(self, udf: UserDefinedFunction, replace: bool = False) -> None:
        """Register a UDF; refuses to silently overwrite unless ``replace``."""
        if udf.name in self._udfs and not replace:
            raise DuplicateObjectError(f"UDF {udf.name!r} already registered")
        self._udfs[udf.name] = udf

    def get(self, name: str) -> UserDefinedFunction:
        """Look up a UDF by name."""
        try:
            return self._udfs[name]
        except KeyError:
            raise UdfNotFoundError(name) from None

    def __contains__(self, name: object) -> bool:
        return name in self._udfs

    def __iter__(self) -> Iterator[UserDefinedFunction]:
        return iter(self._udfs.values())

    def __len__(self) -> int:
        return len(self._udfs)

    def names(self) -> list[str]:
        """Registered UDF names."""
        return list(self._udfs.keys())
