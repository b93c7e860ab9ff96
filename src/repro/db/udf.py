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
from repro.db.table import Table, select_rows
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
    free_memoized:
        The accounting of the request this ledger belongs to.  ``False``
        (the default) keeps the paper's: every execution-phase evaluation is
        charged.  ``True`` is serving accounting: the bulk UDF entry points
        (:meth:`UserDefinedFunction.evaluate_rows` and
        :meth:`UserDefinedFunction.merge_remote_evaluations`, which every
        vectorised executor charges through) do not charge again for rows
        whose value is already memoised, as a production system never pays
        twice for the same expensive predicate.  The tuple-at-a-time
        reference, :class:`~repro.core.executor.PlanExecutor`, always charges
        the paper's way.
    """

    retrieval_cost: float = 1.0
    evaluation_cost: float = 3.0
    retrieved_count: int = 0
    evaluated_count: int = 0
    _budget: Optional[float] = None
    free_memoized: bool = False

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


def call_on_rows(
    func: Callable[[Mapping[str, Any]], bool], columns: Mapping[str, np.ndarray]
) -> np.ndarray:
    """``func`` on every row of ``columns``, as one boolean array.

    ``columns`` maps each column name to its cells at the rows, in row
    order (one gather per column).  Each array's ``tolist`` gives the python
    values :meth:`Table.row` hands out, zipped into one dict per row.  The
    one way a python-callable UDF is evaluated in bulk, in-process
    (:meth:`UserDefinedFunction.evaluate_rows`) and in a pool worker
    (:func:`repro.core.procpool.spec_evaluate`), so both see the same values.
    """
    names = list(columns)
    cells = [array.tolist() for array in columns.values()]
    return np.fromiter(
        (bool(func(dict(zip(names, row)))) for row in zip(*cells)),
        dtype=bool,
        count=len(cells[0]) if cells else 0,
    )


#: Memo slot states.  ``bool + _FALSE`` maps False/True onto the last two.
_UNKNOWN, _FALSE, _TRUE = 0, 1, 2


def _check_not_negative(row_id: int) -> None:
    """Refuse the ids a gather (or the position-indexed memo) would wrap."""
    if row_id < 0:
        raise IndexError(f"row id {row_id} out of range: row ids are table positions")


def _row_id_array(row_ids: Iterable[int]) -> np.ndarray:
    ids = np.asarray(row_ids, dtype=np.intp)
    if ids.size:
        _check_not_negative(int(ids.min()))
    return ids


class UserDefinedFunction:
    """An expensive boolean UDF with call accounting.

    The memo is one growable ``int8`` array indexed by row id, a tri-state
    per row (unknown / false / true), so "known?" and "value?" are a single
    gather.  Its one assumption is that row ids are table positions
    (non-negative, dense, growing by append): it costs one byte per row up
    to the highest id touched, and an id past its end is simply not memoised.
    Writes take the state lock and are amortised O(1) per row (in place; the
    array doubles when an id lands past its end).  Readers never block: they
    capture the array reference once, and one that raced a write at worst
    re-evaluates a row.  No write or lookup does work proportional to the
    memo's size.

    Parameters
    ----------
    name:
        UDF name (unique within a registry).
    func:
        Callable mapping a full row dict (hidden columns included) to a
        boolean.
    evaluation_cost:
        Cost charged per *distinct* evaluation (memoised repeats are free,
        mirroring the fact that a real system would cache a value it already
        paid for).
    """

    def __init__(
        self,
        name: str,
        func: Callable[[Mapping[str, Any]], bool],
        evaluation_cost: float = 3.0,
    ):
        if evaluation_cost < 0:
            raise ValueError(f"evaluation_cost must be non-negative, got {evaluation_cost}")
        self.name = name
        self._func = func
        self.evaluation_cost = evaluation_cost
        self._memo = np.zeros(0, dtype=np.int8)
        self._memo_count = 0  # known slots in ``_memo``: the ``cache_size`` counter
        self.call_count = 0
        #: Row evaluations answered from the memo cache (no function call).
        self.cache_hits = 0
        #: Row evaluations that had to invoke the underlying function.
        self.cache_misses = 0
        #: Paid :meth:`evaluate_row` invocations (per-row API calls).  The
        #: cold-path tests hold this at 0 beside :attr:`bulk_calls` to prove
        #: the pipeline stays batched.
        self.row_calls = 0
        #: Paid :meth:`evaluate_rows` invocations (batched API calls).
        self.bulk_calls = 0
        #: Set by :meth:`from_label_column`; enables vectorised evaluation.
        self.label_column: Optional[str] = None
        self.positive_value: Any = True
        self._oracle_depth = 0
        # Counter/memo mutations are lock-protected so concurrent bulk calls
        # (requests served on several threads share one UDF) keep the
        # paid-evaluation accounting exact — the CI parity
        # gates compare these counters at ±0.  The lock is taken per bulk
        # call, not per row, so the serial hot path is unaffected.
        self._state_lock = threading.Lock()
        # Memoised answer to "does self._func pickle?" for worker_spec().
        self._func_ships: Optional[bool] = None

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

    def vectorised_on(self, table: Table) -> bool:
        """Whether bulk evaluation on ``table`` is one column gather, not a row loop.

        True for a label-column UDF whose column is in this table's schema.
        A gather runs in NumPy kernels that release the GIL, a python
        callable per row holds it — which is what the serving layer asks
        before letting a request share a pool task with others.
        """
        return self.label_column is not None and table.schema.has_column(
            self.label_column
        )

    def evaluate_row(self, table: Table, row_id: int) -> bool:
        """Evaluate the UDF on one row of ``table`` (charges one call)."""
        state = self._memo_state(row_id)
        hit = state != _UNKNOWN
        result = state == _TRUE
        if not hit:
            result = bool(self._func(table.row(row_id, include_hidden=True)))
        if self._oracle_depth:
            return result
        with self._state_lock:
            self.row_calls += 1
            if hit:
                self.cache_hits += 1
            else:
                self.call_count += 1
                self.cache_misses += 1
                memo = self._memo_with_room(row_id + 1)
                self._memo_count += int(memo[row_id] == _UNKNOWN)
                memo[row_id] = _TRUE if result else _FALSE
                self._memo = memo
        return result

    def evaluate_rows(
        self,
        table: Table,
        row_ids: Iterable[int],
        mask: Optional[np.ndarray] = None,
        ledger: Optional[CostLedger] = None,
    ) -> np.ndarray:
        """Evaluate the UDF on many rows at once, returning a boolean array.

        ``mask`` (boolean, one entry per id) picks the rows to evaluate;
        without one every row is.  The result holds one entry per id: the
        UDF's value on a picked row, ``False`` on the others.  The memo is
        read once over all of ``row_ids``; the charge, the counters and the
        split into answered and pending rows all come from that read.

        ``ledger``, when given, is charged first, before any UDF work: every
        picked row, or under the ledger's serving accounting (see
        :class:`CostLedger`) only the picked rows the memo does not know — so
        a hard budget raises before any counter moves or any value is
        memoised.  Picked rows the memo
        knows are answered from it (counted as hits); only the rest invoke
        the function, in the order given.  Label-column UDFs take a
        vectorised fast path through :meth:`Table.gather_column`; arbitrary
        callables get row dicts from one gather per column
        (:func:`call_on_rows`).  Counter semantics
        match :meth:`evaluate_row`: one bulk call, and
        ``call_count``/``cache_misses`` advance once per actual function
        evaluation.
        """
        oracle = bool(self._oracle_depth)
        id_array = _row_id_array(row_ids)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != id_array.shape:
                raise ValueError(
                    f"mask shape {mask.shape} does not match row_ids shape {id_array.shape}"
                )
        results, pending_positions, pending_array = self._bulk_split(
            id_array, oracle, mask, ledger, evaluating=True
        )
        if pending_array.size:
            if self.vectorised_on(table):
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
                fresh = call_on_rows(
                    self._func,
                    {
                        name: table.gather_column(name, pending_array, allow_hidden=True)
                        for name in table.schema.column_names
                    },
                )
            self._bulk_absorb(results, pending_positions, pending_array, fresh, oracle)
        return results

    def merge_remote_evaluations(
        self,
        row_ids: Iterable[int],
        outcomes: Iterable[bool],
        ledger: Optional[CostLedger] = None,
    ) -> np.ndarray:
        """Fold UDF outcomes evaluated in a worker process into this instance.

        The process-pool executor evaluates rows against memory-mapped column
        files in workers that hold only a :class:`UdfSpec` — no memo cache, no
        counters.  The parent calls this with the worker's ``(row_ids,
        outcomes)`` to replay exactly the accounting :meth:`evaluate_rows`
        would have produced locally, from the same one memo read: ``ledger``
        charged first (same rule), one bulk call, memoised rows counted as
        hits (their cached value wins; determinism makes the remote outcome
        identical), pending rows counted as misses and absorbed into the memo
        cache.  Returns the final boolean array for ``row_ids``, so serial
        and process-pool execution are bitwise indistinguishable to callers
        and to the CI parity gates.
        """
        oracle = bool(self._oracle_depth)
        id_array = _row_id_array(row_ids)
        outcome_array = np.asarray(outcomes, dtype=bool)
        if outcome_array.shape != id_array.shape:
            raise ValueError(
                f"outcomes shape {outcome_array.shape} does not match "
                f"row_ids shape {id_array.shape}"
            )
        results, pending_positions, pending_array = self._bulk_split(
            id_array, oracle, None, ledger
        )
        if pending_array.size:
            fresh = (
                outcome_array
                if pending_positions is None
                else select_rows(outcome_array, pending_positions)
            )
            self._bulk_absorb(results, pending_positions, pending_array, fresh, oracle)
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
        if self._func_ships is None:
            try:
                pickle.loads(pickle.dumps(self._func))
            except Exception:
                self._func_ships = False
            else:
                self._func_ships = True
        if not self._func_ships:
            raise UnpicklableUdfError(self.name, self._func)
        return UdfSpec(self.name, None, self.positive_value, self._func)

    def _bulk_split(
        self,
        id_array: np.ndarray,
        oracle: bool,
        mask: Optional[np.ndarray],
        ledger: Optional[CostLedger],
        evaluating: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """The one memo read of a bulk call: charge, count, split.

        Reads the memo once over ``id_array`` and, from that read, charges
        ``ledger`` for the rows ``mask`` picks (all of them, or under the
        ledger's serving accounting the unknown ones), fires the ``udf_eval``
        fault site when ``evaluating``, counts one bulk call plus the picked rows the
        memo answered, and returns ``(results, pending_positions,
        pending_array)``: ``results`` has memo-answered positions filled in
        (``False`` outside the mask), ``pending_array`` holds the row ids
        still needing evaluation, and ``pending_positions`` their mask over
        ``results`` — ``None`` when every row is pending, and then
        ``pending_array`` is ``id_array`` itself (the gather goes through
        :func:`~repro.db.table.select_rows`).  Shared by :meth:`evaluate_rows` and
        :meth:`merge_remote_evaluations` so the two paths cannot drift.
        """
        if self._memo.size:
            states = self._memo_states(id_array)
            results = states == _TRUE
            pending_positions: Optional[np.ndarray] = states == _UNKNOWN
            if mask is not None:
                results &= mask
                pending_positions &= mask
        elif mask is None:
            results = np.empty(id_array.size, dtype=bool)
            pending_positions = None
        else:
            results = np.zeros(id_array.size, dtype=bool)
            pending_positions = mask
        pending_array = id_array
        if pending_positions is not None:
            pending_array = select_rows(id_array, pending_positions)
            if pending_array is id_array:
                pending_positions = None
        picked = id_array.size if mask is None else int(np.count_nonzero(mask))
        if ledger is not None:
            charge = int(pending_array.size) if ledger.free_memoized else picked
            if charge:
                ledger.charge_evaluation(charge)
        if evaluating:
            # Fault-injection site ``udf_eval`` (tests only; a ``None`` check
            # otherwise): a ``sleep`` rule here models the paper's
            # adversarially slow predicate without touching the UDF under
            # test.  It fires after the charge, before any UDF work.
            _faults.maybe_fire(_faults.active_plan(), "udf_eval")
        if not oracle:
            with self._state_lock:
                self.bulk_calls += 1
                self.cache_hits += picked - int(pending_array.size)
        return results, pending_positions, pending_array

    def _bulk_absorb(
        self,
        results: np.ndarray,
        pending_positions: Optional[np.ndarray],
        pending_array: np.ndarray,
        fresh: np.ndarray,
        oracle: bool,
    ) -> None:
        """Scatter fresh outcomes into ``results`` and absorb the paid work.

        The other half of :meth:`_bulk_split`: advances
        ``call_count``/``cache_misses`` once per fresh outcome and writes the
        memo cache, regardless of whether the outcomes were computed locally
        or merged back from a worker process.
        """
        if pending_positions is None:
            results[:] = fresh
        else:
            results[pending_positions] = fresh
        if not oracle:
            paid = int(pending_array.size)
            with self._state_lock:
                self.call_count += paid
                self.cache_misses += paid
                self._memo_write(pending_array, fresh)

    def _memo_state(self, row_id: int) -> int:
        """The memo's tri-state for one row id (lock-free)."""
        _check_not_negative(row_id)
        memo = self._memo
        return int(memo[row_id]) if row_id < memo.size else _UNKNOWN

    def _memo_states(self, ids: np.ndarray) -> np.ndarray:
        """One gather of tri-states for non-negative ``ids``, lock-free: it
        reads one captured reference, so a concurrent grow cannot tear it."""
        memo = self._memo
        if ids.size and int(ids.max()) >= memo.size:
            inside = ids < memo.size
            states = np.zeros(ids.size, dtype=np.int8)
            states[inside] = memo[ids[inside]]
            return states
        return memo[ids]

    def _memo_with_room(self, size: int) -> np.ndarray:
        """The memo array, regrown to hold ``size`` slots (state lock held).
        The caller writes into it and then assigns ``self._memo``, so readers
        see the old array or the grown one with the write already in it."""
        memo = self._memo
        if size <= memo.size:
            return memo
        grown = np.zeros(max(size, 2 * memo.size), dtype=np.int8)
        grown[: memo.size] = memo
        return grown

    def _memo_write(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Record ``values`` for non-empty ``ids`` (state lock held)."""
        memo = self._memo_with_room(int(ids.max()) + 1)
        # A batch may repeat an id; ``cache_size`` counts each new slot once
        # (distinct = size - adjacent equal pairs, over this batch's new ids).
        new_ids = np.sort(ids[memo[ids] == _UNKNOWN])
        self._memo_count += int(new_ids.size - np.count_nonzero(new_ids[1:] == new_ids[:-1]))
        memo[ids] = values.astype(np.int8) + _FALSE
        self._memo = memo

    def memo_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The memo as ``(ascending row ids, boolean values)`` — what warm
        state writes.  Scans the whole array: for checkpoints and tests."""
        memo = self._memo
        ids = np.flatnonzero(memo)
        return ids, memo[ids] == _TRUE

    def absorb_memo(self, row_ids: Iterable[int], values: Iterable[bool]) -> None:
        """Install paid-for values without advancing any counter (warm-state
        restore only: the process that wrote them was charged for them)."""
        id_array = _row_id_array(row_ids)
        value_array = np.asarray(values, dtype=bool)
        if value_array.shape != id_array.shape:
            raise ValueError(f"{value_array.shape} values for {id_array.shape} row ids")
        if id_array.size:
            with self._state_lock:
                self._memo_write(id_array, value_array)

    def is_memoized(self, row_id: int) -> bool:
        """Whether the UDF value for ``row_id`` is already cached."""
        return self._memo_state(row_id) != _UNKNOWN

    def counter_snapshot(self) -> Dict[str, int]:
        """Memoisation counters as a plain dict (for result metadata)."""
        return {
            "calls": self.call_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_size": self._memo_count,
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
        return bool(self._func(row))

    def reset(self) -> None:
        """Clear the memo cache and every counter."""
        with self._state_lock:
            self._memo = np.zeros(0, dtype=np.int8)
            self._memo_count = 0
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
