"""Query engine.

The engine executes :class:`~repro.db.query.SelectQuery` objects against a
:class:`~repro.db.catalog.Catalog`.  Exact queries are evaluated the obvious
way (retrieve and evaluate every candidate tuple).  Approximate queries are
delegated to a pluggable *evaluation strategy* — the paper's Intel-Sample
pipeline in :mod:`repro.core.pipeline` implements the strategy protocol — so
the database layer stays free of optimizer logic.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, FrozenSet, List, Optional, Protocol, Set, Union

import numpy as np
import numpy.typing as npt

from repro.db.catalog import Catalog
from repro.db.errors import DuplicateObjectError, UnsupportedQueryError
from repro.db.query import SelectQuery
from repro.db.table import Table, as_row_ids
from repro.resilience.deadline import check_deadline
from repro.db.udf import CostLedger
from repro.solvers.linear import InfeasibleProblemError
from repro.stats.metrics import ResultQuality, result_quality


def metadata_schema() -> Dict[str, str]:
    """The :attr:`QueryResult.metadata` contract, key by key.

    ``metadata`` is free-form by design — strategies attach their own
    diagnostics — but the keys the engine and serving layer themselves write
    follow a fixed contract.  This helper documents (and lets tests pin) the
    reserved keys:

    ==================  =========================================================
    Key                 Meaning
    ==================  =========================================================
    ``strategy``        How the answer was produced: ``"exact"`` or the
                        strategy's own name (e.g. ``"intel_sample"``).
    ``plan_cache``      Serving-layer plan-cache outcome for this query — one
                        of ``"hit"``, ``"miss"``, ``"refresh"`` or
                        ``"restored"`` (the first hit on an entry loaded from
                        durable storage after a restart; subsequent hits
                        report ``"hit"``).  Absent for queries that bypass
                        the service.
    ``fallback_reason`` Why an approximate plan was abandoned for exhaustive
                        evaluation (e.g. ``"infeasible constraints: ..."``);
                        absent when the plan ran as solved.
    ``session``         Serving-layer admission diagnostics: client id and
                        remaining budget (dict).
    ``stats_cache``     Which cached statistics the serving layer reused:
                        ``{"labeled_sample": ..., "sample_outcome": ...}``.
    ``udf_cache``       Per-UDF memo hit/miss deltas for exact scans (dict of
                        per-UDF counter deltas).
    ``coalesced``       ``True`` on results returned to async followers that
                        shared a leader's in-flight execution via
                        ``QueryService.submit_async`` (absent otherwise).
    ``degraded``        Why the process executor ran this request in-process
                        (its first fallback reason, e.g. ``"breaker_open"``
                        or ``"unpicklable_udf"``); absent when the request
                        ran on its configured backend.
    ==================  =========================================================

    Returns the table above as a ``{key: description}`` dict so tests and
    tooling can check observed metadata keys against the contract.  The
    per-result metadata contract here has a service-wide sibling:
    ``repro.serving.config.SERVICE_STATS_SCHEMA`` documents the keys of the
    :meth:`repro.serving.QueryService.stats` snapshot the same way.
    """
    return {
        "strategy": "evaluation path: 'exact' or the strategy name",
        "plan_cache": (
            "serving plan-cache outcome: 'hit' | 'miss' | 'refresh' | "
            "'restored' (first hit on an entry restored from durable storage)"
        ),
        "fallback_reason": "why an approximate plan fell back to exhaustive",
        "session": "serving admission diagnostics (client id, budget)",
        "stats_cache": "which cached statistics the serving layer reused",
        "udf_cache": "per-UDF memo hit/miss deltas for exact scans",
        "coalesced": "True when an async follower shared a leader's result",
        "degraded": (
            "why the request ran in-process (e.g. 'breaker_open', 'unpicklable_udf')"
        ),
    }


@dataclass
class QueryResult:
    """Result of running a select query.

    Attributes
    ----------
    row_ids:
        Row ids returned by the (possibly approximate) evaluation: always a
        read-only 1-d ``intp`` array, whichever strategy or executor produced
        it (the constructor normalises lists and other iterables through
        :func:`~repro.db.table.as_row_ids`).  Elements are NumPy integers;
        the array may be shared with other results (a coalesced follower
        holds its leader's), so it cannot be written to.
        ``row_ids.tolist()`` gives python ints, :attr:`row_id_set` a set.
    ledger:
        The cost ledger charged during evaluation (sampling included).
    quality:
        Precision/recall against ground truth when the caller asked the engine
        to audit the result (only possible because the substrate knows the
        hidden labels); ``None`` otherwise.
    metadata:
        Free-form strategy diagnostics (chosen column, sample sizes, ...).
    """

    row_ids: npt.NDArray[np.intp]
    ledger: CostLedger
    quality: Optional[ResultQuality] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.row_ids = as_row_ids(self.row_ids)

    @cached_property
    def row_id_set(self) -> FrozenSet[int]:
        """The returned row ids as a read-only set of python ints (built once)."""
        return frozenset(self.row_ids.tolist())

    @property
    def total_cost(self) -> float:
        """Total charged cost."""
        return self.ledger.total_cost

    def __len__(self) -> int:
        return len(self.row_ids)


class EvaluationStrategy(Protocol):
    """Protocol implemented by approximate evaluation strategies."""

    def run(
        self, table: Table, query: SelectQuery, ledger: CostLedger
    ) -> "QueryResult":  # pragma: no cover - protocol definition
        """Evaluate ``query`` over ``table`` charging costs to ``ledger``."""
        ...


class Engine:
    """Executes select queries, exactly or through a pluggable strategy."""

    def __init__(
        self,
        catalog: Catalog,
        retrieval_cost: float = 1.0,
        evaluation_cost: float = 3.0,
    ):
        self.catalog = catalog
        self.retrieval_cost = retrieval_cost
        self.evaluation_cost = evaluation_cost
        self._strategies: Dict[str, EvaluationStrategy] = {}
        #: How many times a strategy let an :class:`InfeasibleProblemError`
        #: escape and the engine answered exhaustively instead.
        self.fallback_total = 0

    # -- strategy registry -------------------------------------------------------
    def register_strategy(
        self, name: str, strategy: EvaluationStrategy, replace: bool = False
    ) -> None:
        """Register an approximate evaluation strategy under ``name``.

        Registered names can be referenced from ``SelectQuery.strategy`` or
        passed as the ``strategy`` argument of :meth:`execute`.
        """
        if not callable(getattr(strategy, "run", None)):
            raise UnsupportedQueryError(
                strategy, available=self._strategies
            )
        if name in self._strategies and not replace:
            raise DuplicateObjectError(f"strategy {name!r} already registered")
        self._strategies[name] = strategy

    def strategy(self, name: str) -> EvaluationStrategy:
        """Look up a registered strategy by name."""
        try:
            return self._strategies[name]
        except KeyError:
            raise UnsupportedQueryError(name, available=self._strategies) from None

    def strategy_names(self) -> List[str]:
        """Names of all registered strategies."""
        return list(self._strategies.keys())

    def resolve_strategy(
        self,
        strategy: Union[str, EvaluationStrategy, None],
        query: Optional[SelectQuery] = None,
    ) -> Optional[EvaluationStrategy]:
        """Coerce a strategy argument (or the query's named strategy) to an object.

        Raises :class:`UnsupportedQueryError` — instead of a bare ``KeyError``
        or a later ``AttributeError`` — when the name is unknown or the object
        does not implement the strategy protocol.
        """
        if strategy is None and query is not None:
            strategy = query.strategy
        if strategy is None:
            return None
        if isinstance(strategy, str):
            return self.strategy(strategy)
        if not callable(getattr(strategy, "run", None)):
            raise UnsupportedQueryError(strategy, available=self._strategies)
        return strategy

    def new_ledger(self) -> CostLedger:
        """A fresh cost ledger with this engine's unit costs."""
        return CostLedger(
            retrieval_cost=self.retrieval_cost,
            evaluation_cost=self.evaluation_cost,
        )

    # -- exact execution ---------------------------------------------------------
    def execute_exact(self, query: SelectQuery, ledger: Optional[CostLedger] = None) -> QueryResult:
        """Retrieve and evaluate every candidate tuple (perfect accuracy).

        The scan is vectorised: retrievals are charged in one block and the
        predicate runs through its bulk :meth:`~repro.db.predicate.Predicate.
        evaluate_rows` path (column comparisons over cached arrays, batched
        UDF calls), with work counters identical to the historical per-row
        loop.  This is also the fallback :meth:`execute` uses on infeasible
        strategies, so it matters that it scales.  With a hard-budgeted
        ledger, exhaustion now stops before the scan's UDF work rather than
        mid-scan.
        """
        table = self.catalog.table(query.table)
        ledger = ledger or self.new_ledger()
        candidates = self._apply_cheap_predicates(table, query)
        udf_counters_before = self._udf_counters(query)
        if candidates.size:
            # Exact scans are the most expensive single step the engine
            # runs; check the request deadline before committing its charge.
            check_deadline("exact-scan")
            ledger.charge_retrieval(int(candidates.size))
            matched = candidates[query.predicate.evaluate_rows(table, candidates, ledger)]
        else:
            matched = candidates
        return QueryResult(
            row_ids=matched,
            ledger=ledger,
            metadata={
                "strategy": "exact",
                "udf_cache": self._udf_counter_delta(query, udf_counters_before),
            },
        )

    # -- approximate execution -----------------------------------------------------
    def execute(
        self,
        query: SelectQuery,
        strategy: Union[str, EvaluationStrategy, None] = None,
        audit: bool = False,
    ) -> QueryResult:
        """Execute ``query``.

        ``strategy`` may be a strategy object, the name of a strategy
        registered via :meth:`register_strategy`, or ``None`` (falling back to
        the query's own named strategy, if any).  Exact queries — or calls
        that resolve to no strategy — use exhaustive evaluation.  Otherwise
        the strategy runs with a fresh ledger.  With ``audit=True`` the
        engine additionally computes the ground-truth result (without
        charging any cost) and attaches precision/recall.
        """
        resolved = self.resolve_strategy(strategy, query)
        if query.is_exact or resolved is None:
            result = self.execute_exact(query)
        else:
            table = self.catalog.table(query.table)
            try:
                result = resolved.run(table, query, self.new_ledger())
            except InfeasibleProblemError as error:
                # The built-in strategies fall back internally, but a custom
                # strategy may let a genuinely infeasible margined program
                # escape.  Exhaustive evaluation is always a correct answer,
                # so the engine absorbs the error rather than failing the
                # query; the metadata records why the plan was abandoned.
                self.fallback_total += 1
                result = self.execute_exact(query)
                result.metadata["fallback_reason"] = f"infeasible constraints: {error}"
        if audit:
            result.quality = self.audit(query, result)
        return result

    def audit(self, query: SelectQuery, result: QueryResult) -> ResultQuality:
        """Compare a result against the true answer without charging costs.

        This mirrors the paper's evaluation protocol: the experimenter knows
        every UDF value and can therefore measure the precision and recall an
        algorithm actually achieved.
        """
        return result_quality(result.row_ids, self._truth_mask(query))

    def ground_truth(self, query: SelectQuery) -> Set[int]:
        """The exact answer set, computed outside the cost model."""
        return set(np.flatnonzero(self._truth_mask(query)).tolist())

    def _truth_mask(self, query: SelectQuery) -> np.ndarray:
        """The exact answer as a boolean mask over the table's rows.

        Runs every UDF in oracle mode so that peeking at the truth leaves no
        trace — no memo-cache writes, no counter advances.  Otherwise a
        single audit would make every row look already-paid-for to the
        serving layer's cost accounting.
        """
        table = self.catalog.table(query.table)
        candidates = self._apply_cheap_predicates(table, query)
        truth = np.zeros(table.num_rows, dtype=bool)
        if candidates.size:
            free_ledger = CostLedger(retrieval_cost=0.0, evaluation_cost=0.0)
            with ExitStack() as stack:
                for predicate in query.udf_predicates:
                    stack.enter_context(predicate.udf.oracle_mode())
                truth[candidates] = query.predicate.evaluate_rows(table, candidates, free_ledger)
        return truth

    # -- helpers --------------------------------------------------------------------
    def _udf_counters(self, query: SelectQuery) -> Dict[str, Dict[str, int]]:
        return {
            predicate.udf.name: predicate.udf.counter_snapshot()
            for predicate in query.udf_predicates
        }

    def _udf_counter_delta(
        self, query: SelectQuery, before: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, int]]:
        """Per-UDF hit/miss counter deltas accumulated during this execution."""
        return {
            predicate.udf.name: predicate.udf.counter_delta(
                before.get(predicate.udf.name, {})
            )
            for predicate in query.udf_predicates
        }

    def _apply_cheap_predicates(self, table: Table, query: SelectQuery) -> np.ndarray:
        row_ids = np.arange(table.num_rows, dtype=np.intp)
        for cheap in query.cheap_predicates:
            if not row_ids.size:
                break
            row_ids = row_ids[cheap.evaluate_rows(table, row_ids)]
        return row_ids
