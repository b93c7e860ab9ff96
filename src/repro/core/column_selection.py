"""Finding the correlated column (paper Section 4.4).

Two strategies, both bootstrapped from a small uniformly-drawn labelled sample
(the paper uses ~1% of the table):

* **real column**: for every candidate categorical column with at most
  ``sqrt(t)`` distinct values (``t`` = labelled-sample size), estimate each
  group's selectivity from the labelled rows, run the Section 3.2 optimizer as
  if those estimates were exact, and pick the column with the smallest
  estimated cost;
* **virtual column**: train a logistic regressor from the table's available
  columns to the labels, score every tuple, and split tuples into
  equal-frequency probability buckets; the bucket id is the correlated column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.bigreedy import solve_bigreedy
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.groups import SelectivityModel
from repro.db.column import Column, ColumnType
from repro.db.index import GroupIndex
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.ml.bucketer import ScoreBucketer
from repro.ml.features import FeatureEncoder
from repro.ml.logistic import LogisticRegression
from repro.sampling.sampler import Evidence, SampleOutcome, member_mask
from repro.solvers.linear import InfeasibleProblemError
from repro.stats.beta import BetaPosterior
from repro.stats.random import (
    SeedLike,
    as_random_state,
    counter_uniforms,
    stream_key,
)


class LabeledSample(Evidence):
    """A uniformly drawn set of rows whose UDF value has been paid for."""

    def to_sample_outcome(self, index: GroupIndex) -> SampleOutcome:
        """Re-express the labelled rows as a :class:`SampleOutcome` over ``index``.

        This lets the pipeline reuse the labelled rows both as selectivity
        evidence and as already-paid-for output for whichever correlated
        column ends up being chosen.  The rows stay in draw order; labelled
        rows outside the indexed table (e.g. a sample drawn on the full table
        re-expressed against a sub-table's index) are dropped.
        """
        inside = self.inside(index)
        return SampleOutcome(self.row_ids[inside], self.flags[inside])


def draw_labeled_sample(
    table: Table,
    udf: UserDefinedFunction,
    ledger: CostLedger,
    fraction: float = 0.01,
    minimum_size: int = 50,
    random_state: SeedLike = None,
    bulk_evaluator: Optional[Callable[[Table, np.ndarray], np.ndarray]] = None,
) -> LabeledSample:
    """Uniformly sample rows and evaluate the UDF on them (charging costs).

    ``bulk_evaluator`` optionally replaces ``udf.evaluate_rows`` for the
    batched evaluation (the process executor's worker fan-out); row selection
    stays on this function's stream, so the drawn sample is identical either
    way.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rng = as_random_state(random_state)
    count = max(minimum_size, int(round(fraction * table.num_rows)))
    count = min(count, table.num_rows)
    chosen = np.atleast_1d(rng.choice(table.num_rows, size=count, replace=False))
    # Bulk charge + one batched UDF call: identical counter/ledger totals to
    # the historical per-row loop, minus the per-tuple python overhead.
    ledger.charge_retrieval(int(chosen.size))
    ledger.charge_evaluation(int(chosen.size))
    evaluate = bulk_evaluator if bulk_evaluator is not None else udf.evaluate_rows
    return LabeledSample(chosen, evaluate(table, chosen))


#: Phase tags separating the admission and eviction coin streams of the
#: reservoir top-up (mirroring the parallel executor's phase discipline).
_RESERVOIR_ADMIT = 0
_RESERVOIR_EVICT = 1


def top_up_labeled_sample(
    table: Table,
    udf: UserDefinedFunction,
    ledger: CostLedger,
    labeled: LabeledSample,
    previous_rows: int,
    fraction: float = 0.01,
    minimum_size: int = 50,
    stream_seed: int = 0,
    bulk_evaluator: Optional[Callable[[Table, np.ndarray], np.ndarray]] = None,
) -> LabeledSample:
    """Reservoir-style top-up of a labelled sample after rows were appended.

    ``labeled`` was drawn over the table's first ``previous_rows`` rows; the
    rows appended since (``previous_rows .. table.num_rows``) stream through
    a reservoir update so the sample keeps tracking the grown table, while
    **UDF evaluations are charged only for newly admitted delta rows** —
    never for the rows whose labels were already paid for.

    The coins are *counter-based* (position-addressable SplitMix64 streams
    keyed by ``stream_seed``, see :func:`repro.stats.random.counter_uniforms`):
    the admission and eviction coins of delta row ``i`` are pure functions of
    ``(stream_seed, i)``, so topping up after one big append and topping up
    after the same rows arrived in many small appends produce **bitwise
    identical samples**.  The reservoir target grows with the table
    (``max(minimum_size, round(fraction * rows_seen))``), so the maintained
    sample is the classic uniform reservoir while the target is flat and a
    slightly delta-favouring approximation while it grows — good enough for
    the column-selection heuristics it feeds, and pinned deterministic by
    tests either way.

    Returns a new :class:`LabeledSample` — the surviving old rows in their
    draw order, then the admitted delta rows ascending — or ``labeled``
    itself (it is immutable) when nothing was appended.  Evicted old rows
    keep their memoised UDF values, so readmitting them later costs nothing.
    """
    total_rows = table.num_rows
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not 0 <= previous_rows <= total_rows:
        raise ValueError(
            f"previous_rows must be within [0, {total_rows}], got {previous_rows}"
        )
    delta_rows = total_rows - previous_rows
    if delta_rows == 0:
        return labeled

    # Per delta row, the reservoir target once it has been seen (``rint`` is
    # python's ``round``: half to even) and whether its admission coin lets
    # it replace a member of a full reservoir.  The target never decreases.
    seen = np.arange(previous_rows + 1, total_rows + 1)
    target = np.minimum(
        seen, np.maximum(minimum_size, np.rint(fraction * seen).astype(np.intp))
    )
    admit_coins = counter_uniforms(
        stream_key(stream_seed, _RESERVOIR_ADMIT), previous_rows, delta_rows
    )
    evict_coins = counter_uniforms(
        stream_key(stream_seed, _RESERVOIR_EVICT), previous_rows, delta_rows
    )
    admitted = np.flatnonzero(admit_coins * seen < target)

    # Reservoir state: the members in ascending row-id order.  The order is
    # part of the deterministic state (eviction indexes into it), and
    # ascending order is the one ordering a later top-up can *reconstruct*
    # from the stored sample — admitted rows always exceed every existing
    # member, so delete-and-append keeps the array sorted, which is what
    # makes chunked appends bitwise identical to one big append.  Only the
    # delta rows that change the reservoir are visited: the next one is the
    # first whose target exceeds the current length (it is appended) or
    # whose admission coin passed (it replaces the member its eviction coin
    # names), whichever comes first.
    length = labeled.size
    reservoir = np.empty(max(length, int(target[-1])), dtype=np.intp)
    reservoir[:length] = np.sort(labeled.row_ids)
    position = 0
    while True:
        grows_at = max(position, int(np.searchsorted(target, length, side="right")))
        following = int(np.searchsorted(admitted, position))
        admitted_at = int(admitted[following]) if following < admitted.size else delta_rows
        position = min(grows_at, admitted_at)
        if position >= delta_rows:
            break
        if position == grows_at:
            length += 1
        else:
            evicted = min(int(evict_coins[position] * length), length - 1)
            reservoir[evicted : length - 1] = reservoir[evicted + 1 : length]
        reservoir[length - 1] = previous_rows + position
        position += 1
    members = reservoir[:length]

    # Charge and evaluate only the *surviving newly admitted* rows (their
    # labels were never paid for); survivors of the old sample carry their
    # existing labels over for free.
    fresh = members[np.searchsorted(members, previous_rows) :]
    survived = member_mask(members, labeled.row_ids)
    flags = labeled.flags[survived]
    if fresh.size:
        ledger.charge_retrieval(int(fresh.size))
        ledger.charge_evaluation(int(fresh.size))
        evaluate = bulk_evaluator if bulk_evaluator is not None else udf.evaluate_rows
        flags = np.concatenate([flags, evaluate(table, fresh)])
    return LabeledSample(np.concatenate([labeled.row_ids[survived], fresh]), flags)


# ---------------------------------------------------------------------------
# Real-column selection
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnSelectionResult:
    """Outcome of the correlated-column search."""

    best_column: str
    estimated_costs: Dict[str, float]
    candidate_columns: List[str]


def _column_cardinality(table: Table, column: str) -> int:
    """Distinct-value count of a column, vectorised where numpy can sort it.

    Scans shard-at-a-time (resident segments first) and unions the
    per-shard distinct sets, so a lazy durable table never needs the whole
    column mapped at once; the union of per-shard uniques is exactly the
    global distinct set.
    """
    from repro.db.residency import iter_column_spans

    try:
        distinct: set = set()
        for _start, _stop, values in iter_column_spans(table, column):
            distinct.update(np.unique(values).tolist())
        return len(distinct)
    except TypeError:  # mixed-type object columns numpy cannot sort
        return table.num_distinct(column)


def candidate_correlated_columns(
    table: Table,
    labeled_size: int,
    exclude_columns: Sequence[str] = (),
    hard_cap: int = 50,
) -> List[str]:
    """Categorical columns eligible to be the correlated column.

    The paper restricts attention to columns with at most ``sqrt(t)`` distinct
    values where ``t`` is the labelled-sample size; if nothing qualifies the
    cap is relaxed up to ``hard_cap`` (mirroring "keep increasing t").
    """
    excluded = set(exclude_columns)
    categorical = [
        column.name
        for column in table.schema.categorical_columns()
        if column.name not in excluded
    ]
    # sqrt(t) distinct values at most, but never below 10 so that small labelled
    # samples (scaled-down datasets, tests) do not exclude every real column.
    soft_cap = max(10, int(math.sqrt(max(labeled_size, 1))))
    # Cheap vectorised cardinality check first — a full GroupIndex is only
    # built (and cached on the table) for columns that can actually qualify;
    # near-unique columns are discarded without paying O(rows) per group.
    cardinality = {name: _column_cardinality(table, name) for name in categorical}
    for cap in (soft_cap, hard_cap):
        qualifying = [
            name for name in categorical if 2 <= cardinality[name] <= cap
        ]
        if qualifying:
            return qualifying
    return []


def estimate_column_cost(
    table: Table,
    column: str,
    labeled: LabeledSample,
    constraints: QueryConstraints,
    cost_model: CostModel = CostModel(),
) -> float:
    """Estimated query cost if ``column`` is used as the correlated column.

    Selectivities are estimated from the labelled rows falling in each group
    (Beta-posterior means) and fed to the Section 3.2 optimizer as if exact;
    an infeasible optimization falls back to the evaluate-everything cost so
    that uninformative columns are never preferred.

    The labelled rows are factorised against the column's shared
    :class:`GroupIndex` with two ``bincount`` calls, so evaluating a new
    candidate column never re-walks the table — this is what makes the
    column search O(columns) instead of O(columns × rows).
    """
    index = table.group_index(column)
    totals, positives = index.label_counts(labeled.row_ids, labeled.flags)
    sizes = index.group_sizes()
    selectivities = {
        key: BetaPosterior(
            positives=int(positives[code]),
            negatives=int(totals[code] - positives[code]),
        ).mean
        for code, key in enumerate(index.values)
    }
    model = SelectivityModel.from_selectivities(sizes, selectivities)
    try:
        solution = solve_bigreedy(model, constraints, cost_model)
    except InfeasibleProblemError:
        return cost_model.plan_cost(table.num_rows, table.num_rows)
    return solution.expected_cost


def select_correlated_column(
    table: Table,
    labeled: LabeledSample,
    constraints: QueryConstraints,
    cost_model: CostModel = CostModel(),
    candidate_columns: Optional[Sequence[str]] = None,
    exclude_columns: Sequence[str] = (),
) -> ColumnSelectionResult:
    """Pick the candidate column with the lowest estimated query cost."""
    candidates = (
        list(candidate_columns)
        if candidate_columns is not None
        else candidate_correlated_columns(table, labeled.size, exclude_columns)
    )
    if not candidates:
        raise ValueError(
            "no candidate correlated columns found; consider building a virtual "
            "column with build_virtual_column()"
        )
    costs = {
        column: estimate_column_cost(table, column, labeled, constraints, cost_model)
        for column in candidates
    }
    best = min(costs, key=costs.get)
    return ColumnSelectionResult(
        best_column=best, estimated_costs=costs, candidate_columns=candidates
    )


# ---------------------------------------------------------------------------
# Virtual column via logistic regression
# ---------------------------------------------------------------------------
@dataclass
class VirtualColumnResult:
    """A logistic-regression-derived correlated column added to the table."""

    table: Table
    column_name: str
    model: LogisticRegression
    encoder: FeatureEncoder
    bucketer: ScoreBucketer
    scores: List[float]


def build_virtual_column(
    table: Table,
    labeled: LabeledSample,
    num_buckets: int = 10,
    column_name: str = "udf_score_bucket",
    exclude_columns: Sequence[str] = (),
    max_categorical_cardinality: int = 50,
    random_state: SeedLike = None,
) -> VirtualColumnResult:
    """Train a logistic regressor on the labelled rows and bucket its scores.

    Returns a copy of the table with the bucket id as a new categorical
    column, ready to be used as the correlated attribute.
    """
    if labeled.size == 0:
        raise ValueError("cannot build a virtual column from an empty labelled sample")
    encoder = FeatureEncoder(
        max_categorical_cardinality=max_categorical_cardinality,
        exclude_columns=tuple(exclude_columns) + ("record_id",),
    )
    features = encoder.fit_transform(table, labeled.row_ids)

    model = LogisticRegression(random_state=random_state)
    model.fit(features, labeled.flags)

    all_features = encoder.transform(table)
    scores = model.predict_proba(all_features)

    bucketer = ScoreBucketer(num_buckets=num_buckets)
    training_scores = model.predict_proba(features)
    bucketer.fit(training_scores)
    buckets = bucketer.transform(scores)

    new_column = Column(
        name=column_name,
        column_type=ColumnType.CATEGORICAL,
        description="logistic-regression probability bucket (virtual correlated column)",
    )
    augmented = table.with_column(new_column, [f"b{b}" for b in buckets])
    return VirtualColumnResult(
        table=augmented,
        column_name=column_name,
        model=model,
        encoder=encoder,
        bucketer=bucketer,
        scores=[float(s) for s in scores],
    )
