"""Serving accounting lives on the request's ledger.

``ServiceConfig.free_memoized`` (never charge again for a value the UDF memo
holds) is a property of how one request is charged, so it is carried by
that request's :class:`~repro.db.udf.CostLedger` and read by the bulk UDF
calls that charge it.  No executor takes it, and the service never writes
it into a strategy: a refresh sets it on its ledger and runs the strategy
as built, exactly as a cold run does.  Sampling and labelling charge their
evaluations through the same calls, so a refresh's own draws are charged
under that rule too.
"""

import numpy as np
import pytest

from repro.core.executor import BatchExecutor
from repro.core.parallel import ParallelBatchExecutor
from repro.core.pipeline import IntelSample
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.serving import QueryService, ServiceConfig

#: Per-group ``(weight, selectivity)`` of the ``A`` column.
GROUPS = ((0.3, 0.9), (0.25, 0.6), (0.2, 0.3), (0.15, 0.05), (0.1, 1.0))

#: ``free_memoized -> [(plan_cache, retrieved, evaluated)]`` for the cold
#: (seed 11), refresh (seed 12, after 300 appended rows) and hit (seed 13)
#: requests of :func:`_cycle`.  Recorded by running :func:`_cycle` on the
#: tree before the accounting moved onto the ledger, on both backends; they
#: agreed.  A cold run charges the paper's way under either setting.  The
#: serving refresh read 133 until sampling and labelling charged through the
#: ledger-aware bulk call: 3 of the rows its stratified top-up draws were
#: already in the memo, and serving accounting no longer charges them.
PINNED = {
    True: [("miss", 1026, 397), ("refresh", 941, 130), ("hit", 915, 59)],
    False: [("miss", 1026, 397), ("refresh", 941, 186), ("hit", 915, 149)],
}

BACKENDS = [
    pytest.param({"executor": "serial"}, id="serial"),
    pytest.param({"executor": "process", "max_workers": 1}, id="process"),
]


def _columns(rows, seed):
    rng = np.random.default_rng(seed)
    weights = np.array([weight for weight, _selectivity in GROUPS])
    codes = rng.choice(len(GROUPS), size=rows, p=weights / weights.sum())
    selectivity = np.array([selectivity for _weight, selectivity in GROUPS])[codes]
    labels = (rng.random(rows) < selectivity).tolist()
    return {"A": [f"a{code}" for code in codes.tolist()], "f": labels}


def _setup():
    table = ShardedTable.from_columns("acct", _columns(1500, 5), hidden_columns=["f"], num_shards=2)
    udf = UserDefinedFunction.from_label_column("acct_label", "f")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    query = SelectQuery(
        table="acct",
        predicate=UdfPredicate(udf),
        alpha=0.8,
        beta=0.8,
        rho=0.8,
        correlated_column="A",
    )
    return table, udf, catalog, query


def _cycle(config, strategy_factory=None):
    """Cold, append, refresh, hit; ``(plan_cache, retrieved, evaluated)`` of each."""
    table, _udf, catalog, query = _setup()
    served = []
    with QueryService(Engine(catalog), strategy_factory, config=config) as service:
        served.append(service.submit(query, seed=11))
        table.append_columns(_columns(300, 6))
        served.append(service.submit(query, seed=12))
        served.append(service.submit(query, seed=13))
    return [
        (result.metadata["plan_cache"], result.ledger.retrieved_count,
         result.ledger.evaluated_count)
        for result in served
    ]


class TestNoFlagBesideTheLedger:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: BatchExecutor(free_memoized=True),
            lambda: ParallelBatchExecutor(free_memoized=True),
            lambda: ProcessPoolBatchExecutor(max_workers=1, free_memoized=True),
        ],
        ids=["batch", "inline_spans", "process"],
    )
    def test_executors_take_no_accounting(self, build):
        with pytest.raises(TypeError):
            build()

    def test_bulk_udf_calls_take_no_accounting(self, toy_table):
        udf = UserDefinedFunction.from_label_column("acct_flag", "f")
        with pytest.raises(TypeError):
            udf.evaluate_rows(toy_table, [0, 1], None, CostLedger(), free_memoized=True)
        with pytest.raises(TypeError):
            udf.merge_remote_evaluations([0, 1], [True, False], CostLedger(), free_memoized=True)
        assert udf.counter_snapshot()["bulk_calls"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_refresh_writes_nothing_into_its_strategy(backend):
    writes = []

    class Recording(IntelSample):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._built = True

        def __setattr__(self, name, value):
            if getattr(self, "_built", False):
                writes.append(name)
            super().__setattr__(name, value)

    served = _cycle(
        ServiceConfig(**backend), lambda random_state: Recording(random_state=random_state)
    )
    assert [label for label, _retrieved, _evaluated in served] == ["miss", "refresh", "hit"]
    assert writes == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("free_memoized", [True, False], ids=["serving", "paper"])
def test_cold_refresh_and_hit_charges_are_pinned(free_memoized, backend):
    assert _cycle(ServiceConfig(free_memoized=free_memoized, **backend)) == PINNED[free_memoized]


def _planned_evidence(service):
    (entry,) = [entry for _signature, entry in service.plan_cache._cache.items()]
    return entry.sample_outcome


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_refresh_pays_only_for_the_rows_the_memo_does_not_know(backend):
    """The refresh's stratified top-up draws rows the cold run's execution
    already evaluated; under serving accounting its ledger is charged for
    exactly the evaluations the UDF performed, the sampler's included."""
    table, udf, catalog, query = _setup()
    config = ServiceConfig(free_memoized=True, **backend)
    with QueryService(Engine(catalog), config=config) as service:
        service.submit(query, seed=11)
        before = _planned_evidence(service)
        table.append_columns(_columns(300, 6))
        known, _values = udf.memo_arrays()
        misses = udf.counter_snapshot()["cache_misses"]
        refreshed = service.submit(query, seed=12)
        after = _planned_evidence(service)
    assert refreshed.metadata["plan_cache"] == "refresh"
    drawn = np.setdiff1d(after.row_ids, before.row_ids)
    assert np.intersect1d(drawn, known).size > 0
    paid = udf.counter_snapshot()["cache_misses"] - misses
    assert refreshed.ledger.evaluated_count == paid
