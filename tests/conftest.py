"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Make the package importable even without an installed distribution (the
# offline environment cannot build editable wheels).
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.constraints import CostModel, QueryConstraints  # noqa: E402
from repro.core.groups import SelectivityModel  # noqa: E402
from repro.datasets.lending_club import load_lending_club  # noqa: E402
from repro.datasets.toy import toy_credit_table, toy_credit_udf  # noqa: E402
from repro.db.catalog import Catalog  # noqa: E402
from repro.db.engine import Engine  # noqa: E402
from repro.db.index import GroupIndex  # noqa: E402
from repro.db.predicate import UdfPredicate  # noqa: E402
from repro.db.query import SelectQuery  # noqa: E402
from repro.db.sharding import ShardedTable  # noqa: E402
from repro.db.udf import CostLedger, UserDefinedFunction  # noqa: E402
from repro.serving import QueryService, ServiceConfig  # noqa: E402


# Hypothesis profiles, selected by HYPOTHESIS_PROFILE.  ``ci`` is what the
# suite has always run under — whichever profile Hypothesis picks for itself
# (its own CI profile where the runner sets ``CI``, its default elsewhere) —
# and stays the default.  ``deep`` is the scheduled job's: many more examples
# for every property that does not pin its own count (the sequence tests size
# themselves from it), fresh ones on every run.
settings.register_profile("ci", settings.default)
settings.register_profile(
    "deep",
    max_examples=2_000,
    deadline=None,
    derandomize=False,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def assert_same_rows(actual, expected):
    """``actual`` is the one answer type and holds ``expected``'s ids, in order.

    ``actual`` must be what results carry — a 1-d ``intp`` array; ``expected``
    is another answer or a plain sequence of ids.  Order-sensitive: the
    executors promise the same rows in the same (group-major, row-ascending)
    order, not merely the same set.
    """
    assert isinstance(actual, np.ndarray), type(actual)
    assert actual.dtype == np.intp and actual.ndim == 1, (actual.dtype, actual.shape)
    expected = np.asarray(expected, dtype=np.intp)
    assert np.array_equal(actual, expected), (actual, expected)


@pytest.fixture(name="assert_same_rows", scope="session")
def assert_same_rows_fixture():
    """:func:`assert_same_rows`, for test modules (``conftest`` is not importable
    by name from every directory — sub-directory conftests shadow it)."""
    return assert_same_rows


def _measured_call(action):
    return action()


#: The line of :func:`_measured_call` that every counted allocation descends from.
_MEASURED_LINE = _measured_call.__code__.co_firstlineno + 1
#: Deeper than any call chain from ``action()`` down to an allocation.
_TRACE_FRAMES = 256


def blocks_allocated_by(action):
    """``(blocks, result)``: allocations ``action()`` made that are still live
    when it returns, its result held.

    ``tracemalloc`` runs for the call alone and only allocations whose
    traceback passes through the call are counted: objects other threads or
    late finalisers of earlier tests allocate or free meanwhile do not move
    the count (``sys.getallocatedblocks()`` counts the whole interpreter, and
    once read a net *negative* hit).  Repeats exactly for a warmed-up action,
    which is what lets allocation gates run in tier-1."""
    assert not tracemalloc.is_tracing(), "the count owns tracemalloc while it runs"
    gc.collect()
    gc.disable()
    tracemalloc.start(_TRACE_FRAMES)
    try:
        result = _measured_call(action)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    made = snapshot.filter_traces(
        [tracemalloc.Filter(True, __file__, lineno=_MEASURED_LINE, all_frames=True)]
    )
    return len(made.traces), result


@pytest.fixture(name="blocks_allocated_by", scope="session")
def blocks_allocated_by_fixture():
    """:func:`blocks_allocated_by`, for test modules."""
    return blocks_allocated_by


@pytest.fixture
def record_pool_submits(monkeypatch):
    """``record(module, factory_name) -> list``: from then on every ``submit``
    to a pool that ``module.<factory_name>(workers)`` hands out is appended to
    the list (its positional arguments) before going to the real pool."""

    def record(module, factory_name):
        submitted = []
        real_factory = getattr(module, factory_name)

        class Recording:
            def __init__(self, pool):
                self.pool = pool

            def submit(self, *args):
                submitted.append(args)
                return self.pool.submit(*args)

        monkeypatch.setattr(
            module, factory_name, lambda workers: Recording(real_factory(workers))
        )
        return submitted

    return record


@pytest.fixture
def toy_table():
    """The paper's Table 1 example relation."""
    return toy_credit_table()


@pytest.fixture
def toy_udf():
    """The credit-check UDF over the toy relation."""
    return toy_credit_udf()


@pytest.fixture
def toy_index(toy_table):
    """Group index on the toy relation's correlated attribute A."""
    return GroupIndex(toy_table, "A")


@pytest.fixture
def toy_truth(toy_table):
    """Row ids of the toy relation's correct tuples."""
    labels = toy_table.column_values("f", allow_hidden=True)
    return {row_id for row_id, value in enumerate(labels) if value}


@pytest.fixture
def default_constraints():
    """The paper's default constraints: alpha = beta = rho = 0.8."""
    return QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)


@pytest.fixture
def default_cost_model():
    """The paper's default cost model: o_r = 1, o_e = 3."""
    return CostModel(retrieval_cost=1.0, evaluation_cost=3.0)


@pytest.fixture
def default_ledger():
    """A fresh ledger with the default unit costs."""
    return CostLedger(retrieval_cost=1.0, evaluation_cost=3.0)


@pytest.fixture
def example_model():
    """The paper's Example 3.1 model: three groups of 1000 tuples."""
    return SelectivityModel.from_exact_counts(
        {1: (900, 100), 2: (500, 500), 3: (100, 900)}
    )


@pytest.fixture
def selectivity_model():
    """A perfect-selectivity model matching Example 3.3."""
    return SelectivityModel.from_selectivities(
        sizes={1: 1000, 2: 1000, 3: 1000},
        selectivities={1: 0.9, 2: 0.5, 3: 0.1},
    )


@pytest.fixture(scope="session")
def small_lending_club():
    """A small (5%) Lending-Club-like dataset shared across tests."""
    return load_lending_club(random_state=123, scale=0.05)


@pytest.fixture(scope="session")
def tiny_lending_club():
    """A tiny (2%) Lending-Club-like dataset for the slowest paths."""
    return load_lending_club(random_state=321, scale=0.02)


def warm_service(rows, name):
    """A warmed service shaped like the benchmark's ``warm_hits`` workload.

    ``rows`` rows in 4 shards, eight skewed groups of mixed selectivity (no
    pure group, so solved plans both retrieve and evaluate and an answer is
    roughly half the table), a label-column UDF, paper accounting, and four
    signatures submitted until plans, memo and first-touch allocations are
    all in place.  Returns ``(service, queries)``; the caller closes it.
    """
    fractions = (0.26, 0.20, 0.16, 0.12, 0.10, 0.08, 0.05, 0.03)
    selectivities = (0.62, 0.35, 0.78, 0.22, 0.55, 0.88, 0.12, 0.45)
    sizes = [int(round(fraction * rows)) for fraction in fractions]
    sizes[0] += rows - sum(sizes)
    codes = np.repeat(np.arange(len(sizes)), sizes)
    labels = np.zeros(rows, dtype=bool)
    start = 0
    for size, selectivity in zip(sizes, selectivities):
        labels[start : start + int(round(size * selectivity))] = True
        start += size
    order = np.random.default_rng(2015).permutation(rows)
    table = ShardedTable.from_columns(
        name,
        {
            "grade": [f"g{code}" for code in codes[order].tolist()],
            "is_good": labels[order].tolist(),
        },
        hidden_columns=["is_good"],
        num_shards=4,
    )
    udf = UserDefinedFunction.from_label_column(f"{name}_label", "is_good")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog), config=ServiceConfig(free_memoized=False))
    queries = [
        SelectQuery(
            table=name,
            predicate=UdfPredicate(udf),
            alpha=alpha,
            beta=beta,
            rho=0.8,
            correlated_column="grade",
        )
        for alpha, beta in ((0.80, 0.80), (0.90, 0.70), (0.70, 0.90), (0.85, 0.75))
    ]
    for position, query in enumerate(queries * 5):
        service.submit(query, seed=2**53 + position)
    return service, queries


@pytest.fixture(scope="session")
def warm_hits_service():
    """The 20k-row :func:`warm_service`, shared: ``(service, queries)``."""
    service, queries = warm_service(20_000, "warmhits")
    yield service, queries
    service.close()


@pytest.fixture(name="warm_service", scope="session")
def warm_service_fixture():
    """:func:`warm_service` itself, for tests that need another size."""
    return warm_service
