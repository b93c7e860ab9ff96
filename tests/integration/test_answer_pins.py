"""Golden answers: cold, hit and refresh, pinned by digest.

The differential suites compare two paths of the same code, so a change to
how plans are built or executed moves both sides together and passes them.
This module pins what comes *out*: for two small tables and each of the
given-column and auto-column paths, a few seeds of one cold query, one
plan-cache hit and one refresh after an append, hashed over the returned
row ids and the ledger counts of every answer.

One pin serves both service backends.  The process backend (here with one
worker, so its spans run inline) flips the serial backend's coins, in the
serial backend's order, and only evaluates span by span, so for a seed it
must return the serial backend's answers: its digest is asserted equal to
the serial one rather than pinned apart.

A digest moves only when some answer does.  A change that means to move
answers re-pins them here once, with the reason stated; one that does not
(a faster coin pass, a leaner frame) must leave every digest as it is.  The
tables are built so that solved plans hold probabilities a hair from 0 or 1
(pure groups), whose coins a fast path is tempted to stop drawing.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService, ServiceConfig

#: ``name -> (rows, appended rows, shards, per-group (weight, selectivity))``.
#: Both hold pure groups (selectivity 0 or 1) beside mixed ones.
TABLES = {
    "skewed": (
        3000,
        240,
        4,
        ((0.26, 0.62), (0.20, 1.0), (0.16, 0.78), (0.12, 0.0), (0.10, 0.55),
         (0.08, 0.97), (0.05, 0.12), (0.03, 0.45)),
    ),
    "graded": (
        2000,
        160,
        None,
        ((0.30, 0.95), (0.25, 0.70), (0.20, 0.40), (0.15, 0.05), (0.10, 1.0)),
    ),
}

SEEDS = (3, 14, 15)

#: ``(table, column path) -> digest`` over every seed's cold, hit and refresh
#: answers, on either backend.  The refreshes run under the service's
#: default serving accounting; ``("skewed", "given")`` was re-pinned when
#: sampling began charging through the ledger-aware bulk call, which does
#: not charge a memo-known row again: the refreshes of seeds 14 and 15 each
#: drew one row the cold run's execution had evaluated, so each charges one
#: evaluation fewer (54 -> 53, 41 -> 40).  No returned row id moved.
PINNED = {
    ("graded", "given"): "aaa29b6fb5ec39a7e8b73bd169acfbcf",
    ("graded", "auto"): "3864449bb548a3dc7400f4ca3926468e",
    ("skewed", "given"): "6016aeaa298ea382d6289ea76226064d",
    ("skewed", "auto"): "9b2260da3d1538fd3e7fad3559a98a00",
}


def _columns(groups, rows, seed):
    """``rows`` rows: group ``grade``, an unrelated ``noise`` column, label ``good``."""
    rng = np.random.default_rng(seed)
    weights = np.array([weight for weight, _selectivity in groups])
    codes = rng.choice(len(groups), size=rows, p=weights / weights.sum())
    selectivity = np.array([selectivity for _weight, selectivity in groups])[codes]
    return {
        "grade": [f"g{code}" for code in codes.tolist()],
        "noise": [f"n{value}" for value in rng.integers(0, 3, rows).tolist()],
        "good": (rng.random(rows) < selectivity).tolist(),
    }


def _service(name, backend):
    rows, _appended, shards, groups = TABLES[name]
    table = ShardedTable.from_columns(
        name, _columns(groups, rows, seed=7), hidden_columns=["good"], num_shards=shards or 1
    )
    udf = UserDefinedFunction.from_label_column(f"{name}_label", "good")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    config = ServiceConfig(executor=backend, max_workers=1)
    return QueryService(Engine(catalog), config=config), table, udf


def _answers_digest(name, column, backend):
    """One digest over every seed's cold, hit and refresh answer."""
    _rows, appended, _shards, groups = TABLES[name]
    digest = hashlib.blake2b(digest_size=16)
    for seed in SEEDS:
        service, table, udf = _service(name, backend)
        try:
            query = SelectQuery(
                table=name,
                predicate=UdfPredicate(udf),
                alpha=0.8,
                beta=0.8,
                rho=0.8,
                correlated_column=column,
            )
            served = [service.submit(query, seed=seed), service.submit(query, seed=seed + 1)]
            table.append_columns(_columns(groups, appended, seed=100 + seed))
            served.append(service.submit(query, seed=seed + 2))
        finally:
            service.close()
        assert [result.metadata["plan_cache"] for result in served] == [
            "miss",
            "hit",
            "refresh",
        ]
        for result in served:
            ids = np.asarray(result.row_ids, dtype=np.int64)
            digest.update(ids.tobytes())
            digest.update(
                struct.pack("<qq", result.ledger.retrieved_count, result.ledger.evaluated_count)
            )
    return digest.hexdigest()


@pytest.mark.parametrize("column", ["grade", None], ids=["given", "auto"])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_answers_are_pinned(name, column):
    key = (name, "given" if column else "auto")
    serial = _answers_digest(name, column, "serial")
    assert serial == PINNED[key], key
    assert _answers_digest(name, column, "process") == serial, key
