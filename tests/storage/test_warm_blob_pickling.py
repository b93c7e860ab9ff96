"""The warm blob is pickled once; probes run only when that dump raises.

``save_warm_state`` used to ``pickle.dumps`` every plan, statistics entry
and index record as a throw-away probe and then dump the whole payload
again.  A fully picklable state — the only kind the serving layer produces
by itself — now costs one dump per table, and writes the very bytes the
probed construction writes; a state holding something that cannot be
pickled still saves, without it.
"""

import os
import pickle
from dataclasses import replace

import pytest

from repro.datasets.registry import load_dataset
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.storage import CatalogStore
from repro.serving import QueryService, ServiceConfig
from repro.serving import persistence


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lending_club", random_state=42, scale=0.03)


def _served(dataset, storage_dir):
    """A service that has answered two columns' worth of queries."""
    catalog = Catalog()
    catalog.register_table(dataset.table)
    udf = dataset.make_udf("pickled")
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog), config=ServiceConfig(storage_dir=storage_dir))
    for column in ("grade", "grade_band"):
        query = SelectQuery(
            table=dataset.table.name,
            predicate=UdfPredicate(udf),
            alpha=0.8,
            beta=0.8,
            rho=0.8,
            correlated_column=column,
        )
        service.submit(query, seed=1)
        service.submit(query, seed=2)
    return service


def _blob_data(storage_dir, table_name):
    store = CatalogStore(storage_dir).table_store(table_name)
    with open(os.path.join(store.warm_dir, persistence.WARM_STATE_FILE), "rb") as handle:
        raw = handle.read()
    return raw[len(persistence.WARM_MAGIC) + 4 :]


class _CountingPickle:
    """``pickle`` as ``persistence`` sees it, counting ``dumps`` calls."""

    def __init__(self):
        self.dumps_calls = 0

    def dumps(self, *args, **kwargs):
        self.dumps_calls += 1
        return pickle.dumps(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(pickle, name)


def test_picklable_state_is_dumped_once_and_writes_the_probed_bytes(
    tmp_path, dataset, monkeypatch
):
    service = _served(dataset, str(tmp_path))
    try:
        counting = _CountingPickle()
        monkeypatch.setattr(persistence, "pickle", counting)
        counts = service.save_warm_state()
        monkeypatch.undo()
        assert counting.dumps_calls == 1  # one table, one dump, no probe
        assert counts["plans"] == 2 and counts["group_indexes"] == 2
        assert counts["stats_entries"] >= 2

        # What the probing construction — every record tested, then the
        # whole payload dumped — writes for the same state: the same bytes.
        table = service.catalog.table(dataset.table.name)
        memos = persistence._capture_udf_memos(service)
        probed = persistence._table_state(service, table, memos, probe=True)
        assert _blob_data(str(tmp_path), table.name) == pickle.dumps(probed, protocol=4)
    finally:
        service.close()


def test_unpicklable_plan_is_skipped_never_fatal(tmp_path, dataset):
    service = _served(dataset, str(tmp_path))
    try:
        signature, entry = next(iter(service.plan_cache._cache.items()))
        service.plan_cache.put(signature, replace(entry, column=lambda: "grade"))
        counts = service.save_warm_state()
        assert counts["plans"] == 1  # the other plan, and everything else, saved
        assert counts["group_indexes"] == 2 and counts["stats_entries"] >= 2
        payload = pickle.loads(_blob_data(str(tmp_path), dataset.table.name))
        assert [record["signature"] for record in payload["plans"]] != [signature]
        assert len(payload["plans"]) == 1
    finally:
        service.plan_cache.clear()
        service.close()
