"""A warm blob of another format version costs warmth, never correctness.

``RPWRM01`` blobs pickled evidence as per-group python lists
(``GroupSample``); ``RPWRM02`` pickles it as one ``(row_ids, flags)`` array
pair.  A service opened over a v01 blob must come up: the blob is counted in
``stats().storage["restore_errors"]``, quarantined, nothing of it restored,
and the table is served cold with the answers a never-persisted service
gives.  The evidence arrays must also not make the blob bigger than the
lists did.
"""

import os
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Dict, Hashable, List

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.storage import CatalogStore
from repro.sampling import sampler as sampler_module
from repro.sampling.sampler import SampleOutcome
from repro.serving import QueryService, ServiceConfig
from repro.serving.persistence import WARM_MAGIC, WARM_STATE_FILE, _read_blob

V01_MAGIC = b"RPWRM01\x00"


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("lending_club", random_state=42, scale=0.03)


def _query(dataset, udf):
    return SelectQuery(
        table=dataset.table.name,
        predicate=UdfPredicate(udf),
        alpha=0.8,
        beta=0.8,
        rho=0.8,
        correlated_column="grade",
    )


def _service(catalog, dataset, storage_dir):
    udf = dataset.make_udf("served")
    catalog.register_udf(udf)
    config = ServiceConfig(storage_dir=storage_dir) if storage_dir else ServiceConfig()
    return QueryService(Engine(catalog), config=config), udf


def _fresh_catalog(dataset):
    catalog = Catalog()
    catalog.register_table(dataset.table)
    return catalog


def _blob_path(storage_dir, dataset):
    store = CatalogStore(storage_dir).table_store(dataset.table.name)
    return store, os.path.join(store.warm_dir, WARM_STATE_FILE)


@dataclass
class _V01GroupSample:
    """The parent commit's ``repro.sampling.sampler.GroupSample``, field for field."""

    group_key: Hashable
    sampled_row_ids: List[int] = field(default_factory=list)
    positive_row_ids: List[int] = field(default_factory=list)
    group_size: int = 0


@dataclass
class _V01SampleOutcome:
    samples: Dict[Hashable, _V01GroupSample]


def _as_v01(index, outcome):
    ids, flags, bounds = outcome.by_group(index)
    samples = {}
    for code, key in enumerate(index.values):
        group = slice(bounds[code], bounds[code + 1])
        samples[key] = _V01GroupSample(
            key, ids[group].tolist(), ids[group][flags[group]].tolist(), index.group_size(key)
        )
    return _V01SampleOutcome(samples)


def _rewrite_as_v01(path, index, monkeypatch, old_evidence):
    """Re-frame the blob at ``path`` under the v01 magic, CRC valid.

    With ``old_evidence`` the pickled outcomes are also the v01 classes —
    ``repro.sampling.sampler.GroupSample`` lists, a name this tree no longer
    has — so the blob is what the parent wrote, not merely its first bytes.
    """
    payload = _read_blob(path)
    if old_evidence:
        _V01GroupSample.__module__ = _V01SampleOutcome.__module__ = sampler_module.__name__
        _V01GroupSample.__qualname__ = _V01GroupSample.__name__ = "GroupSample"
        _V01SampleOutcome.__qualname__ = _V01SampleOutcome.__name__ = "SampleOutcome"
        for record in payload["stats"]:
            if record["cache"] == "outcome":
                record["payload"] = _as_v01(index, record["payload"])
        payload["plans"] = []  # CachedPlan is frozen; the stats records carry the evidence
        monkeypatch.setattr(sampler_module, "GroupSample", _V01GroupSample, raising=False)
        monkeypatch.setattr(sampler_module, "SampleOutcome", _V01SampleOutcome)
    data = pickle.dumps(payload, protocol=4)
    monkeypatch.undo()
    if old_evidence:
        assert b"GroupSample" in data and not hasattr(sampler_module, "GroupSample")
    with open(path, "wb") as handle:
        handle.write(V01_MAGIC + zlib.crc32(data).to_bytes(4, "little") + data)


@pytest.mark.parametrize("old_evidence", [False, True], ids=["v02-payload", "v01-payload"])
def test_v01_blob_is_quarantined_counted_and_the_table_served_cold(
    tmp_path, dataset, monkeypatch, old_evidence
):
    assert WARM_MAGIC == b"RPWRM02\x00"
    storage_dir = str(tmp_path)
    service, udf = _service(_fresh_catalog(dataset), dataset, storage_dir)
    service.submit(_query(dataset, udf), seed=0)
    service.submit(_query(dataset, udf), seed=7)
    service.close()
    store, path = _blob_path(storage_dir, dataset)
    _rewrite_as_v01(path, dataset.table.group_index("grade"), monkeypatch, old_evidence)

    # What a service that never saw a blob answers, cold then warm.
    reference, reference_udf = _service(_fresh_catalog(dataset), dataset, None)
    try:
        cold = reference.submit(_query(dataset, reference_udf), seed=3)
        warm = reference.submit(_query(dataset, reference_udf), seed=7)
    finally:
        reference.close()

    catalog, _reports = CatalogStore(storage_dir).open()
    service, udf = _service(catalog, dataset, storage_dir)  # must not raise
    try:
        storage = service.stats().storage
        assert storage["restore_errors"] == 1
        assert storage["restored_plans"] == 0
        assert storage["restored_stats_entries"] == 0
        assert storage["restored_udf_memos"] == 0
        assert os.listdir(store.quarantine_dir) and not os.path.exists(path)
        assert len(service.plan_cache._cache) == 0
        assert service.stats_cache.snapshot()["sample_outcomes"]["size"] == 0
        first = service.submit(_query(dataset, udf), seed=3)
        assert first.metadata["plan_cache"] == "miss"
        assert first.row_ids.tolist() == cold.row_ids.tolist()
        again = service.submit(_query(dataset, udf), seed=7)
        assert again.metadata["plan_cache"] == "hit"
        assert again.row_ids.tolist() == warm.row_ids.tolist()
    finally:
        service.close()

    # The close wrote a v02 blob: the next start is warm again.
    with open(path, "rb") as handle:
        assert handle.read(len(WARM_MAGIC)) == WARM_MAGIC
    catalog, _reports = CatalogStore(storage_dir).open()
    service, udf = _service(catalog, dataset, storage_dir)
    try:
        assert service.stats().storage["restore_errors"] == 0
        restored = service.submit(_query(dataset, udf), seed=7)
        assert restored.metadata["plan_cache"] == "restored"
        assert restored.row_ids.tolist() == warm.row_ids.tolist()
    finally:
        service.close()


def test_pickled_evidence_is_narrowed_and_no_bigger_than_the_lists():
    """A count, on a fixed fixture: ``durable_churn``'s 6 100 rows of a 100k table."""
    rng = np.random.default_rng(21)
    ids = rng.choice(100_000, size=6_100, replace=False)
    flags = rng.random(6_100) < 0.3
    outcome = SampleOutcome(ids, flags)
    as_lists = pickle.dumps((ids.tolist(), ids[flags].tolist()), protocol=4)
    as_wide_arrays = pickle.dumps((ids.astype(np.intp), flags), protocol=4)
    blob = pickle.dumps(outcome, protocol=4)
    assert len(blob) < len(as_lists) < len(as_wide_arrays)
    assert len(blob) < 6_100 * 4 + 6_100 // 8 + 600  # uint32 ids + a bit per flag + framing
    restored = pickle.loads(blob)
    assert restored == outcome and type(restored) is SampleOutcome
    assert restored.row_ids.dtype == np.intp and restored.flags.dtype == bool
    assert not restored.row_ids.flags.writeable and not restored.flags.flags.writeable
    # Narrowing follows the largest id; nothing to narrow is still a round trip.
    small = pickle.loads(pickle.dumps(SampleOutcome([3, 250, 7], [True, False, True])))
    assert small.row_ids.tolist() == [3, 250, 7] and small.row_ids.dtype == np.intp
    assert pickle.loads(pickle.dumps(SampleOutcome())) == SampleOutcome()
