"""The warm blob stores ids and codes narrow; readers widen whatever they find.

Group codes lie in ``[0, num_groups)`` and memo row ids below the table's row
count, yet both were pickled as ``intp`` — eight bytes a row, most of the
blob.  They are written in the narrowest unsigned dtype that holds them
(:func:`repro.db.table.narrowed_ids`, the rule pickled evidence already
followed) and widened on restore, so the format version does not move: a
blob from before the narrowing — ``intp`` arrays in the same places — must
still restore warm, every part of it counted.

Nor does it move for what a blob no longer holds: an index record is the
table's one ``(values, codes)`` per indexed column.  A blob in the 1.10 shape
— the parts nested under ``"merged"``, a copy per shard under ``"shards"`` —
restores through the same lines, the per-shard copies unread.
"""

import os
import pickle

import numpy as np

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.storage import CatalogStore, read_manifest, write_manifest
from repro.db.table import Table, narrowed_ids
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService, ServiceConfig
from repro.serving.persistence import (
    WARM_STATE_FILE,
    _capture_indexes,
    _read_blob,
    _write_blob,
)


def _table(rows, groups, sharded):
    rng = np.random.default_rng(rows + groups)
    grade = rng.integers(0, groups, rows)
    grade[:groups] = np.arange(groups)  # every group present
    columns = {
        "grade": [f"g{code}" for code in grade],
        "is_good": (rng.random(rows) < 0.2 + 0.6 * (grade % 8) / 8).tolist(),
    }
    if sharded:
        return ShardedTable.from_columns(
            "loans", columns, hidden_columns=["is_good"], num_shards=4
        )
    return Table.from_columns("loans", columns, hidden_columns=["is_good"])


def _serve(catalog, storage_dir):
    udf = UserDefinedFunction.from_label_column("label", "is_good")
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog), config=ServiceConfig(storage_dir=storage_dir))
    query = SelectQuery(
        table="loans",
        predicate=UdfPredicate(udf),
        alpha=0.8,
        beta=0.8,
        rho=0.8,
        correlated_column="grade",
    )
    return service, udf, query


def _served_and_closed(table, storage_dir):
    """Cold + warm query, clean shutdown; the warm answer and the blob's path."""
    catalog = Catalog()
    catalog.register_table(table)
    service, _udf, query = _serve(catalog, storage_dir)
    service.submit(query, seed=0)
    warm = service.submit(query, seed=7)
    service.close()
    store = CatalogStore(storage_dir).table_store("loans")
    return warm, os.path.join(store.warm_dir, WARM_STATE_FILE)


def _in_the_1_10_shape(payload, table):
    """``payload`` as 1.10 wrote it: each index's parts under ``merged``, and
    one more ``(values, codes)`` per shard — the shard's own factorisation."""

    def shard_parts(record, start, stop):
        codes = np.asarray(record["codes"][start:stop], dtype=np.intp)
        global_codes, local_codes = np.unique(codes, return_inverse=True)
        return {
            "values": [record["values"][code] for code in global_codes],
            "codes": narrowed_ids(local_codes.astype(np.intp)),
        }

    payload["indexes"] = [
        {
            "column": record["column"],
            "allow_hidden": record["allow_hidden"],
            "merged": {"values": record["values"], "codes": record["codes"]},
            "shards": [shard_parts(record, *span) for span in table.shard_spans()],
        }
        for record in payload["indexes"]
    ]
    return payload


def test_codes_and_memo_ids_are_pickled_in_the_narrowest_dtype(tmp_path):
    rows = 6_000
    _warm, path = _served_and_closed(_table(rows, 8, sharded=True), str(tmp_path))
    payload = _read_blob(path)
    (record,) = payload["indexes"]  # one per indexed column, none per shard
    assert set(record) == {"column", "allow_hidden", "values", "codes"}
    codes = record["codes"]
    assert codes.dtype == np.uint8 and int(codes.max()) == 7 and codes.size == rows
    ids, values = payload["udf_memos"]["label"]
    assert ids.dtype == np.uint16 and values.dtype == bool and ids.size == values.size > 0


def test_a_sharded_tables_blob_holds_one_copy_of_the_codes(tmp_path):
    """The bound sits between one copy of the codes (510 KB) and two (660)."""
    _warm, path = _served_and_closed(_table(150_000, 8, sharded=True), str(tmp_path))
    assert os.path.getsize(path) <= 520_000


def test_codes_of_300_groups_take_two_bytes_through_a_pickle():
    table = _table(3_000, 300, sharded=False)
    index = table.group_index("grade")
    (record,) = pickle.loads(pickle.dumps(_capture_indexes(table, probe=False), protocol=4))
    codes = record["codes"]
    assert codes.dtype == np.uint16
    assert np.array_equal(codes, index.codes) and index.codes.dtype == np.intp


def test_narrowing_follows_the_largest_value_and_leaves_the_rest_alone():
    assert narrowed_ids(np.asarray([0, 255], dtype=np.intp)).dtype == np.uint8
    assert narrowed_ids(np.asarray([0, 256], dtype=np.intp)).dtype == np.uint16
    assert narrowed_ids(np.asarray([70_000], dtype=np.intp)).dtype == np.uint32
    for untouched in (np.empty(0, dtype=np.intp), np.asarray([3, -1], dtype=np.intp)):
        assert narrowed_ids(untouched) is untouched


def test_a_blob_from_before_the_narrowing_restores_warm_and_is_much_bigger(tmp_path):
    """70k rows, so memo ids need four bytes: codes and ids as older commits
    wrote them (``intp``, merged and per shard) against what this tree
    writes."""
    storage_dir = str(tmp_path)
    table = _table(70_000, 8, sharded=True)
    warm, path = _served_and_closed(table, storage_dir)
    narrow_bytes = os.path.getsize(path)

    payload = _in_the_1_10_shape(_read_blob(path), table)
    for record in payload["indexes"]:
        for parts in [record["merged"], *record["shards"]]:
            parts["codes"] = parts["codes"].astype(np.intp)
    ids, values = payload["udf_memos"]["label"]
    assert ids.dtype == np.uint32
    payload["udf_memos"]["label"] = (ids.astype(np.intp), values)
    _write_blob(path, payload)
    assert narrow_bytes <= 0.40 * os.path.getsize(path)

    # ... under a manifest as 1.10 committed it, ``max_workers`` and all.
    manifest_path = CatalogStore(storage_dir).table_store("loans").manifest_path
    body = read_manifest(manifest_path)
    assert "max_workers" not in body  # no longer written
    write_manifest(manifest_path, {**body, "max_workers": 2})

    catalog, _reports = CatalogStore(storage_dir).open()
    service, udf, query = _serve(catalog, storage_dir)
    try:
        storage = service.stats().storage
        assert storage["restore_errors"] == 0
        assert storage["restored_plans"] == 1
        assert storage["restored_stats_entries"] >= 1  # the evidence
        assert storage["restored_group_indexes"] == 1
        assert storage["restored_udf_memos"] == 1
        reopened = catalog.table("loans")
        index = reopened.group_index("grade")
        assert index.codes.dtype == np.intp and not index.codes.flags.writeable
        assert index.span_boundaries() == reopened.shard_offsets
        assert all(not shard._group_indexes for shard in reopened.shards)
        restored = service.submit(query, seed=7)
        assert restored.metadata["plan_cache"] == "restored"
        assert restored.metadata["udf_cache"]["calls"] == 0
        assert np.array_equal(restored.row_ids, warm.row_ids)
        # Widened codes behave as built ones: an append extends them in place.
        reopened.append_columns({"grade": ["g1", "g9"], "is_good": [True, False]})
        assert service.submit(query, seed=8).metadata["plan_cache"] == "refresh"
    finally:
        service.close()
