"""Warm state is segments under one record per warm directory — each
table's, and the catalog's, which holds every UDF memo once: each record
kind round-trips, a pre-1.19 blob is ignored then swept, and a torn or
corrupt warm file costs warmth — never correctness, never the previous warm
state.

A service over two small tables — ``loans`` (an 8-group ``grade``, a
300-group ``many``, a mixed-type ``mixed`` column) and its copy
``loans_b`` — answers a cold and a warm query per table and closes; the
tests reopen it from disk as a fresh process would.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.groups import SelectivityModel
from repro.core.plan import ExecutionPlan
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.index import GroupIndex
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.storage import CatalogStore, read_manifest, storage_counters
from repro.db.storage.segments import validate_segment_header, write_segment
from repro.db.table import Table, narrowed_ids
from repro.db.udf import UserDefinedFunction
from repro.resilience.faults import ERROR, FaultPlan, FaultRule, InjectedFault, fault_scope
from repro.sampling.sampler import SampleOutcome
from repro.serving import QueryService, ServiceConfig
from repro.serving import persistence
from repro.serving.persistence import WARM_RECORD

TABLES = ("loans", "loans_b")


def _columns(rows=3_000):
    rng = np.random.default_rng(11)
    grade = rng.integers(0, 8, rows)
    many = rng.integers(0, 300, rows)
    many[:300] = np.arange(300)  # every group present: codes need two bytes
    return {
        "grade": [f"g{code}" for code in grade],
        "many": many.tolist(),
        "mixed": [int(v) if v % 2 else f"m{v}" for v in rng.integers(0, 6, rows)],
        "is_good": (rng.random(rows) < 0.15 + 0.7 * grade / 8).tolist(),
    }


def _checkpoint(directory, layout, tables=TABLES):
    """A catalog of ``tables`` checkpointed into ``directory``; returns it."""
    catalog = Catalog()
    for name in tables:
        if layout == "sharded":
            table = ShardedTable.from_columns(
                name, _columns(), hidden_columns=["is_good"], num_shards=4
            )
        else:
            table = Table.from_columns(name, _columns(), hidden_columns=["is_good"])
        catalog.register_table(table)
    CatalogStore(str(directory)).save(catalog)
    return str(directory)


@pytest.fixture(params=["plain", "sharded"])
def layout(request):
    return request.param


@pytest.fixture
def storage(tmp_path, layout):
    """Both tables checkpointed into ``tmp_path``."""
    return _checkpoint(tmp_path, layout)


def _service(storage_dir):
    catalog, _reports = CatalogStore(storage_dir).open()
    udf = UserDefinedFunction.from_label_column("label", "is_good")
    catalog.register_udf(udf)
    return QueryService(Engine(catalog), config=ServiceConfig(storage_dir=storage_dir)), udf


def _query(udf, table="loans", alpha=0.8, column="grade"):
    return SelectQuery(
        table=table, predicate=UdfPredicate(udf), alpha=alpha, beta=0.8, rho=0.8,
        correlated_column=column,
    )


def _served(storage_dir, tables=TABLES):
    """Cold (seed 0) and warm (seed 7) answers per table, then a close."""
    service, udf = _service(storage_dir)
    answers = {}
    for name in tables:
        cold = service.submit(_query(udf, name), seed=0)
        answers[name] = (cold.row_ids.tolist(), service.submit(_query(udf, name), seed=7))
    service.close()
    return {name: (cold, warm.row_ids.tolist()) for name, (cold, warm) in answers.items()}


def _warm_dir(storage_dir, name="loans"):
    """A table's warm directory, or with ``name=None`` the catalog's."""
    if name is None:
        return os.path.join(storage_dir, "warm")
    return CatalogStore(storage_dir).table_store(name).warm_dir


def _record(storage_dir, name="loans"):
    return read_manifest(os.path.join(_warm_dir(storage_dir, name), WARM_RECORD))


def _header(storage_dir, entry, name="loans"):
    return validate_segment_header(os.path.join(_warm_dir(storage_dir, name), entry["file"]))[0]


# -- one round trip per record kind ---------------------------------------------
def test_index_values_and_codes_round_trip_narrowed(storage):
    service, udf = _service(storage)
    table = service.catalog.table("loans")
    before = {column: table.group_index(column) for column in ("grade", "many", "mixed")}
    service.close()

    indexes = {record["column"]: record for record in _record(storage)["indexes"]}
    assert set(indexes) == set(before)  # one record per indexed column, sharded or not
    assert _header(storage, indexes["grade"]["codes"])["dtype"] == "|u1"
    assert _header(storage, indexes["many"]["codes"])["dtype"] == "<u2"
    assert _header(storage, indexes["mixed"]["values"])["kind"] == "pickle"

    builds = GroupIndex.builds_total
    service, _udf = _service(storage)
    try:
        assert service.stats().storage["restored_group_indexes"] == 3
        reopened = service.catalog.table("loans")
        for column, index in before.items():
            restored = reopened.group_index(column)
            assert restored.values == index.values
            assert [type(value) for value in restored.values] == [
                type(value) for value in index.values
            ]
            assert np.array_equal(restored.codes, index.codes)
            assert restored.codes.dtype == np.intp
            assert type(restored) is type(index)
        assert GroupIndex.builds_total == builds  # installed, not built
    finally:
        service.close()


def test_memo_round_trip(storage, monkeypatch):
    """Each memo is written once per save, beside ``CATALOG.json``, however
    many tables the catalog holds; no table record carries one."""
    service, udf = _service(storage)
    service.submit(_query(udf), seed=0)
    service.submit(_query(udf, "loans_b"), seed=0)
    saved = udf.memo_arrays()
    kinds = []

    def counted(path, kind, array):
        kinds.append(kind)
        return write_segment(path, kind, array)

    with monkeypatch.context() as patch:
        patch.setattr(persistence, "write_segment", counted)
        counts = service.save_warm_state()
    service.close()
    assert counts["udf_memos"] == 1
    record = _record(storage, None)
    (memo,) = record["memos"]
    assert memo["udf"] == "label" and memo["ids"]["rows"] == saved[0].size > 0
    assert _header(storage, memo["ids"], None)["dtype"] == "<u2"
    assert _header(storage, memo["values"], None)["dtype"] == "|b1"
    assert set(record["signatures"]) == set(TABLES)
    for name in TABLES:
        assert "memos" not in _record(storage, name)
        assert not [n for n in os.listdir(_warm_dir(storage, name)) if n.endswith("-memo.seg")]
    tables = [_record(storage, name) for name in TABLES]
    assert kinds.count("memo") == 1  # once, for two tables
    assert len(kinds) == 2 + sum(2 * len(r["indexes"]) + 2 * len(r["evidence"]) for r in tables)
    for _reopen in range(2):  # the second reopen reads what the first one's close wrote
        service, udf = _service(storage)  # a cold UDF: the memo comes from disk
        try:
            assert service.stats().storage["restored_udf_memos"] == 1
            assert all(np.array_equal(a, b) for a, b in zip(udf.memo_arrays(), saved))
            assert udf.counter_snapshot()["calls"] == 0
            assert udf.counter_snapshot()["cache_size"] == saved[0].size
        finally:
            service.close()


def _evidence(service):
    """``(plan entries, labelled samples, sample outcomes)`` the caches hold."""
    return (
        [entry for _, entry in service.plan_cache._cache.items()],
        [value[3] for _, value in service.stats_cache.labeled_samples.items()],
        [value[3] for _, value in service.stats_cache.sample_outcomes.items()],
    )


def test_evidence_round_trip_keeps_shared_identity(storage):
    """With no designated column the cold run labels a uniform sample too."""
    service, udf = _service(storage)
    service.submit(_query(udf, column=None), seed=0)
    service.submit(_query(udf, column=None), seed=7)
    (entry,), labeled, outcomes = _evidence(service)
    assert labeled and any(outcome is entry.sample_outcome for outcome in outcomes)
    distinct = {id(evidence) for evidence in [entry.sample_outcome, *labeled, *outcomes]}
    service.close()

    record = _record(storage)
    assert len(record["evidence"]) == len(distinct)  # each object written once
    for evidence in record["evidence"]:
        assert _header(storage, evidence["ids"])["dtype"] == "<u2"
        assert _header(storage, evidence["flags"])["dtype"] == "|b1"

    service, _udf = _service(storage)
    try:
        (restored,), restored_labeled, restored_outcomes = _evidence(service)
        assert any(outcome is restored.sample_outcome for outcome in restored_outcomes)
        assert type(restored.sample_outcome) is SampleOutcome
        assert restored.sample_outcome == entry.sample_outcome
        assert [type(sample) for sample in restored_labeled] == [type(s) for s in labeled]
        assert restored_labeled == labeled and restored_outcomes == outcomes
        for evidence in (restored.sample_outcome, *restored_labeled):
            assert evidence.row_ids.dtype == np.intp and evidence.flags.dtype == bool
            assert not evidence.row_ids.flags.writeable and not evidence.flags.flags.writeable
    finally:
        service.close()


def test_plan_and_model_round_trip_including_empty_and_fallback_plans(storage):
    service, udf = _service(storage)
    service.submit(_query(udf), seed=0)
    (signature, solved), = [item for item in service.plan_cache._cache.items()]
    keys = service.catalog.table("loans").group_index("grade").values
    extra = {
        ("test", "empty"): replace(
            solved, plan=ExecutionPlan({}), model=SelectivityModel([]), sample_outcome=None
        ),
        ("test", "fallback"): replace(
            solved, plan=ExecutionPlan.evaluate_everything(keys), used_fallback=True
        ),
    }
    for key, entry in extra.items():
        service.plan_cache.put(key, entry)
    originals = {signature: solved, **extra}
    service.close()
    assert len(_record(storage)["plans"]) == 3

    service, _udf = _service(storage)
    try:
        assert service.stats().storage["restored_plans"] == 3
        table = service.catalog.table("loans")
        for key, original in originals.items():
            restored = service.plan_cache.get(key, record=False)
            assert restored.restored and restored.working_table is restored.base_table is table
            assert restored.plan == original.plan
            assert list(restored.plan.decisions) == list(original.plan.decisions)
            assert list(restored.model) == list(original.model)
            assert (restored.sample_outcome is None) == (original.sample_outcome is None)
            for field in ("column", "expected_execution_cost", "used_fallback",
                          "solver_version", "data_generation", "table_rows"):
                assert getattr(restored, field) == getattr(original, field)
    finally:
        service.close()


def test_a_plan_whose_signature_is_not_json_is_skipped_never_fatal(storage):
    service, udf = _service(storage)
    try:
        service.submit(_query(udf), seed=0)
        ((signature, solved),) = list(service.plan_cache._cache.items())
        service.plan_cache.put(("test", object()), solved)
        counts = service.save_warm_state()
        assert (counts["plans"], counts["stats_entries"], counts["group_indexes"]) == (1, 1, 1)
        (record,) = _record(storage)["plans"]
        assert record["signature"] == json.loads(json.dumps(signature))
    finally:
        service.plan_cache.clear()
        service.close()


def test_a_state_blob_left_by_1_18_is_not_read_and_the_next_save_removes_it(storage):
    answers = _served(storage, tables=("loans",))
    warm_dir = _warm_dir(storage)
    for filename in os.listdir(warm_dir):
        os.remove(os.path.join(warm_dir, filename))
    blob = os.path.join(warm_dir, "state.blob")
    with open(blob, "wb") as handle:
        handle.write(b"RPWRM02\x00" + bytes(64))

    service, udf = _service(storage)  # cold once: nothing of the blob is read
    try:
        storage_counts = service.stats().storage
        assert storage_counts["restore_errors"] == 0 and storage_counts["restored_plans"] == 0
        cold = service.submit(_query(udf), seed=0)
        assert cold.metadata["plan_cache"] == "miss"
        assert cold.row_ids.tolist() == answers["loans"][0]
    finally:
        service.close()
    assert not os.path.exists(blob) and os.path.exists(os.path.join(warm_dir, WARM_RECORD))

    service, udf = _service(storage)
    try:
        restored = service.submit(_query(udf), seed=7)
        assert restored.metadata["plan_cache"] == "restored"
        assert restored.row_ids.tolist() == answers["loans"][1]
    finally:
        service.close()


def test_narrowing_follows_the_largest_value_and_leaves_the_rest_alone():
    assert narrowed_ids(np.asarray([0, 255], dtype=np.intp)).dtype == np.uint8
    assert narrowed_ids(np.asarray([0, 256], dtype=np.intp)).dtype == np.uint16
    assert narrowed_ids(np.asarray([70_000], dtype=np.intp)).dtype == np.uint32
    for untouched in (np.empty(0, dtype=np.intp), np.asarray([3, -1], dtype=np.intp)):
        assert narrowed_ids(untouched) is untouched


# -- faults and corruption --------------------------------------------------------
def _saved_then_solved(directory):
    """A service whose warm state holds plan A, with plan B solved since;
    returns it, its UDF, A's warm answer and B's answer."""
    service, udf = _service(directory)
    service.submit(_query(udf), seed=0)
    warm = service.submit(_query(udf), seed=7).row_ids.tolist()
    service.save_warm_state()
    other = service.submit(_query(udf, alpha=0.9), seed=0).row_ids.tolist()
    return service, udf, warm, other


def _warm_write_sites(directory):
    """``(site, hit)`` of every write of the next save's warm state: each
    segment (the save checkpoints no table segment), then the two records —
    the catalog's (memos, written first) and the table's."""
    service, _udf, _warm, _other = _saved_then_solved(directory)
    rules = {site: FaultRule(ERROR, addresses=frozenset())
             for site in ("segment_write", "manifest_write")}
    plan = FaultPlan(seed=0, rules=rules)
    written = storage_counters()["segments_written"]
    with fault_scope(plan):
        service.save_warm_state()
    assert storage_counters()["segments_written"] == written
    service.close()
    segments = plan.next_address("segment_write")
    last_manifest = plan.next_address("manifest_write") - 1  # the table's warm record
    return [("segment_write", hit) for hit in range(segments)] + [
        ("manifest_write", last_manifest - 1), ("manifest_write", last_manifest)
    ]


def test_fault_at_every_warm_write_keeps_the_previous_warm_state(tmp_path, layout):
    """A torn warm write leaves the warm state the save before committed:
    its one plan restores, the plan solved after it is a miss, every answer
    is the one served before the restart, and no ``.tmp`` file is left."""
    sites = _warm_write_sites(_checkpoint(tmp_path / "probe", layout, ("loans",)))
    assert len(sites) == 2 * 4 + 2  # memo, index, two evidences: 2 arrays each; two records
    for site, hit in sites:
        directory = _checkpoint(tmp_path / f"{site}-{hit}", layout, ("loans",))
        service, udf, warm, other = _saved_then_solved(directory)
        rule = FaultRule(ERROR, addresses=frozenset({(hit,)}))
        with fault_scope(FaultPlan(seed=0, rules={site: rule})):
            with pytest.raises(InjectedFault):
                service.save_warm_state()
        service._storage = None  # the process dies here: close saves nothing
        service.close()

        service, udf = _service(directory)
        try:
            counts = service.stats().storage
            assert (site, counts["restore_errors"], counts["restored_plans"]) == (site, 0, 1)
            restored = service.submit(_query(udf), seed=7)
            assert restored.metadata["plan_cache"] == "restored"
            assert restored.row_ids.tolist() == warm
            again = service.submit(_query(udf, alpha=0.9), seed=0)
            assert again.metadata["plan_cache"] == "miss"
            assert again.row_ids.tolist() == other
        finally:
            service.close()
        assert not [
            name for _root, _dirs, names in os.walk(directory) for name in names
            if name.endswith(".tmp")
        ]


def _flip_a_byte(warm_dir, kind):
    """Flip one byte of ``warm_dir``'s record or first ``kind`` segment;
    returns the file's path."""
    if kind == "record":
        path, position = os.path.join(warm_dir, WARM_RECORD), 40
    else:
        (name, *_rest) = sorted(n for n in os.listdir(warm_dir) if n.endswith(f"-{kind}.seg"))
        path, position = os.path.join(warm_dir, name), -1
    data = bytearray(open(path, "rb").read())
    data[position] ^= 0x20
    open(path, "wb").write(bytes(data))
    return path


@pytest.mark.parametrize("kind", ["record", "values", "codes", "ids", "flags"])
def test_fault_flipped_byte_in_a_warm_file_quarantines_that_table_only(storage, kind):
    answers = _served(storage)
    path = _flip_a_byte(_warm_dir(storage), kind)

    service, udf = _service(storage)
    try:
        counts = service.stats().storage
        assert counts["restore_errors"] == 1 and counts["checksum_failures"] == 1
        assert counts["restored_plans"] == 1 and counts["restored_udf_memos"] == 1
        quarantine = CatalogStore(storage).table_store("loans").quarantine_dir
        assert os.listdir(quarantine) == [os.path.basename(path)]
        cold = service.submit(_query(udf, "loans"), seed=0)
        assert cold.metadata["plan_cache"] == "miss"
        assert cold.row_ids.tolist() == answers["loans"][0]
        restored = service.submit(_query(udf, "loans_b"), seed=7)
        assert restored.metadata["plan_cache"] == "restored"
        assert restored.row_ids.tolist() == answers["loans_b"][1]
    finally:
        service.close()


@pytest.mark.parametrize("kind", ["record", "ids", "memo"])
def test_fault_flipped_byte_in_the_memo_record_leaves_only_the_memos_cold(storage, kind):
    answers = _served(storage)
    path = _flip_a_byte(_warm_dir(storage, None), kind)

    service, udf = _service(storage)
    try:
        counts = service.stats().storage
        assert counts["restore_errors"] == 1 and counts["checksum_failures"] == 1
        assert counts["restored_plans"] == 2 and counts["restored_udf_memos"] == 0
        quarantine = os.path.join(storage, "quarantine")
        assert os.listdir(quarantine) == [os.path.basename(path)]
        assert udf.counter_snapshot()["cache_size"] == 0
        for name in TABLES:
            restored = service.submit(_query(udf, name), seed=7)
            assert restored.metadata["plan_cache"] == "restored"
            assert restored.row_ids.tolist() == answers[name][1]
    finally:
        service.close()
