"""Tests for ShardedTable / MergedGroupIndex / Catalog.shard_table."""

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.column import Column, ColumnType
from repro.db.errors import ColumnNotFoundError, SchemaMismatchError
from repro.db.index import GroupIndex, MergedGroupIndex
from repro.db.sharding import ShardedTable, shard_bounds
from repro.db.table import Table


def _columns(n=97, seed=5):
    rng = np.random.default_rng(seed)
    return {
        "grade": [f"g{int(v)}" for v in rng.integers(0, 4, n)],
        "is_good": [bool(v) for v in rng.random(n) < 0.4],
        "amount": [float(v) for v in rng.normal(size=n)],
    }


@pytest.fixture
def columns():
    return _columns()


@pytest.fixture
def plain(columns):
    return Table.from_columns("t", columns, hidden_columns=["is_good"])


@pytest.fixture
def sharded(columns):
    return ShardedTable.from_columns(
        "t", columns, hidden_columns=["is_good"], num_shards=4
    )


class TestShardBounds:
    def test_num_shards_covers_contiguously(self):
        bounds = shard_bounds(10, num_shards=3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert list(bounds) == sorted(bounds)

    def test_shard_rows(self):
        assert shard_bounds(10, shard_rows=4) == (0, 4, 8, 10)

    def test_single_shard_and_empty(self):
        assert shard_bounds(5, num_shards=1) == (0, 5)
        assert shard_bounds(0, num_shards=3) == (0, 0, 0, 0)

    def test_more_shards_than_rows(self):
        bounds = shard_bounds(2, num_shards=5)
        assert bounds[0] == 0 and bounds[-1] == 2

    def test_rejects_ambiguous_arguments(self):
        with pytest.raises(ValueError):
            shard_bounds(10)
        with pytest.raises(ValueError):
            shard_bounds(10, num_shards=2, shard_rows=3)


class TestShardedTable:
    def test_is_a_table_with_same_surface(self, plain, sharded):
        assert isinstance(sharded, Table)
        assert sharded.num_rows == plain.num_rows
        assert sharded.schema.column_names == plain.schema.column_names
        assert list(sharded.row_ids) == list(plain.row_ids)

    def test_column_values_match_unsharded(self, plain, sharded):
        for column in ("grade", "amount"):
            assert sharded.column_values(column) == plain.column_values(column)
        assert sharded.column_values(
            "is_good", allow_hidden=True
        ) == plain.column_values("is_good", allow_hidden=True)

    def test_column_array_matches_and_is_cached_read_only(self, plain, sharded):
        array = sharded.column_array("grade")
        assert np.array_equal(array, plain.column_array("grade"))
        assert not array.flags.writeable
        assert sharded.column_array("grade") is array

    def test_hidden_column_visibility_enforced(self, sharded):
        with pytest.raises(ColumnNotFoundError):
            sharded.column_values("is_good")
        with pytest.raises(ColumnNotFoundError):
            sharded.column_array("is_good")
        # and stays enforced once the hidden array is cached
        sharded.column_array("is_good", allow_hidden=True)
        with pytest.raises(ColumnNotFoundError):
            sharded.column_array("is_good")

    def test_row_and_value_route_to_owning_shard(self, plain, sharded):
        for row_id in (0, 24, 25, 48, 96):
            assert sharded.row(row_id) == plain.row(row_id)
            assert sharded.value(row_id, "grade") == plain.value(row_id, "grade")
        with pytest.raises(IndexError):
            sharded.row(97)

    def test_rows_iterate_in_global_order(self, plain, sharded):
        assert list(sharded.rows()) == list(plain.rows())

    def test_group_row_ids_matches_reference(self, plain, sharded):
        assert sharded.group_row_ids("grade") == plain.group_row_ids("grade")

    def test_select_rows_returns_plain_table(self, plain, sharded):
        subset = sharded.select_rows([5, 50, 90])
        reference = plain.select_rows([5, 50, 90])
        assert isinstance(subset, Table)
        for column in subset.schema.column_names:
            assert subset.column_values(
                column, allow_hidden=True
            ) == reference.column_values(column, allow_hidden=True)

    def test_with_column_preserves_shard_layout(self, sharded):
        new = Column(name="bucket", column_type=ColumnType.CATEGORICAL)
        values = [f"b{i % 3}" for i in range(sharded.num_rows)]
        augmented = sharded.with_column(new, values)
        assert isinstance(augmented, ShardedTable)
        assert augmented.shard_offsets == sharded.shard_offsets
        assert augmented.column_values("bucket") == values
        with pytest.raises(SchemaMismatchError):
            sharded.with_column(new, values[:-1])

    def test_from_rows_and_from_table_agree(self, plain, columns):
        rows = list(plain.rows(include_hidden=True))
        by_rows = ShardedTable.from_rows("t", rows, schema=plain.schema, num_shards=3)
        by_table = ShardedTable.from_table(plain, num_shards=3)
        for column in plain.schema.column_names:
            assert by_rows.column_values(
                column, allow_hidden=True
            ) == by_table.column_values(column, allow_hidden=True)

    def test_shard_signature_distinguishes_layouts(self, plain, columns):
        a = ShardedTable.from_table(plain, num_shards=2)
        b = ShardedTable.from_table(plain, num_shards=3)
        assert a.shard_signature() != b.shard_signature()
        assert plain.shard_signature() != a.shard_signature()

    def test_more_shards_than_rows_still_exact(self):
        columns = _columns(n=3)
        plain = Table.from_columns("tiny", columns, hidden_columns=["is_good"])
        sharded = ShardedTable.from_columns(
            "tiny", columns, hidden_columns=["is_good"], num_shards=5
        )
        assert sharded.column_values("grade") == plain.column_values("grade")
        merged = sharded.group_index("grade")
        reference = plain.group_index("grade")
        assert merged.values == reference.values
        assert np.array_equal(merged.codes, reference.codes)

    def test_mixed_type_column_falls_back_to_object_dtype(self):
        columns = {"mixed": ["a", "b", 1, 2, "c", 3]}
        plain = Table.from_columns("m", columns)
        sharded = ShardedTable.from_columns("m", columns, num_shards=2)
        # shard 0 is all-str, shard 1 all-int: the concatenated array must
        # not let numpy stringify the ints.
        assert sharded.column_array("mixed").dtype == object
        assert sharded.column_values("mixed") == plain.column_values("mixed")

    def test_numeric_promotion_matches_monolithic_dtype(self):
        # int/float mix splitting exactly along the shard boundary: the
        # sharded array must promote to float64 like np.asarray does on the
        # whole column, not fall back to object dtype.
        columns = {"x": [1, 2, 2.5, 3.5]}
        plain = Table.from_columns("n", columns, column_types={"x": "numeric"})
        sharded = ShardedTable.from_columns(
            "n", columns, column_types={"x": "numeric"}, num_shards=2
        )
        assert sharded.column_array("x").dtype == plain.column_array("x").dtype
        assert np.array_equal(sharded.column_array("x"), plain.column_array("x"))
        assert not np.isnan(sharded.column_array("x")).any()


class TestMergedGroupIndex:
    def test_equals_unsharded_index(self, plain, sharded):
        reference = plain.group_index("grade")
        merged = sharded.group_index("grade")
        assert isinstance(merged, MergedGroupIndex)
        assert merged.values == reference.values
        assert np.array_equal(merged.codes, reference.codes)
        assert merged.group_sizes() == reference.group_sizes()
        for value in reference.values:
            assert np.array_equal(merged.row_ids(value), reference.row_ids(value))

    def test_one_build_per_index_and_no_index_on_any_shard(self, sharded):
        before = GroupIndex.builds_total
        first = sharded.group_index("grade")
        assert GroupIndex.builds_total - before == 1  # not one per shard as well
        assert sharded.group_index("grade") is first
        assert GroupIndex.builds_total - before == 1
        assert all(not shard._group_indexes for shard in sharded.shards)
        assert "grade" not in sharded._arrays  # read a shard at a time

    def test_an_append_extends_each_index_once_and_a_seal_builds_nothing(self, sharded):
        sharded.group_index("grade")
        sharded.group_index("is_good", allow_hidden=True)
        shards_before = sharded.num_shards
        builds, extensions = GroupIndex.builds_total, GroupIndex.extensions_total
        delta = _columns(n=sharded.tail_shard_rows + 3, seed=9)  # overflows the tail
        sharded.append_columns(delta)
        assert sharded.num_shards > shards_before
        assert GroupIndex.builds_total == builds
        assert GroupIndex.extensions_total - extensions == 2  # one per indexed column
        assert sharded.group_index("grade").span_boundaries() == sharded.shard_offsets
        assert all(not shard._group_indexes for shard in sharded.shards)

    def test_index_holds_the_array_bytes_of_the_monolithic_twin(self, plain, sharded):
        def index_bytes(table):
            """Array bytes of every group index the table and its shards hold."""
            tables = [table, *getattr(table, "shards", ())]
            return sum(
                index.codes.nbytes + sum(rows.nbytes for _value, rows in index.items())
                for held in tables
                for index in held._group_indexes.values()
            )

        plain.group_index("grade")
        sharded.group_index("grade")
        assert index_bytes(sharded) == index_bytes(plain)
        # intp codes + intp group order: 16 B/row, and no second copy per shard
        assert index_bytes(sharded) == 2 * np.dtype(np.intp).itemsize * plain.num_rows

    def test_span_boundaries_report_shard_layout(self, plain, sharded):
        assert sharded.group_index("grade").span_boundaries() == sharded.shard_offsets
        assert plain.group_index("grade").span_boundaries() == (0, plain.num_rows)

    def test_label_counts_match(self, plain, sharded):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, plain.num_rows, 40)
        labels = rng.random(40) < 0.5
        ref_totals, ref_positives = plain.group_index("grade").label_counts(ids, labels)
        got_totals, got_positives = sharded.group_index("grade").label_counts(ids, labels)
        assert np.array_equal(ref_totals, got_totals)
        assert np.array_equal(ref_positives, got_positives)


class TestCatalogSharding:
    def test_shard_table_replaces_in_place(self, plain):
        catalog = Catalog()
        catalog.register_table(plain)
        sharded = catalog.shard_table("t", num_shards=4)
        assert catalog.table("t") is sharded
        assert isinstance(sharded, ShardedTable)
        assert sharded.name == "t"
        assert sharded.column_values("grade") == plain.column_values("grade")

    def test_resharding_same_count_is_idempotent(self, plain):
        catalog = Catalog()
        catalog.register_table(plain)
        first = catalog.shard_table("t", num_shards=4)
        assert catalog.shard_table("t", num_shards=4) is first
        again = catalog.shard_table("t", num_shards=2)
        assert again is not first and again.num_shards == 2

    def test_group_index_delegates_to_merged_index(self, plain):
        catalog = Catalog()
        catalog.register_table(plain)
        catalog.shard_table("t", num_shards=3)
        assert isinstance(catalog.group_index("t", "grade"), MergedGroupIndex)
