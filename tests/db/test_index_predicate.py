"""Tests for the group index and predicate expressions."""

import numpy as np
import pytest

from repro.db.errors import ColumnNotFoundError
from repro.db.index import GroupIndex
from repro.db.predicate import (
    AndPredicate,
    ColumnPredicate,
    NotPredicate,
    OrPredicate,
    UdfPredicate,
)
from repro.db.udf import CostLedger, UserDefinedFunction


class TestGroupIndex:
    def test_groups_match_table(self, toy_table):
        index = GroupIndex(toy_table, "A")
        assert index.num_groups == 3
        assert index.group_size(1) == 4
        assert index.group_size(2) == 3
        assert index.group_size(3) == 5

    def test_row_ids_partition_the_table(self, toy_table):
        index = GroupIndex(toy_table, "A")
        all_ids = sorted(
            np.concatenate([index.row_ids(v) for v in index.values]).tolist()
        )
        assert all_ids == list(range(toy_table.num_rows))

    def test_total_rows(self, toy_table):
        assert GroupIndex(toy_table, "A").total_rows() == toy_table.num_rows

    def test_missing_value_gives_empty_group(self, toy_table):
        index = GroupIndex(toy_table, "A")
        assert len(index.row_ids(99)) == 0
        assert index.group_size(99) == 0

    def test_row_ids_are_cached_readonly_views(self, toy_table):
        index = GroupIndex(toy_table, "A")
        first = index.row_ids(1)
        assert first is index.row_ids(1)  # no per-access copy
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 99

    def test_codes_align_with_values(self, toy_table):
        index = GroupIndex(toy_table, "A")
        keys = index.values
        column = toy_table.column_values("A")
        assert [keys[c] for c in index.codes.tolist()] == column
        for value in keys:
            code = index.code_of(value)
            assert (index.codes[index.row_ids(value)] == code).all()
        assert index.code_of("absent") == -1

    def test_grouping_matches_dict_reference(self, toy_table):
        index = GroupIndex(toy_table, "A")
        reference = toy_table.group_row_ids("A")
        assert index.values == list(reference.keys())
        for value, expected in reference.items():
            assert index.row_ids(value).tolist() == expected

    def test_label_counts(self, toy_table):
        index = GroupIndex(toy_table, "A")
        labels = toy_table.column_values("f", allow_hidden=True)
        row_ids = list(toy_table.row_ids)
        totals, positives = index.label_counts(row_ids, [labels[r] for r in row_ids])
        assert totals.tolist() == [index.group_size(v) for v in index.values]
        expected_positives = [
            sum(1 for r in index.row_ids(v).tolist() if labels[r])
            for v in index.values
        ]
        assert positives.tolist() == expected_positives

    def test_catalog_group_index_delegates_to_table(self, toy_table):
        from repro.db.catalog import Catalog

        catalog = Catalog()
        catalog.register_table(toy_table)
        index = catalog.group_index(toy_table.name, "A")
        assert index is toy_table.group_index("A")

    def test_label_counts_skips_out_of_range_rows(self, toy_table):
        index = GroupIndex(toy_table, "A")
        in_range = list(toy_table.row_ids)
        totals, positives = index.label_counts(
            in_range + [999, -1], [True] * len(in_range) + [True, True]
        )
        assert totals.tolist() == [index.group_size(v) for v in index.values]
        assert positives.tolist() == totals.tolist()

    def test_table_group_index_is_shared_and_counted(self, toy_table):
        builds_before = GroupIndex.builds_total
        first = toy_table.group_index("A")
        second = toy_table.group_index("A")
        assert first is second
        assert toy_table.has_group_index("A")
        assert GroupIndex.builds_total == builds_before + 1
        # Hidden-column indexes are cached under a separate key.
        hidden = toy_table.group_index("f", allow_hidden=True)
        assert hidden is not first
        assert toy_table.group_index("f", allow_hidden=True) is hidden

    def test_contains(self, toy_table):
        index = GroupIndex(toy_table, "A")
        assert 1 in index
        assert 99 not in index

    def test_unknown_column_rejected(self, toy_table):
        with pytest.raises(ColumnNotFoundError):
            GroupIndex(toy_table, "nope")

    def test_group_sizes_mapping(self, toy_table):
        assert GroupIndex(toy_table, "A").group_sizes() == {1: 4, 2: 3, 3: 5}

    def test_hidden_column_requires_flag(self, toy_table):
        with pytest.raises(ColumnNotFoundError):
            GroupIndex(toy_table, "f")
        index = GroupIndex(toy_table, "f", allow_hidden=True)
        assert index.num_groups == 2


class TestStableCodeOrder:
    """``_install`` sorts codes over the narrowest unsigned dtype that holds
    them; the permutation must be the ``intp`` stable argsort's, on both
    sides of every dtype boundary."""

    @pytest.mark.parametrize("groups", [1, 2, 255, 256, 257, 65_535, 65_536, 65_537])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_equals_the_intp_argsort(self, groups, seed):
        from repro.db.index import _stable_code_order

        rng = np.random.default_rng(seed)
        # Every code at least once (so the largest one is really there),
        # plus enough repeats that stability is observable.
        codes = np.concatenate(
            [np.arange(groups), rng.integers(0, groups, size=groups // 2 + 50)]
        ).astype(np.intp)
        rng.shuffle(codes)
        expected = np.argsort(codes, kind="stable")
        order = _stable_code_order(codes, groups)
        assert order.dtype == expected.dtype
        assert np.array_equal(order, expected)
        assert codes.dtype == np.intp  # the index keeps its codes as they were

    @pytest.mark.parametrize("groups", [1, 255, 256, 65_535, 65_536])
    def test_installed_row_ids_are_ascending_per_group(self, groups):
        rng = np.random.default_rng(groups)
        codes = np.concatenate(
            [np.arange(groups), rng.integers(0, groups, size=200)]
        ).astype(np.intp)
        rng.shuffle(codes)
        index = GroupIndex.__new__(GroupIndex)
        index._install(list(range(groups)), codes, count_build=False)
        for code in (0, groups // 2, groups - 1):
            assert np.array_equal(index.row_ids(code), np.flatnonzero(codes == code))


class TestColumnPredicate:
    def test_equality(self, toy_table):
        predicate = ColumnPredicate("A", "==", 1)
        assert predicate.evaluate(toy_table, 0)
        assert not predicate.evaluate(toy_table, 5)

    def test_comparison_operators(self, toy_table):
        assert ColumnPredicate("A", ">", 2).evaluate(toy_table, 8)
        assert ColumnPredicate("A", "<=", 1).evaluate(toy_table, 3)
        assert ColumnPredicate("A", "!=", 3).evaluate(toy_table, 0)

    def test_in_operator(self, toy_table):
        assert ColumnPredicate("A", "in", (1, 2)).evaluate(toy_table, 5)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            ColumnPredicate("A", "~=", 1)

    def test_not_expensive(self):
        assert not ColumnPredicate("A", "==", 1).is_expensive


class TestUdfPredicate:
    def test_evaluation_and_cost_charging(self, toy_table, toy_udf):
        predicate = UdfPredicate(toy_udf)
        ledger = CostLedger()
        assert predicate.evaluate(toy_table, 0, ledger)
        assert not predicate.evaluate(toy_table, 4, ledger)
        assert ledger.evaluated_count == 2

    def test_expected_false(self, toy_table, toy_udf):
        predicate = UdfPredicate(toy_udf, expected=False)
        assert predicate.evaluate(toy_table, 4)

    def test_is_expensive(self, toy_udf):
        assert UdfPredicate(toy_udf).is_expensive

    def test_udfs_iteration(self, toy_udf):
        assert list(UdfPredicate(toy_udf).udfs()) == [toy_udf]


class TestCombinators:
    def test_and_or_not(self, toy_table, toy_udf):
        cheap = ColumnPredicate("A", "==", 2)
        expensive = UdfPredicate(toy_udf)
        conjunction = cheap & expensive
        assert isinstance(conjunction, AndPredicate)
        # Tuple 5 has A == 2 and f == True.
        assert conjunction.evaluate(toy_table, 5)
        # Tuple 4 has A == 2 but f == False.
        assert not conjunction.evaluate(toy_table, 4)

        disjunction = cheap | expensive
        assert isinstance(disjunction, OrPredicate)
        assert disjunction.evaluate(toy_table, 0)  # f true even though A != 2

        negation = ~cheap
        assert isinstance(negation, NotPredicate)
        assert negation.evaluate(toy_table, 0)

    def test_and_evaluates_cheap_predicates_first(self, toy_table):
        calls = []

        def tracking_udf(row):
            calls.append(row["A"])
            return True

        udf = UserDefinedFunction("track", tracking_udf)
        predicate = AndPredicate([UdfPredicate(udf), ColumnPredicate("A", "==", 1)])
        # Row 5 has A == 2, so the cheap predicate fails and the UDF is skipped.
        assert not predicate.evaluate(toy_table, 5)
        assert calls == []

    def test_empty_combinators_rejected(self):
        with pytest.raises(ValueError):
            AndPredicate([])
        with pytest.raises(ValueError):
            OrPredicate([])

    def test_nested_udf_discovery(self, toy_udf):
        inner = AndPredicate([UdfPredicate(toy_udf), ColumnPredicate("A", "==", 1)])
        outer = NotPredicate(inner)
        assert list(outer.udfs()) == [toy_udf]
