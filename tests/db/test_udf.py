"""Tests for UDFs and cost ledgers."""

import numpy as np
import pytest

from repro.db.errors import BudgetExhaustedError, DuplicateObjectError, UdfNotFoundError
from repro.db.udf import CostLedger, UdfRegistry, UserDefinedFunction


def _ledger_with_budget(budget, free_memoized=False):
    ledger = CostLedger(retrieval_cost=1.0, evaluation_cost=3.0, free_memoized=free_memoized)
    ledger.set_budget(budget)
    return ledger


class TestCostLedger:
    def test_total_cost_formula(self):
        ledger = CostLedger(retrieval_cost=1.0, evaluation_cost=3.0)
        ledger.charge_retrieval(10)
        ledger.charge_evaluation(4)
        assert ledger.total_cost == pytest.approx(10 * 1.0 + 4 * 3.0)

    def test_default_costs_match_paper(self):
        ledger = CostLedger()
        assert ledger.retrieval_cost == 1.0
        assert ledger.evaluation_cost == 3.0

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostLedger(retrieval_cost=-1.0)

    def test_budget_enforced(self):
        ledger = CostLedger(retrieval_cost=1.0, evaluation_cost=3.0)
        ledger.set_budget(5.0)
        ledger.charge_evaluation()  # cost 3
        with pytest.raises(BudgetExhaustedError):
            ledger.charge_evaluation()  # would exceed 5

    def test_budget_allows_exact_fit(self):
        ledger = CostLedger(retrieval_cost=1.0, evaluation_cost=3.0)
        ledger.set_budget(4.0)
        ledger.charge_evaluation()
        ledger.charge_retrieval()
        assert ledger.total_cost == pytest.approx(4.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().set_budget(-1.0)

    def test_reset_clears_counts_not_costs(self):
        ledger = CostLedger(retrieval_cost=2.0)
        ledger.charge_retrieval(3)
        ledger.reset()
        assert ledger.retrieved_count == 0
        assert ledger.retrieval_cost == 2.0

    def test_snapshot(self):
        ledger = CostLedger()
        ledger.charge_retrieval()
        snap = ledger.snapshot()
        assert snap["retrieved"] == 1
        assert snap["total_cost"] == pytest.approx(1.0)


class TestUserDefinedFunction:
    def test_label_column_udf(self, toy_table):
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        assert udf.evaluate_row(toy_table, 0) is True
        assert udf.evaluate_row(toy_table, 4) is False

    def test_call_count_increments(self, toy_table):
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        udf.evaluate_row(toy_table, 0)
        udf.evaluate_row(toy_table, 1)
        assert udf.call_count == 2

    def test_memoization_avoids_recount(self, toy_table):
        udf = UserDefinedFunction.from_label_column("f_check", "f", evaluation_cost=3.0)
        udf.evaluate_row(toy_table, 0)
        udf.evaluate_row(toy_table, 0)
        assert udf.call_count == 1

    def test_the_memoize_keyword_is_gone(self):
        """Removed in 1.25: every UDF memoises, so there is no switch to pass."""
        with pytest.raises(TypeError, match="memoize"):
            UserDefinedFunction("g", lambda row: row["A"] == 1, memoize=False)
        assert not hasattr(UserDefinedFunction.from_label_column("f_check", "f"), "memoize")

    def test_reset(self, toy_table):
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        udf.evaluate_row(toy_table, 0)
        udf.reset()
        assert udf.call_count == 0

    def test_hit_miss_counters(self, toy_table):
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        udf.evaluate_row(toy_table, 0)
        udf.evaluate_row(toy_table, 0)
        udf.evaluate_row(toy_table, 1)
        assert udf.cache_misses == 2
        assert udf.cache_hits == 1
        snap = udf.counter_snapshot()
        assert snap["cache_hits"] == 1 and snap["cache_misses"] == 2
        udf.reset()
        assert udf.cache_hits == udf.cache_misses == 0

    def test_evaluate_rows_matches_per_row(self, toy_table):
        bulk = UserDefinedFunction.from_label_column("f_bulk", "f")
        single = UserDefinedFunction.from_label_column("f_single", "f")
        rows = list(toy_table.row_ids)
        outcomes = bulk.evaluate_rows(toy_table, rows)
        assert [bool(o) for o in outcomes] == [single.evaluate_row(toy_table, r) for r in rows]
        assert bulk.call_count == single.call_count == len(rows)

    @pytest.mark.parametrize("masked", [False, True], ids=["all_rows", "masked"])
    def test_evaluate_rows_serves_memoized_rows_from_cache(self, toy_table, masked):
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        udf.evaluate_rows(toy_table, [0, 1, 2])
        if masked:
            # Rows 4 and 5 are not picked: not evaluated, not counted, False
            # (row 5 is a positive), and the ledger pays for row 3 only.
            ledger = CostLedger(free_memoized=True)
            got = udf.evaluate_rows(
                toy_table,
                [1, 4, 2, 5, 3],
                np.array([True, False, True, False, True]),
                ledger,
            )
            assert got.tolist() == [True, False, True, False, True]
            assert ledger.evaluated_count == 1
        else:
            udf.evaluate_rows(toy_table, [1, 2, 3])
        assert udf.cache_hits == 2
        assert udf.cache_misses == 4
        assert udf.call_count == 4
        assert udf.memo_arrays()[0].tolist() == [0, 1, 2, 3]

    def test_oracle_mode_leaves_no_trace(self, toy_table):
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        with udf.oracle_mode():
            assert udf.evaluate_row(toy_table, 0) is True
        assert udf.call_count == 0
        assert udf.cache_misses == 0
        assert udf.counter_snapshot()["cache_size"] == 0
        # Paid evaluation afterwards is charged normally.
        udf.evaluate_row(toy_table, 0)
        assert udf.call_count == 1

    @pytest.mark.parametrize("masked", [False, True], ids=["all_rows", "masked"])
    def test_oracle_mode_covers_bulk_evaluation(self, toy_table, masked):
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        udf.evaluate_rows(toy_table, [1])
        before = udf.counter_snapshot()
        ids = list(toy_table.row_ids)
        mask = np.array([row % 2 == 0 for row in ids]) if masked else None
        ledger = CostLedger(free_memoized=True)
        with udf.oracle_mode():
            outcomes = udf.evaluate_rows(toy_table, ids, mask, ledger)
        assert bool(outcomes[0]) is True
        assert bool(outcomes[1]) is not masked  # row 1 is a positive, picked when unmasked
        # The ledger is the caller's: it is charged (rows the memo does not
        # know) even while the UDF itself records nothing.
        assert ledger.evaluated_count == (6 if masked else 11)
        assert udf.counter_snapshot() == before
        assert udf.memo_arrays()[0].tolist() == [1]

    @pytest.mark.parametrize("masked", [False, True], ids=["all_rows", "masked"])
    def test_evaluate_rows_generic_callable(self, toy_table, masked):
        seen = []

        def func(row):
            seen.append(row)
            return row["A"] == 1

        udf = UserDefinedFunction("g", func)
        udf.evaluate_rows(toy_table, [6])  # memoised: never called for again
        seen.clear()
        ids = [9, 6, 0, 4, 11, 2]
        mask = np.array([True, True, False, True, True, True]) if masked else None
        outcomes = udf.evaluate_rows(toy_table, ids, mask)
        # The function sees the picked rows the memo does not know, in the
        # order given.
        called = [9, 4, 11, 2] if masked else [9, 0, 4, 11, 2]
        assert seen == [toy_table.row(row, include_hidden=True) for row in called]
        values = toy_table.column_values("A")
        picked = [True] * len(ids) if mask is None else mask.tolist()
        assert outcomes.tolist() == [
            values[row] == 1 and pick for row, pick in zip(ids, picked)
        ]
        assert udf.counter_snapshot()["cache_hits"] == 1

    def test_direct_call_on_row_dict(self):
        udf = UserDefinedFunction("g", lambda row: row["x"] > 5)
        assert udf({"x": 10}) is True
        assert udf({"x": 1}) is False

    def test_missing_label_column_raises(self):
        udf = UserDefinedFunction.from_label_column("f_check", "missing")
        with pytest.raises(KeyError):
            udf({"other": 1})

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            UserDefinedFunction("g", lambda row: True, evaluation_cost=-1)

    @pytest.mark.parametrize(
        "call, error",
        [
            pytest.param(
                lambda udf, table: udf.evaluate_rows(table, [1, -1]),
                IndexError,
                id="evaluate_rows",
            ),
            pytest.param(
                lambda udf, table: udf.merge_remote_evaluations([1, -1], [True, False]),
                IndexError,
                id="merge_remote",
            ),
            pytest.param(
                lambda udf, table: udf.evaluate_rows(
                    table, [1, -1], np.array([True, True]), CostLedger(free_memoized=True)
                ),
                IndexError,
                id="evaluate_rows_masked",
            ),
            pytest.param(lambda udf, table: udf.is_memoized(-1), IndexError, id="is_memoized"),
            pytest.param(
                lambda udf, table: udf.evaluate_row(table, -1), IndexError, id="evaluate_row"
            ),
            pytest.param(
                lambda udf, table: udf.absorb_memo([1, -1], [True, False]),
                IndexError,
                id="absorb_memo",
            ),
            pytest.param(
                lambda udf, table: udf.evaluate_rows(table, [1, 3], np.array([True])),
                ValueError,
                id="mask_shape",
            ),
            # A budget that cannot pay for the one unknown picked row (3)
            # trips before any counter moves, any UDF work or memo write.
            pytest.param(
                lambda udf, table: udf.evaluate_rows(
                    table, [0, 3, 2], None, _ledger_with_budget(2.0, free_memoized=True)
                ),
                BudgetExhaustedError,
                id="budget",
            ),
        ],
    )
    def test_a_refused_call_leaves_no_side_effect(self, toy_table, call, error):
        # A bulk gather would wrap -1 to the last row and, in a
        # position-indexed memo, alias its slot; Table.row already refuses.
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        udf.evaluate_rows(toy_table, [0, 2])
        counters = udf.counter_snapshot()
        memo = [part.tolist() for part in udf.memo_arrays()]
        with pytest.raises(error):
            call(udf, toy_table)
        assert udf.counter_snapshot() == counters
        assert [part.tolist() for part in udf.memo_arrays()] == memo

    def test_ids_past_the_memo_capacity_are_not_memoised(self, toy_table):
        udf = UserDefinedFunction.from_label_column("f_check", "f")
        udf.evaluate_rows(toy_table, [0, 1])
        beyond = toy_table.num_rows + 1000
        assert not udf.is_memoized(beyond)
        # An id past the memo's end reads as unknown: a serving charge counts
        # it (3 > a budget of 2) before the gather could touch a missing row.
        with pytest.raises(BudgetExhaustedError):
            udf.evaluate_rows(
                toy_table, [1, beyond, 0], ledger=_ledger_with_budget(2.0, free_memoized=True)
            )
        # Left out of the mask it is never read, evaluated or charged.
        ledger = CostLedger(free_memoized=True)
        got = udf.evaluate_rows(
            toy_table, [1, beyond, 0], np.array([True, False, True]), ledger
        )
        assert got.tolist() == [True, False, True]
        assert ledger.evaluated_count == 0
        assert udf.counter_snapshot()["cache_hits"] == 2
        # Remote outcomes for rows a grown table now has land past the old end.
        udf.merge_remote_evaluations([beyond, 1], [True, False])
        assert udf.is_memoized(beyond)
        assert udf.counter_snapshot()["cache_size"] == 3
        assert udf.memo_arrays()[0].tolist() == [0, 1, beyond]


class TestRegistry:
    def test_register_and_get(self):
        registry = UdfRegistry()
        udf = UserDefinedFunction("f", lambda row: True)
        registry.register(udf)
        assert registry.get("f") is udf
        assert "f" in registry
        assert len(registry) == 1

    def test_duplicate_registration_rejected(self):
        registry = UdfRegistry()
        registry.register(UserDefinedFunction("f", lambda row: True))
        with pytest.raises(DuplicateObjectError):
            registry.register(UserDefinedFunction("f", lambda row: False))

    def test_replace_allowed_when_requested(self):
        registry = UdfRegistry()
        registry.register(UserDefinedFunction("f", lambda row: True))
        replacement = UserDefinedFunction("f", lambda row: False)
        registry.register(replacement, replace=True)
        assert registry.get("f") is replacement

    def test_missing_udf_raises(self):
        with pytest.raises(UdfNotFoundError):
            UdfRegistry().get("nope")

    def test_names(self):
        registry = UdfRegistry()
        registry.register(UserDefinedFunction("a", lambda row: True))
        registry.register(UserDefinedFunction("b", lambda row: True))
        assert registry.names() == ["a", "b"]
