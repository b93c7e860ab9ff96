"""Tests for the stratified group sampler and adaptive num search."""

import pytest

from repro.core.executor import candidate_frame
from repro.core.groups import SelectivityModel
from repro.db.index import GroupIndex
from repro.db.table import Table
from repro.db.udf import CostLedger
from repro.sampling.adaptive import (
    choose_num_adaptively,
    default_num_schedule,
)
from repro.sampling.sampler import GroupSampler, SampleOutcome


class TestGroupSampler:
    def test_allocation_is_respected(self, toy_table, toy_index, toy_udf):
        ledger = CostLedger()
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 2, 2: 1, 3: 3}, ledger
        )
        totals, _ = toy_index.label_counts(outcome.row_ids, outcome.flags)
        assert dict(zip(toy_index.values, totals)) == {1: 2, 2: 1, 3: 3}

    def test_costs_charged_per_sampled_tuple(self, toy_table, toy_index, toy_udf):
        ledger = CostLedger(retrieval_cost=1.0, evaluation_cost=3.0)
        GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 2, 2: 2, 3: 2}, ledger
        )
        assert ledger.retrieved_count == 6
        assert ledger.evaluated_count == 6
        assert ledger.total_cost == pytest.approx(6 * 4.0)

    def test_oversized_allocation_clipped(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 100}, CostLedger()
        )
        assert outcome.total_sampled == 4

    def test_group_one_is_all_positive(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 4}, CostLedger()
        )
        assert outcome.total_positives == 4
        model = SelectivityModel.from_sample_outcome(toy_index, outcome)
        assert model.group(1).selectivity > 0.8

    def test_already_sampled_rows_skipped(self, toy_table, toy_index, toy_udf):
        sampler = GroupSampler(random_state=0)
        first = sampler.sample(toy_table, toy_index, toy_udf, {3: 3}, CostLedger())
        merged = sampler.sample(
            toy_table, toy_index, toy_udf, {3: 5}, CostLedger(), already_sampled=first
        )
        assert merged.row_ids[: first.size].tolist() == first.row_ids.tolist()
        assert merged.total_sampled == 5 == len(set(merged.row_ids.tolist()))

    def test_already_sampled_ids_outside_the_table_are_ignored(self, toy_table, toy_index, toy_udf):
        # Every reader of one outcome sees the same rows: what `label_counts`
        # does not count, the sampler neither excludes nor trips over.
        rows = toy_index.total_rows()
        stray = SampleOutcome([-1, rows, rows + 7], [True, False, True])
        with_stray = GroupSampler(random_state=5).sample(
            toy_table, toy_index, toy_udf, {1: 2, 3: 5}, CostLedger(), already_sampled=stray
        )
        without = GroupSampler(random_state=5).sample(
            toy_table, toy_index, toy_udf, {1: 2, 3: 5}, CostLedger()
        )
        assert with_stray == stray.merge(without)
        assert toy_index.label_counts(stray.row_ids, stray.flags)[0].sum() == 0

    def test_merge_keeps_first_seen_group_order(self):
        # The order rule is "the index's order": an outcome stores no group
        # order of its own, so a merge is a concatenation in draw order and
        # every reader regroups against its index — first-appearance order
        # of the column, never set order (that follows string hashing, which
        # changes from process to process and would reorder the answer's
        # sampled rows).
        table = Table.from_columns(
            "order", {"key": ["zeta", "alpha", "mid", "omega", "alpha", "beta"]}
        )
        index = GroupIndex(table, "key")
        merged = SampleOutcome([0, 1, 2], [True] * 3).merge(
            SampleOutcome([3, 4, 5], [True] * 3)
        )
        assert merged.row_ids.tolist() == [0, 1, 2, 3, 4, 5]
        assert index.values == ["zeta", "alpha", "mid", "omega", "beta"]
        row_ids, flags, bounds = merged.by_group(index)
        assert row_ids.tolist() == [0, 1, 4, 2, 3, 5]  # alpha: left's row, then right's
        assert bounds.tolist() == [0, 1, 3, 4, 5, 6]
        assert candidate_frame(index, merged).free_positives.tolist() == [0, 1, 4, 2, 3, 5]

    def test_rejects_ragged_or_non_flat_pairs(self):
        with pytest.raises(ValueError):
            SampleOutcome([1, 2, 3], [True, False])
        with pytest.raises(ValueError):
            SampleOutcome([[1, 2]], [[True, False]])
        with pytest.raises(ValueError):
            SampleOutcome([1, 2], [[True], [False]])

    def test_evidence_is_read_only(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=1).sample(
            toy_table, toy_index, toy_udf, {1: 2, 3: 2}, CostLedger()
        )
        for array in (outcome.row_ids, outcome.flags):
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(AttributeError):
            outcome.row_ids = outcome.row_ids[:1]

    def test_outcome_totals(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=1).sample(
            toy_table, toy_index, toy_udf, {1: 2, 2: 3, 3: 4}, CostLedger()
        )
        assert outcome.total_sampled == 9
        assert outcome.total_positives == len(outcome.positives)
        assert len(outcome.row_ids) == 9

    def test_posterior_for_unsampled_group_is_uninformed(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=1).sample(
            toy_table, toy_index, toy_udf, {1: 2}, CostLedger()
        )
        model = SelectivityModel.from_sample_outcome(toy_index, outcome)
        assert model.group(3).sampled == 0
        assert model.group(3).selectivity == pytest.approx(0.5)

    def test_deterministic_given_seed(self, toy_table, toy_index, toy_udf):
        a = GroupSampler(random_state=7).sample(
            toy_table, toy_index, toy_udf, {3: 2}, CostLedger()
        )
        b = GroupSampler(random_state=7).sample(
            toy_table, toy_index, toy_udf, {3: 2}, CostLedger()
        )
        assert a.row_ids.tolist() == b.row_ids.tolist()


class TestAdaptiveNumSearch:
    def test_finds_minimum_of_convex_cost(self):
        costs = {1.0: 100.0, 2.0: 60.0, 3.0: 40.0, 4.0: 55.0, 5.0: 90.0}
        result = choose_num_adaptively(lambda num: costs[num], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert result.best_num == 3.0
        assert result.best_cost == 40.0

    def test_stops_early_after_patience_exceeded(self):
        evaluated = []

        def cost(num):
            evaluated.append(num)
            return {1.0: 10.0, 2.0: 20.0, 3.0: 30.0, 4.0: 40.0}[num]

        result = choose_num_adaptively(cost, [1.0, 2.0, 3.0, 4.0], patience=1)
        assert result.best_num == 1.0
        assert evaluated == [1.0, 2.0, 3.0]  # stops after two consecutive rises

    def test_monotone_decreasing_cost_uses_last_candidate(self):
        result = choose_num_adaptively(lambda num: -num, [1.0, 2.0, 3.0])
        assert result.best_num == 3.0

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            choose_num_adaptively(lambda num: 0.0, [])

    def test_rejects_non_increasing_schedule(self):
        with pytest.raises(ValueError):
            choose_num_adaptively(lambda num: 0.0, [2.0, 1.0])

    def test_default_schedule_scales_with_alpha(self):
        schedule = default_num_schedule(alpha=0.8)
        assert schedule[0] == pytest.approx(0.8)
        assert all(b > a for a, b in zip(schedule, schedule[1:]))
