"""Tests for the stratified group sampler and adaptive num search."""

import pytest

from repro.db.index import GroupIndex
from repro.db.udf import CostLedger
from repro.sampling.adaptive import (
    choose_num_adaptively,
    default_num_schedule,
)
from repro.sampling.sampler import GroupSample, GroupSampler, SampleOutcome
from repro.sampling.schemes import ConstantScheme


class TestGroupSampler:
    def test_allocation_is_respected(self, toy_table, toy_index, toy_udf):
        ledger = CostLedger()
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 2, 2: 1, 3: 3}, ledger
        )
        assert outcome.samples[1].sample_size == 2
        assert outcome.samples[2].sample_size == 1
        assert outcome.samples[3].sample_size == 3

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
        assert outcome.samples[1].sample_size == 4

    def test_group_one_is_all_positive(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 4}, CostLedger()
        )
        assert outcome.samples[1].positives == 4
        assert outcome.samples[1].posterior.mean > 0.8

    def test_already_sampled_rows_skipped(self, toy_table, toy_index, toy_udf):
        sampler = GroupSampler(random_state=0)
        first = sampler.sample(toy_table, toy_index, toy_udf, {3: 3}, CostLedger())
        second = sampler.sample(
            toy_table, toy_index, toy_udf, {3: 5}, CostLedger(), already_sampled=first
        )
        overlap = set(first.samples[3].sampled_row_ids) & set(
            second.samples[3].sampled_row_ids
        )
        assert overlap == set()
        merged = first.merge(second)
        assert merged.samples[3].sample_size == 5

    def test_merge_keeps_first_seen_group_order(self):
        # Not set order: that follows string hashing, which changes from
        # process to process and would reorder the answer's sampled rows.
        def outcome(keys):
            return SampleOutcome(
                samples={
                    key: GroupSample(key, [row], [row], group_size=9)
                    for row, key in enumerate(keys)
                }
            )

        merged = outcome(["zeta", "alpha", "mid"]).merge(outcome(["omega", "alpha", "beta"]))
        assert list(merged.samples) == ["zeta", "alpha", "mid", "omega", "beta"]
        assert merged.samples["alpha"].sampled_row_ids == [1, 1]
        assert merged.positive_row_ids() == [0, 1, 1, 2, 0, 2]

    def test_outcome_totals(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=1).sample(
            toy_table, toy_index, toy_udf, {1: 2, 2: 3, 3: 4}, CostLedger()
        )
        assert outcome.total_sampled == 9
        assert outcome.total_positives == len(outcome.positive_row_ids())
        assert len(outcome.sampled_row_ids()) == 9

    def test_posterior_for_unsampled_group_is_uninformed(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=1).sample(
            toy_table, toy_index, toy_udf, {1: 2}, CostLedger()
        )
        assert outcome.posterior(3).sample_size == 0
        assert outcome.posterior("unknown").mean == pytest.approx(0.5)

    def test_deterministic_given_seed(self, toy_table, toy_index, toy_udf):
        a = GroupSampler(random_state=7).sample(
            toy_table, toy_index, toy_udf, {3: 2}, CostLedger()
        )
        b = GroupSampler(random_state=7).sample(
            toy_table, toy_index, toy_udf, {3: 2}, CostLedger()
        )
        assert a.samples[3].sampled_row_ids == b.samples[3].sampled_row_ids


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
