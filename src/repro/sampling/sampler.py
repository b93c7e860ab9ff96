"""Stratified group sampler with cost accounting.

The sampler draws the allocated number of tuples from each group, retrieves
and evaluates them (charging ``o_r + o_e`` each to the ledger), and records
per-group outcomes.  Two facts from Section 4.2 matter downstream:

* sampled tuples that evaluated to true can be returned as part of the query
  result without re-evaluation, and
* sampled tuples are *sunk cost*: the optimizer's decision variables apply to
  the remaining ``t_a - F_a`` tuples only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from repro.db.index import GroupIndex
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.resilience.deadline import check_deadline
from repro.stats.beta import BetaPosterior
from repro.stats.random import RandomState, SeedLike, as_random_state


@dataclass
class GroupSample:
    """Sampling outcome for one group.

    Attributes
    ----------
    group_key:
        The group's ``A`` value.
    sampled_row_ids:
        Row ids that were sampled (retrieved + evaluated).
    positive_row_ids:
        The subset of sampled rows that satisfied the predicate.
    group_size:
        Total number of tuples in the group (``t_a``).
    """

    group_key: Hashable
    sampled_row_ids: List[int] = field(default_factory=list)
    positive_row_ids: List[int] = field(default_factory=list)
    group_size: int = 0

    @property
    def sample_size(self) -> int:
        """``F_a`` — number of evaluated tuples."""
        return len(self.sampled_row_ids)

    @property
    def positives(self) -> int:
        """``F_a^+`` — sampled tuples satisfying the predicate."""
        return len(self.positive_row_ids)

    @property
    def negatives(self) -> int:
        """``F_a^-`` — sampled tuples failing the predicate."""
        return self.sample_size - self.positives

    @property
    def posterior(self) -> BetaPosterior:
        """The Beta posterior over this group's selectivity."""
        return BetaPosterior(positives=self.positives, negatives=self.negatives)

    @property
    def remaining_size(self) -> int:
        """Number of not-yet-evaluated tuples (``t_a - F_a``)."""
        return self.group_size - self.sample_size


@dataclass
class SampleOutcome:
    """Sampling outcome across all groups."""

    samples: Dict[Hashable, GroupSample]

    @property
    def total_sampled(self) -> int:
        """Total number of evaluated tuples across groups."""
        return sum(sample.sample_size for sample in self.samples.values())

    @property
    def total_positives(self) -> int:
        """Total number of sampled tuples satisfying the predicate."""
        return sum(sample.positives for sample in self.samples.values())

    def posterior(self, group_key: Hashable) -> BetaPosterior:
        """Posterior for one group (uninformed when the group was never sampled)."""
        sample = self.samples.get(group_key)
        if sample is None:
            return BetaPosterior.uninformed()
        return sample.posterior

    def positive_row_ids(self) -> List[int]:
        """All sampled rows that satisfied the predicate (free query output)."""
        rows: List[int] = []
        for sample in self.samples.values():
            rows.extend(sample.positive_row_ids)
        return rows

    def sampled_row_ids(self) -> List[int]:
        """All sampled rows."""
        rows: List[int] = []
        for sample in self.samples.values():
            rows.extend(sample.sampled_row_ids)
        return rows

    def merge(self, other: "SampleOutcome") -> "SampleOutcome":
        """Combine two outcomes (used by adaptive sampling rounds).

        Groups keep first-seen order — this outcome's, then ``other``'s new
        ones — never set order: that follows string hashing, which differs
        between processes, and the order of the merged groups is the order of
        the sampled positives in a query's ``row_ids``.
        """
        merged: Dict[Hashable, GroupSample] = {}
        for key in dict.fromkeys([*self.samples, *other.samples]):
            left = self.samples.get(key)
            right = other.samples.get(key)
            if left is None:
                merged[key] = right
                continue
            if right is None:
                merged[key] = left
                continue
            merged[key] = GroupSample(
                group_key=key,
                sampled_row_ids=left.sampled_row_ids + right.sampled_row_ids,
                positive_row_ids=left.positive_row_ids + right.positive_row_ids,
                group_size=max(left.group_size, right.group_size),
            )
        return SampleOutcome(samples=merged)

    @classmethod
    def merge_shards(
        cls, outcomes: Sequence["SampleOutcome"], key_order: Optional[Sequence[Hashable]] = None
    ) -> "SampleOutcome":
        """Exact merge of per-shard outcomes into the whole-table outcome.

        Unlike :meth:`merge` (adaptive rounds over *one* table, where group
        sizes coincide and the max is taken), shard outcomes describe
        disjoint row ranges of one logical table: group sizes **add**, and
        sampled/positive row-id lists (already in global row-id space)
        concatenate in shard order.  Every statistic is a count, so the merge
        is exact — the property tests pin it equal to sampling the unsharded
        table with the same draws.  ``key_order`` optionally fixes the group
        order of the result (e.g. a merged index's first-appearance order).
        """
        merged: Dict[Hashable, GroupSample] = {}
        if key_order is not None:
            for key in key_order:
                merged[key] = GroupSample(group_key=key)
        for outcome in outcomes:
            for key, sample in outcome.samples.items():
                into = merged.get(key)
                if into is None:
                    into = GroupSample(group_key=key)
                    merged[key] = into
                into.sampled_row_ids.extend(sample.sampled_row_ids)
                into.positive_row_ids.extend(sample.positive_row_ids)
                into.group_size += sample.group_size
        return cls(samples=merged)


class GroupSampler:
    """Draws and evaluates stratified samples over a group index."""

    def __init__(self, random_state: SeedLike = None):
        self.random_state: RandomState = as_random_state(random_state)

    def sample(
        self,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        allocation: Mapping[Hashable, int],
        ledger: CostLedger,
        already_sampled: Optional[SampleOutcome] = None,
        bulk_evaluator: Optional[Callable[[Table, np.ndarray], np.ndarray]] = None,
    ) -> SampleOutcome:
        """Sample according to ``allocation``, charging ``ledger``.

        ``already_sampled`` lets adaptive callers top up an earlier outcome
        without re-evaluating rows they already paid for; the returned outcome
        contains only the *new* rows (merge with the old outcome if needed).

        The per-group draws happen first (one vectorised ``choice`` per
        group, in index order, so the random stream matches the historical
        per-group sampler); the chosen rows are then retrieved, charged and
        evaluated in a single batched UDF call across all groups.

        ``bulk_evaluator`` optionally replaces ``udf.evaluate_rows`` for that
        batched call — the parallel executor passes its shard fan-out here.
        Row *selection* stays on this sampler's sequential stream either way,
        so the drawn sample (and therefore every downstream statistic) is
        identical whether or not the evaluation is fanned.
        """
        check_deadline("sampling")
        samples: Dict[Hashable, GroupSample] = {}
        chosen_per_group: List[np.ndarray] = []
        for group_key, row_ids in index.items():
            requested = int(allocation.get(group_key, 0))
            if already_sampled is not None and group_key in already_sampled.samples:
                previously = already_sampled.samples[group_key].sampled_row_ids
                available = (
                    row_ids[~np.isin(row_ids, previously)] if previously else row_ids
                )
            else:
                available = row_ids
            count = max(0, min(requested, int(len(available))))
            samples[group_key] = GroupSample(
                group_key=group_key, group_size=int(len(row_ids))
            )
            if count > 0:
                chosen_positions = np.atleast_1d(
                    self.random_state.choice(len(available), size=count, replace=False)
                )
                chosen = np.asarray(available, dtype=np.intp)[chosen_positions]
            else:
                chosen = np.empty(0, dtype=np.intp)
            chosen_per_group.append(chosen)

        all_chosen = (
            np.concatenate(chosen_per_group) if chosen_per_group else np.empty(0, dtype=np.intp)
        )
        if all_chosen.size:
            # Bulk charge before the bulk evaluation (same totals as the
            # historical per-row loop; a hard budget now stops the whole
            # batch before any UDF work instead of mid-stratum).  The
            # deadline check sits in the same place for the same reason: an
            # expired request must not pay for the batch it will not use.
            check_deadline("sampling-charge")
            ledger.charge_retrieval(int(all_chosen.size))
            ledger.charge_evaluation(int(all_chosen.size))
            evaluate = bulk_evaluator if bulk_evaluator is not None else udf.evaluate_rows
            outcomes = evaluate(table, all_chosen)
        else:
            outcomes = np.empty(0, dtype=bool)

        offset = 0
        for sample, chosen in zip(samples.values(), chosen_per_group):
            if not chosen.size:
                continue
            group_outcomes = outcomes[offset : offset + chosen.size]
            offset += chosen.size
            sample.sampled_row_ids.extend(chosen.tolist())
            sample.positive_row_ids.extend(chosen[group_outcomes].tolist())
        return SampleOutcome(samples=samples)
