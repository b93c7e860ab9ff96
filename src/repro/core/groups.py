"""Per-group statistics — the optimizer's view of the data.

Every optimizer in the paper consumes the same information: for each value
``a`` of the correlated attribute, the group size ``t_a`` plus whatever is
known about how many of its tuples satisfy the predicate.  Depending on the
regime that knowledge is

* exact counts ``C_a`` / ``W_a`` (perfect information, Section 3.1),
* an exact selectivity ``s_a`` (perfect selectivities, Section 3.2), or
* an estimated selectivity with variance ``(s_a, v_a)`` plus the sampling
  bookkeeping ``F_a`` / ``F_a^+`` (estimated selectivities, Sections 3.3/4).

:class:`GroupStatistics` carries all of it; :class:`SelectivityModel` is the
ordered collection the optimizers iterate over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional

import numpy as np

from repro.db.index import GroupIndex
from repro.sampling.sampler import SampleOutcome
from repro.stats.beta import BetaPosterior


@dataclass(frozen=True)
class GroupStatistics:
    """Everything an optimizer may know about one group.

    Attributes
    ----------
    key:
        The group's ``A`` value.
    size:
        ``t_a`` — number of tuples in the group (always known).
    selectivity:
        ``s_a`` — known or estimated probability that a tuple satisfies the
        predicate.
    variance:
        ``v_a`` — variance of the selectivity estimate (0 when the selectivity
        is known exactly).
    sampled:
        ``F_a`` — number of tuples already retrieved and evaluated.
    sampled_positives:
        ``F_a^+`` — how many of those satisfied the predicate.
    correct_count / incorrect_count:
        Exact ``C_a`` / ``W_a`` when available (perfect information only).
    """

    key: Hashable
    size: int
    selectivity: float
    variance: float = 0.0
    sampled: int = 0
    sampled_positives: int = 0
    correct_count: Optional[int] = None
    incorrect_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"group size must be non-negative, got {self.size}")
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError(
                f"selectivity must be in [0, 1], got {self.selectivity} for group {self.key!r}"
            )
        if self.variance < 0:
            raise ValueError(f"variance must be non-negative, got {self.variance}")
        if not 0 <= self.sampled <= self.size:
            raise ValueError(
                f"sampled count {self.sampled} must be within [0, {self.size}]"
            )
        if not 0 <= self.sampled_positives <= self.sampled:
            raise ValueError(
                f"sampled positives {self.sampled_positives} exceed sampled {self.sampled}"
            )
        if self.correct_count is not None:
            if self.incorrect_count is None:
                raise ValueError("correct_count and incorrect_count must come together")
            if self.correct_count + self.incorrect_count != self.size:
                raise ValueError(
                    "correct_count + incorrect_count must equal the group size"
                )

    # -- derived quantities --------------------------------------------------------
    @property
    def remaining(self) -> int:
        """Tuples not yet evaluated during sampling (``t_a - F_a``)."""
        return self.size - self.sampled

    @property
    def sampled_negatives(self) -> int:
        """Sampled tuples that failed the predicate (``F_a^-``)."""
        return self.sampled - self.sampled_positives

    @property
    def expected_correct(self) -> float:
        """Expected number of correct tuples in the group."""
        if self.correct_count is not None:
            return float(self.correct_count)
        return self.sampled_positives + self.remaining * self.selectivity

    @property
    def has_exact_counts(self) -> bool:
        """Whether perfect information is available for this group."""
        return self.correct_count is not None

    def with_selectivity(self, selectivity: float, variance: float = 0.0) -> "GroupStatistics":
        """Copy with a replaced selectivity estimate."""
        return replace(self, selectivity=selectivity, variance=variance)


class SelectivityModel:
    """An ordered collection of :class:`GroupStatistics`."""

    def __init__(self, groups: Iterable[GroupStatistics]):
        self._groups: List[GroupStatistics] = list(groups)
        keys = [group.key for group in self._groups]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate group keys in model: {keys}")
        self._by_key: Dict[Hashable, GroupStatistics] = {
            group.key: group for group in self._groups
        }

    # -- construction ---------------------------------------------------------------
    @classmethod
    def from_exact_counts(
        cls, counts: Mapping[Hashable, tuple[int, int]]
    ) -> "SelectivityModel":
        """Build a perfect-information model from ``{key: (correct, incorrect)}``."""
        groups = []
        for key, (correct, incorrect) in counts.items():
            size = correct + incorrect
            selectivity = correct / size if size else 0.0
            groups.append(
                GroupStatistics(
                    key=key,
                    size=size,
                    selectivity=selectivity,
                    correct_count=correct,
                    incorrect_count=incorrect,
                )
            )
        return cls(groups)

    @classmethod
    def from_selectivities(
        cls,
        sizes: Mapping[Hashable, int],
        selectivities: Mapping[Hashable, float],
        variances: Optional[Mapping[Hashable, float]] = None,
    ) -> "SelectivityModel":
        """Build a model from known (or estimated) selectivities."""
        variances = variances or {}
        groups = [
            GroupStatistics(
                key=key,
                size=int(size),
                selectivity=float(selectivities[key]),
                variance=float(variances.get(key, 0.0)),
            )
            for key, size in sizes.items()
        ]
        return cls(groups)

    @classmethod
    def from_sample_outcome(
        cls, index: GroupIndex, outcome: SampleOutcome
    ) -> "SelectivityModel":
        """Build an estimated-selectivity model from sampling results.

        Selectivity and variance come from the Beta posterior of each group's
        sample (Section 4.1); groups never sampled fall back to the uniform
        prior (mean 0.5, large variance), which keeps the optimizer cautious
        about them.
        """
        totals, positives = index.label_counts(outcome.row_ids, outcome.flags)
        groups = []
        for code, key in enumerate(index.values):
            posterior = BetaPosterior(
                positives=int(positives[code]),
                negatives=int(totals[code] - positives[code]),
            )
            groups.append(
                GroupStatistics(
                    key=key,
                    size=index.group_size(key),
                    selectivity=posterior.mean,
                    variance=posterior.variance,
                    sampled=int(totals[code]),
                    sampled_positives=int(positives[code]),
                )
            )
        return cls(groups)

    @classmethod
    def from_ground_truth(
        cls, index: GroupIndex, positive_row_ids: Iterable[int]
    ) -> "SelectivityModel":
        """Build a perfect-information model from the true positive set.

        One ``bincount`` over the index's per-row group codes replaces the
        per-group membership tests of the dict-based construction.
        """
        positives = np.unique(np.fromiter(positive_row_ids, dtype=np.intp))
        sizes = index.size_array()
        if positives.size:
            correct = np.bincount(
                index.codes_for_rows(positives), minlength=index.num_groups
            )
        else:
            correct = np.zeros(index.num_groups, dtype=np.intp)
        counts = {
            key: (int(correct[code]), int(sizes[code] - correct[code]))
            for code, key in enumerate(index.values)
        }
        return cls.from_exact_counts(counts)

    # -- aggregate quantities ---------------------------------------------------------
    @property
    def groups(self) -> List[GroupStatistics]:
        """All group statistics in model order."""
        return list(self._groups)

    @property
    def keys(self) -> List[Hashable]:
        """All group keys in model order."""
        return [group.key for group in self._groups]

    @property
    def total_size(self) -> int:
        """Total number of tuples ``n``."""
        return sum(group.size for group in self._groups)

    @property
    def total_remaining(self) -> int:
        """Total number of not-yet-sampled tuples."""
        return sum(group.remaining for group in self._groups)

    @property
    def total_sampled_positives(self) -> int:
        """Total sampled tuples that satisfied the predicate."""
        return sum(group.sampled_positives for group in self._groups)

    @property
    def expected_correct_total(self) -> float:
        """Expected total number of correct tuples."""
        return sum(group.expected_correct for group in self._groups)

    @property
    def overall_selectivity(self) -> float:
        """Size-weighted average selectivity."""
        total = self.total_size
        if total == 0:
            return 0.0
        return sum(group.size * group.selectivity for group in self._groups) / total

    @property
    def minimum_positive_selectivity(self) -> float:
        """Smallest non-zero selectivity (``s^min_a`` in Theorem 3.6)."""
        positive = [g.selectivity for g in self._groups if g.selectivity > 0]
        return min(positive) if positive else 0.0

    def group(self, key: Hashable) -> GroupStatistics:
        """Look up one group by key."""
        try:
            return self._by_key[key]
        except KeyError:
            raise KeyError(f"unknown group {key!r}; known groups: {self.keys}") from None

    def has_group(self, key: Hashable) -> bool:
        """Whether ``key`` is a group of this model."""
        return key in self._by_key

    def sorted_by_selectivity(self, descending: bool = True) -> List[GroupStatistics]:
        """Groups ordered by selectivity (ties broken by size, then key order)."""
        order = {group.key: i for i, group in enumerate(self._groups)}
        return sorted(
            self._groups,
            key=lambda g: (-g.selectivity if descending else g.selectivity, order[g.key]),
        )

    def __iter__(self) -> Iterator[GroupStatistics]:
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SelectivityModel(groups={len(self._groups)}, total={self.total_size})"
