"""Execution plans: per-group retrieve/evaluate probabilities.

A plan assigns every group a pair ``(R_a, E_a)`` with ``0 <= E_a <= R_a <= 1``:

* ``R_a`` — probability that a tuple of group ``a`` is retrieved,
* ``E_a`` — probability that it is (retrieved and) evaluated.

Deterministic plans (Section 3.1) are the special case where both are 0/1.
The executor interprets a plan tuple-by-tuple: retrieve with probability
``R_a``; if retrieved, evaluate with probability ``E_a / R_a``; a retrieved
and evaluated tuple is returned only if the UDF passes, a retrieved but
unevaluated tuple is returned unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from repro.core.constraints import CostModel
from repro.core.groups import GroupStatistics, SelectivityModel

_PROBABILITY_TOLERANCE = 1e-9


def _fixed_when_near_certain(probability: float) -> float:
    """``probability``, or 0.0 / 1.0 when it is within tolerance of either."""
    if probability <= _PROBABILITY_TOLERANCE:
        return 0.0
    if probability >= 1.0 - _PROBABILITY_TOLERANCE:
        return 1.0
    return probability


@dataclass(frozen=True)
class GroupDecision:
    """The ``(R_a, E_a)`` pair for one group.

    ``retrieve`` and ``evaluate`` are the pair as given, and the only state:
    ``repr``, ``==``, ``hash`` and the warm-state record hold those two.  The
    clipped probabilities the executors read on every plan hit are derived
    from them once, at construction, and so is the coin outcome.

    SLSQP leaves many probabilities a hair from 0 or 1 (R = 2.3e-16,
    1 − 2.2e-16): a rounding artefact of the solver, not a decision.  Their
    coins are all but certain to fail or to pass, so the two *thresholds*
    the vectorised executors compare coins against are the clipped
    probabilities with every value within ``_PROBABILITY_TOLERANCE`` of 0 or
    1 made exactly 0 or 1: the outcome is fixed (no row / every row) and no
    coin is drawn for it.  An answer differs from the one the probabilities
    themselves give only when some coin lands in the band between the
    probability and the 0 or 1 it is fixed at — a band as wide as that
    distance, at most ``_PROBABILITY_TOLERANCE``.  The cost and solver code
    keep reading the probabilities.
    """

    retrieve: float
    evaluate: float
    #: ``R_a`` clipped to [0, 1].
    retrieve_probability: float = field(init=False, repr=False, compare=False)
    #: ``E_a`` clipped to [0, R_a].
    evaluate_probability: float = field(init=False, repr=False, compare=False)
    #: ``E_a / R_a`` — probability of evaluating a tuple given it was retrieved.
    conditional_evaluate_probability: float = field(init=False, repr=False, compare=False)
    #: ``retrieve_probability``, or exactly 0.0 / 1.0 when it is near-certain.
    retrieve_threshold: float = field(init=False, repr=False, compare=False)
    #: ``conditional_evaluate_probability``, or exactly 0.0 / 1.0 when it is
    #: near-certain.
    evaluate_threshold: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not -_PROBABILITY_TOLERANCE <= self.retrieve <= 1.0 + _PROBABILITY_TOLERANCE:
            raise ValueError(f"retrieve probability out of range: {self.retrieve}")
        if not -_PROBABILITY_TOLERANCE <= self.evaluate <= 1.0 + _PROBABILITY_TOLERANCE:
            raise ValueError(f"evaluate probability out of range: {self.evaluate}")
        if self.evaluate > self.retrieve + _PROBABILITY_TOLERANCE:
            raise ValueError(
                f"evaluate probability ({self.evaluate}) cannot exceed retrieve "
                f"probability ({self.retrieve})"
            )
        retrieve = min(1.0, max(0.0, self.retrieve))
        evaluate = min(retrieve, max(0.0, self.evaluate))
        conditional = min(1.0, evaluate / retrieve) if retrieve > 0.0 else 0.0
        object.__setattr__(self, "retrieve_probability", retrieve)
        object.__setattr__(self, "evaluate_probability", evaluate)
        object.__setattr__(self, "conditional_evaluate_probability", conditional)
        object.__setattr__(self, "retrieve_threshold", _fixed_when_near_certain(retrieve))
        object.__setattr__(self, "evaluate_threshold", _fixed_when_near_certain(conditional))

    @property
    def is_deterministic(self) -> bool:
        """Whether both probabilities are (numerically) 0 or 1."""
        return all(
            abs(p) <= _PROBABILITY_TOLERANCE or abs(p - 1.0) <= _PROBABILITY_TOLERANCE
            for p in (self.retrieve, self.evaluate)
        )

    @classmethod
    def discard(cls) -> "GroupDecision":
        """Do nothing with the group."""
        return cls(retrieve=0.0, evaluate=0.0)

    @classmethod
    def return_all(cls) -> "GroupDecision":
        """Retrieve every tuple and return it without evaluation."""
        return cls(retrieve=1.0, evaluate=0.0)

    @classmethod
    def evaluate_all(cls) -> "GroupDecision":
        """Retrieve and evaluate every tuple."""
        return cls(retrieve=1.0, evaluate=1.0)


#: What a plan decides for a group it does not mention (immutable, so shared).
_DISCARD = GroupDecision.discard()


class ExecutionPlan:
    """A mapping from group key to :class:`GroupDecision`."""

    def __init__(self, decisions: Mapping[Hashable, GroupDecision]):
        self._decisions: Dict[Hashable, GroupDecision] = dict(decisions)

    # -- constructors ----------------------------------------------------------------
    @classmethod
    def from_probabilities(
        cls,
        retrieve: Mapping[Hashable, float],
        evaluate: Mapping[Hashable, float],
    ) -> "ExecutionPlan":
        """Build a plan from two aligned probability mappings."""
        if set(retrieve) != set(evaluate):
            raise ValueError("retrieve and evaluate mappings must share the same keys")
        return cls(
            {
                key: GroupDecision(retrieve=float(retrieve[key]), evaluate=float(evaluate[key]))
                for key in retrieve
            }
        )

    @classmethod
    def evaluate_everything(cls, keys: Iterable[Hashable]) -> "ExecutionPlan":
        """The always-feasible fallback plan: evaluate every tuple."""
        return cls({key: GroupDecision.evaluate_all() for key in keys})

    @classmethod
    def discard_everything(cls, keys: Iterable[Hashable]) -> "ExecutionPlan":
        """The empty plan: return nothing."""
        return cls({key: GroupDecision.discard() for key in keys})

    # -- access -----------------------------------------------------------------------
    def decision(self, key: Hashable) -> GroupDecision:
        """Decision for one group (discard when the plan does not mention it)."""
        return self._decisions.get(key, _DISCARD)

    @property
    def decisions(self) -> Dict[Hashable, GroupDecision]:
        """All decisions keyed by group."""
        return dict(self._decisions)

    @property
    def keys(self) -> list:
        """Group keys covered by the plan."""
        return list(self._decisions.keys())

    @property
    def is_deterministic(self) -> bool:
        """Whether every decision is 0/1."""
        return all(decision.is_deterministic for decision in self._decisions.values())

    def __iter__(self) -> Iterator[Tuple[Hashable, GroupDecision]]:
        return iter(self._decisions.items())

    def __len__(self) -> int:
        return len(self._decisions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionPlan):
            return NotImplemented
        return self._decisions == other._decisions

    # -- expectations --------------------------------------------------------------------
    def _expected_counts(
        self, model: SelectivityModel, remaining_only: bool
    ) -> Tuple[float, float]:
        """Expected ``(retrievals, evaluations)``, from one pass over ``model``."""
        retrievals = evaluations = 0.0
        for group in model:
            size = group.remaining if remaining_only else group.size
            decision = self.decision(group.key)
            retrievals += size * decision.retrieve_probability
            evaluations += size * decision.evaluate_probability
        return retrievals, evaluations

    def expected_retrievals(self, model: SelectivityModel, remaining_only: bool = True) -> float:
        """Expected number of retrieved tuples under ``model``."""
        return self._expected_counts(model, remaining_only)[0]

    def expected_evaluations(self, model: SelectivityModel, remaining_only: bool = True) -> float:
        """Expected number of UDF evaluations under ``model``."""
        return self._expected_counts(model, remaining_only)[1]

    def expected_cost(
        self,
        model: SelectivityModel,
        cost_model: CostModel,
        remaining_only: bool = True,
        include_sampling: bool = True,
    ) -> float:
        """Expected total cost of executing this plan.

        With ``include_sampling`` the sunk cost of already-sampled tuples
        (one retrieval plus one evaluation each) is added, matching the
        objective of Convex Program 4.1.
        """
        cost = cost_model.plan_cost(*self._expected_counts(model, remaining_only))
        if include_sampling:
            sampled = sum(group.sampled for group in model)
            cost += sampled * (cost_model.retrieval_cost + cost_model.evaluation_cost)
        return cost

    def expected_returned_correct(self, model: SelectivityModel) -> float:
        """Expected number of correct tuples returned from the un-sampled pool."""
        total = 0.0
        for group in model:
            decision = self.decision(group.key)
            total += group.remaining * group.selectivity * decision.retrieve_probability
        return total

    def expected_returned_incorrect(self, model: SelectivityModel) -> float:
        """Expected number of incorrect tuples returned from the un-sampled pool.

        Retrieved-and-evaluated incorrect tuples are filtered out, so only the
        retrieved-but-not-evaluated fraction contributes.
        """
        total = 0.0
        for group in model:
            decision = self.decision(group.key)
            unevaluated = decision.retrieve_probability - decision.evaluate_probability
            total += group.remaining * (1.0 - group.selectivity) * unevaluated
        return total

    def expected_precision(self, model: SelectivityModel, include_sampled: bool = True) -> float:
        """Expected-value approximation of the output precision."""
        correct = self.expected_returned_correct(model)
        incorrect = self.expected_returned_incorrect(model)
        if include_sampled:
            correct += model.total_sampled_positives
        denominator = correct + incorrect
        if denominator == 0.0:
            return 1.0
        return correct / denominator

    def expected_recall(self, model: SelectivityModel, include_sampled: bool = True) -> float:
        """Expected-value approximation of the output recall."""
        correct = self.expected_returned_correct(model)
        total_correct = sum(group.remaining * group.selectivity for group in model)
        if include_sampled:
            correct += model.total_sampled_positives
            total_correct += model.total_sampled_positives
        if total_correct == 0.0:
            return 1.0
        return correct / total_correct

    def describe(self) -> str:
        """A compact multi-line description of the plan."""
        lines = []
        for key, decision in self._decisions.items():
            lines.append(
                f"  {key!r}: retrieve={decision.retrieve_probability:.3f} "
                f"evaluate={decision.evaluate_probability:.3f}"
            )
        return "ExecutionPlan(\n" + "\n".join(lines) + "\n)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExecutionPlan(groups={len(self._decisions)})"


def _plan_from_vector(
    groups: Sequence[GroupStatistics], values: np.ndarray, browsing: bool
) -> ExecutionPlan:
    """The plan a solver's ``[R_1..R_k, E_1..E_k, ...]`` vector stands for."""
    k = len(groups)
    values = values.tolist()
    decisions = {}
    for group, retrieve, evaluate in zip(groups, values[:k], values[k : 2 * k]):
        retrieve = min(1.0, max(0.0, retrieve))
        evaluate = retrieve if browsing else min(retrieve, max(0.0, evaluate))
        decisions[group.key] = GroupDecision(retrieve=retrieve, evaluate=evaluate)
    return ExecutionPlan(decisions)
