"""Information-retrieval metrics (paper Section 2).

The paper measures an approximate result ``R`` against the correct result
``C`` with precision ``|R ∩ C| / |R|`` and recall ``|R ∩ C| / |C|``.  These
helpers operate either on explicit sets of tuple identifiers or on raw counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable

import numpy as np


def precision(returned: AbstractSet, correct: AbstractSet) -> float:
    """Fraction of returned items that are correct.

    An empty result is assigned precision 1.0 (nothing wrong was returned);
    this matches how the paper treats the degenerate all-discard plan.
    """
    return precision_from_counts(len(returned & correct), len(returned))


def recall(returned: AbstractSet, correct: AbstractSet) -> float:
    """Fraction of correct items that were returned.

    If there are no correct items at all, recall is trivially 1.0.
    """
    return recall_from_counts(len(returned & correct), len(correct))


def f1_score(returned: AbstractSet, correct: AbstractSet) -> float:
    """Harmonic mean of precision and recall."""
    return result_quality(returned, correct).f1


def precision_from_counts(true_positives: int, returned_total: int) -> float:
    """Precision from raw counts."""
    _validate_count_pair(true_positives, returned_total, "returned_total")
    if returned_total == 0:
        return 1.0
    return true_positives / returned_total


def recall_from_counts(true_positives: int, correct_total: int) -> float:
    """Recall from raw counts."""
    _validate_count_pair(true_positives, correct_total, "correct_total")
    if correct_total == 0:
        return 1.0
    return true_positives / correct_total


def _validate_count_pair(true_positives: int, total: int, name: str) -> None:
    if true_positives < 0 or total < 0:
        raise ValueError("counts must be non-negative")
    if true_positives > total:
        raise ValueError(
            f"true_positives ({true_positives}) cannot exceed {name} ({total})"
        )


@dataclass(frozen=True)
class ResultQuality:
    """Precision/recall summary of one query execution.

    Attributes
    ----------
    precision, recall:
        The standard IR metrics.
    returned_count:
        Number of tuples in the approximate result.
    correct_count:
        Number of tuples in the exact result.
    true_positive_count:
        Size of the intersection.
    """

    precision: float
    recall: float
    returned_count: int
    correct_count: int
    true_positive_count: int

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)

    def satisfies(self, alpha: float, beta: float) -> bool:
        """Whether this result meets precision ``alpha`` and recall ``beta``.

        A tiny tolerance absorbs floating point noise in the comparison; the
        quantities themselves are ratios of integer counts.
        """
        eps = 1e-12
        return self.precision >= alpha - eps and self.recall >= beta - eps


def result_quality(returned: Iterable, correct: Iterable) -> ResultQuality:
    """Compute a :class:`ResultQuality` from two collections of identifiers.

    ``correct`` may instead be a boolean truth mask over the table's rows
    (``mask[row_id]`` is whether the row belongs to the exact answer): then
    ``returned`` is read as row ids and scattered into a second mask, so the
    whole comparison is a handful of array passes with no per-row python
    object.  Set semantics are kept — a repeated id counts once — and every
    field equals what the set path returns for the same answer.
    """
    if isinstance(correct, np.ndarray) and correct.dtype == np.bool_:
        ids = np.asarray(returned, dtype=np.intp)
        if ids.size and int(ids.min()) < 0:
            raise IndexError(f"negative row id {int(ids.min())}")  # would wrap around
        seen = np.zeros(correct.size, dtype=bool)
        seen[ids] = True
        counts = np.count_nonzero(seen), np.count_nonzero(correct), np.count_nonzero(seen & correct)
    else:
        returned_set, correct_set = set(returned), set(correct)
        counts = len(returned_set), len(correct_set), len(returned_set & correct_set)
    returned_count, correct_count, true_positives = map(int, counts)
    return ResultQuality(
        precision=precision_from_counts(true_positives, returned_count),
        recall=recall_from_counts(true_positives, correct_count),
        returned_count=returned_count,
        correct_count=correct_count,
        true_positive_count=true_positives,
    )
