"""Beta-posterior selectivity estimates (paper Section 4.1).

After evaluating ``F_a`` tuples of group ``a`` and observing ``F_a^+``
positives, the posterior over the group selectivity (with a uniform prior) is
``Beta(F_a^+ + 1, F_a^- + 1)``.  The paper uses its mean and variance

* ``s_a = (F_a^+ + 1) / (F_a + 2)``
* ``v_a = s_a (1 - s_a) / (F_a + 3)``

as the estimate/uncertainty pair fed to the convex programs of Section 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass


def beta_mean(positives: int, negatives: int) -> float:
    """Posterior mean selectivity after ``positives``/``negatives`` outcomes."""
    _validate_counts(positives, negatives)
    total = positives + negatives
    return (positives + 1) / (total + 2)


def beta_variance(positives: int, negatives: int) -> float:
    """Posterior variance matching the paper's ``s_a (1-s_a) / (F_a + 3)``."""
    _validate_counts(positives, negatives)
    total = positives + negatives
    mean = beta_mean(positives, negatives)
    return mean * (1.0 - mean) / (total + 3)


def _validate_counts(positives: int, negatives: int) -> None:
    if positives < 0 or negatives < 0:
        raise ValueError(
            f"counts must be non-negative, got {positives} positives and "
            f"{negatives} negatives"
        )


@dataclass(frozen=True)
class BetaPosterior:
    """Posterior over a group selectivity given sampled UDF outcomes.

    Attributes
    ----------
    positives:
        Number of sampled tuples that satisfied the predicate (``F_a^+``).
    negatives:
        Number of sampled tuples that did not (``F_a^-``).
    """

    positives: int
    negatives: int

    def __post_init__(self) -> None:
        _validate_counts(self.positives, self.negatives)

    @property
    def sample_size(self) -> int:
        """Total number of evaluated tuples ``F_a``."""
        return self.positives + self.negatives

    @property
    def alpha(self) -> float:
        """First shape parameter of the posterior Beta distribution."""
        return self.positives + 1.0

    @property
    def beta(self) -> float:
        """Second shape parameter of the posterior Beta distribution."""
        return self.negatives + 1.0

    @property
    def mean(self) -> float:
        """Posterior mean ``s_a``."""
        return beta_mean(self.positives, self.negatives)

    @property
    def variance(self) -> float:
        """Paper's variance estimate ``v_a = s_a (1-s_a) / (F_a + 3)``."""
        return beta_variance(self.positives, self.negatives)

    @property
    def std(self) -> float:
        """Standard deviation of the posterior."""
        return self.variance**0.5

    def _distribution(self):
        """The posterior as a frozen scipy distribution.

        ``scipy.stats`` is imported here, not at module level: it is half of
        what ``import repro`` costs, every process and every spawned pool
        worker would pay it, and only the three cold methods below use it.
        """
        from scipy import stats

        return stats.beta(self.alpha, self.beta)

    def credible_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Equal-tailed credible interval for the selectivity."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        lower_q = (1.0 - level) / 2.0
        dist = self._distribution()
        return float(dist.ppf(lower_q)), float(dist.ppf(1.0 - lower_q))

    def pdf(self, x: float) -> float:
        """Posterior density at ``x``."""
        return float(self._distribution().pdf(x))

    def cdf(self, x: float) -> float:
        """Posterior cumulative distribution at ``x``."""
        return float(self._distribution().cdf(x))

    def updated(self, positives: int, negatives: int) -> "BetaPosterior":
        """Return a new posterior after observing more evaluations."""
        return BetaPosterior(
            positives=self.positives + positives,
            negatives=self.negatives + negatives,
        )

    @classmethod
    def uninformed(cls) -> "BetaPosterior":
        """The uniform prior (no samples seen yet)."""
        return cls(positives=0, negatives=0)

    @classmethod
    def from_labels(cls, labels) -> "BetaPosterior":
        """Build a posterior from an iterable of boolean/0-1 outcomes."""
        labels = [bool(v) for v in labels]
        positives = sum(labels)
        return cls(positives=positives, negatives=len(labels) - positives)
