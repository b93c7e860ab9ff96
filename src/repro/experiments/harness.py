"""Shared experiment harness.

The paper's protocol (Section 6.1): the UDF value of every tuple is known to
the experimenter but hidden from the algorithms; an algorithm "samples" by
asking for the value of specific tuples and is charged for it; afterwards the
experimenter audits the returned set against the ground truth.  The harness
runs a named strategy a number of iterations with independent seeds and
aggregates evaluations, retrievals, cost and achieved precision/recall.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.baselines import LearningBaseline, MultipleImputationBaseline, NaiveBaseline
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.pipeline import IntelSample, OptimalOracle
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import DatasetBundle
from repro.db.udf import CostLedger
from repro.sampling.schemes import FixedFractionScheme, SamplingScheme
from repro.stats.metrics import result_quality
from repro.stats.random import stable_hash_seed

#: Strategy names accepted by :func:`make_strategy`.
STRATEGY_NAMES = ("naive", "intel_sample", "optimal", "learning", "multiple")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by all experiment drivers.

    Attributes
    ----------
    scale:
        Proportional dataset down-scaling (1.0 = paper-sized datasets).
    iterations:
        Number of independent repetitions per measured point.
    alpha, beta, rho:
        Query constraints (the paper's defaults are 0.8 each).
    retrieval_cost, evaluation_cost:
        The cost model (the paper uses 1 and 3).
    sample_fraction:
        Fraction of each group sampled by Intel-Sample in Experiment 1
        (the paper fixes 5%).
    seed:
        Master seed; every (dataset, strategy, iteration) derives its own
        deterministic seed from it.
    """

    scale: float = 0.15
    iterations: int = 5
    alpha: float = 0.8
    beta: float = 0.8
    rho: float = 0.8
    retrieval_cost: float = 1.0
    evaluation_cost: float = 3.0
    sample_fraction: float = 0.05
    seed: int = 2015

    @property
    def constraints(self) -> QueryConstraints:
        """The query constraints object."""
        return QueryConstraints(alpha=self.alpha, beta=self.beta, rho=self.rho)

    @property
    def cost_model(self) -> CostModel:
        """The cost model object."""
        return CostModel(
            retrieval_cost=self.retrieval_cost, evaluation_cost=self.evaluation_cost
        )

    def new_ledger(self) -> CostLedger:
        """A fresh cost ledger with this configuration's unit costs."""
        return CostLedger(
            retrieval_cost=self.retrieval_cost, evaluation_cost=self.evaluation_cost
        )

    def with_constraints(self, alpha: Optional[float] = None, beta: Optional[float] = None,
                         rho: Optional[float] = None) -> "ExperimentConfig":
        """Copy with some constraint values replaced."""
        return replace(
            self,
            alpha=self.alpha if alpha is None else alpha,
            beta=self.beta if beta is None else beta,
            rho=self.rho if rho is None else rho,
        )

    def load(self, dataset_name: str) -> DatasetBundle:
        """Load one dataset at this configuration's scale (deterministically)."""
        return load_dataset(
            dataset_name,
            random_state=stable_hash_seed("dataset", dataset_name, self.scale, self.seed),
            scale=self.scale,
        )


@dataclass
class AlgorithmStats:
    """Aggregated results of repeated runs of one strategy on one dataset."""

    strategy: str
    dataset: str
    evaluations: List[float] = field(default_factory=list)
    retrievals: List[float] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    precisions: List[float] = field(default_factory=list)
    recalls: List[float] = field(default_factory=list)
    satisfied: List[bool] = field(default_factory=list)

    @property
    def mean_evaluations(self) -> float:
        """Average number of UDF evaluations per run."""
        return float(np.mean(self.evaluations)) if self.evaluations else 0.0

    @property
    def mean_retrievals(self) -> float:
        """Average number of tuple retrievals per run."""
        return float(np.mean(self.retrievals)) if self.retrievals else 0.0

    @property
    def mean_cost(self) -> float:
        """Average total cost per run."""
        return float(np.mean(self.costs)) if self.costs else 0.0

    @property
    def mean_precision(self) -> float:
        """Average achieved precision."""
        return float(np.mean(self.precisions)) if self.precisions else 1.0

    @property
    def mean_recall(self) -> float:
        """Average achieved recall."""
        return float(np.mean(self.recalls)) if self.recalls else 1.0

    @property
    def satisfaction_rate(self) -> float:
        """Fraction of runs in which both constraints were met."""
        return float(np.mean(self.satisfied)) if self.satisfied else 1.0

    @property
    def num_runs(self) -> int:
        """Number of recorded runs."""
        return len(self.evaluations)


def make_strategy(
    name: str,
    config: ExperimentConfig,
    dataset: DatasetBundle,
    seed: int,
    sampling_scheme: Optional[SamplingScheme] = None,
    correlated_column: Optional[str] = None,
    use_virtual_column: bool = False,
):
    """Instantiate a strategy by name with a per-run seed.

    ``correlated_column`` defaults to the dataset's designated column for the
    strategies that need one (pass an explicit column, or ``None`` together
    with ``auto_column=True`` behaviour by passing the empty string, to make
    Intel-Sample search for it).
    """
    column = dataset.correlated_column if correlated_column is None else correlated_column
    if column == "":
        column = None
    if name == "naive":
        return NaiveBaseline(random_state=seed)
    if name == "learning":
        return LearningBaseline(random_state=seed)
    if name == "multiple":
        return MultipleImputationBaseline(random_state=seed)
    if name == "optimal":
        return OptimalOracle(correlated_column=column, random_state=seed)
    if name == "intel_sample":
        scheme = sampling_scheme or FixedFractionScheme(config.sample_fraction)
        return IntelSample(
            sampling_scheme=scheme,
            correlated_column=column,
            use_virtual_column=use_virtual_column,
            random_state=seed,
        )
    raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")


def run_strategy(
    name: str,
    dataset: DatasetBundle,
    config: ExperimentConfig,
    iterations: Optional[int] = None,
    sampling_scheme: Optional[SamplingScheme] = None,
    correlated_column: Optional[str] = None,
    use_virtual_column: bool = False,
    constraints: Optional[QueryConstraints] = None,
) -> AlgorithmStats:
    """Run one strategy ``iterations`` times and aggregate the outcomes."""
    iterations = iterations if iterations is not None else config.iterations
    constraints = constraints or config.constraints
    truth = dataset.ground_truth_row_ids()
    stats = AlgorithmStats(strategy=name, dataset=dataset.name)
    for iteration in range(iterations):
        seed = stable_hash_seed(name, dataset.name, config.seed, iteration)
        strategy = make_strategy(
            name,
            config,
            dataset,
            seed,
            sampling_scheme=sampling_scheme,
            correlated_column=correlated_column,
            use_virtual_column=use_virtual_column,
        )
        udf = dataset.make_udf(
            name=f"{dataset.name}_{name}_{iteration}",
            evaluation_cost=config.evaluation_cost,
        )
        ledger = config.new_ledger()
        result = strategy.answer(dataset.table, udf, constraints, ledger)
        quality = result_quality(result.row_id_set, truth)
        stats.evaluations.append(ledger.evaluated_count)
        stats.retrievals.append(ledger.retrieved_count)
        stats.costs.append(ledger.total_cost)
        stats.precisions.append(quality.precision)
        stats.recalls.append(quality.recall)
        stats.satisfied.append(quality.satisfies(constraints.alpha, constraints.beta))
    return stats
