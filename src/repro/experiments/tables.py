"""Reproduction of the paper's tables.

* :func:`table1_example` — the running example of Table 1 (group sizes and
  correct counts of the 12-tuple toy relation).
* :func:`table2_savings` — selectivity plus savings of Intel-Sample versus
  the Naive and machine-learning baselines, per dataset (Table 2).
* :func:`table3_group_statistics` — per-dataset group statistics under the
  designated correlated column (Table 3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.datasets.registry import DATASET_NAMES, dataset_spec
from repro.datasets.toy import toy_credit_table
from repro.db.index import GroupIndex
from repro.experiments.experiment1 import figure1a, figure1b, savings_summary
from repro.experiments.harness import ExperimentConfig
from repro.stats.summaries import pearson_correlation, summarize_series

#: The savings the paper reports in Table 2, used for side-by-side comparison.
PAPER_TABLE2 = {
    "lending_club": {"selectivity": 0.72, "savings_vs_naive": 0.81, "savings_vs_ml": 0.62},
    "prosper": {"selectivity": 0.45, "savings_vs_naive": 0.43, "savings_vs_ml": 0.21},
    "census": {"selectivity": 0.24, "savings_vs_naive": 0.51, "savings_vs_ml": 0.22},
    "marketing": {"selectivity": 0.11, "savings_vs_naive": 0.24, "savings_vs_ml": 0.03},
}

#: The group statistics the paper reports in Table 3.
PAPER_TABLE3 = {
    "lending_club": {
        "num_groups": 7, "size_dev": 5233, "selectivity_dev": 0.13, "correlation": 0.84,
    },
    "prosper": {"num_groups": 8, "size_dev": 1521, "selectivity_dev": 0.20, "correlation": 0.20},
    "census": {"num_groups": 7, "size_dev": 8183, "selectivity_dev": 0.15, "correlation": 0.36},
    "marketing": {
        "num_groups": 10, "size_dev": 5070, "selectivity_dev": 0.20, "correlation": -0.65,
    },
}


def table1_example() -> List[dict]:
    """Per-group summary of the paper's Table 1 toy relation."""
    table = toy_credit_table()
    index = GroupIndex(table, "A")
    labels = table.column_values("f", allow_hidden=True)
    rows = []
    for value in index.values:
        row_ids = index.row_ids(value)
        correct = sum(1 for row_id in row_ids if labels[row_id])
        rows.append(
            {
                "A": value,
                "tuples": len(row_ids),
                "correct": correct,
                "incorrect": len(row_ids) - correct,
                "selectivity": correct / len(row_ids) if len(row_ids) else 0.0,
            }
        )
    return rows


def table2_savings(
    config: ExperimentConfig,
    dataset_names: Sequence[str] = DATASET_NAMES,
    include_ml_baselines: bool = True,
) -> List[dict]:
    """Measured selectivity and savings per dataset, paper values attached."""
    fig1a = figure1a(config, dataset_names=dataset_names)
    fig1b = (
        figure1b(config, dataset_names=dataset_names) if include_ml_baselines else None
    )
    rows = savings_summary(fig1a, fig1b)
    for row in rows:
        dataset = config.load(row["dataset"])
        row["selectivity"] = dataset.overall_selectivity
        paper = PAPER_TABLE2.get(row["dataset"], {})
        row["paper_selectivity"] = paper.get("selectivity")
        row["paper_savings_vs_naive"] = paper.get("savings_vs_naive")
        row["paper_savings_vs_ml"] = paper.get("savings_vs_ml")
    return rows


def table3_group_statistics(
    dataset_names: Sequence[str] = DATASET_NAMES,
    config: Optional[ExperimentConfig] = None,
) -> List[dict]:
    """Group statistics of the (synthetic) datasets versus the paper's Table 3.

    Statistics are computed from the full-size dataset specifications, so this
    table does not depend on the experiment scale.
    """
    rows = []
    for name in dataset_names:
        spec = dataset_spec(name)
        sizes = spec.group_sizes
        selectivities = spec.group_selectivities
        size_summary = summarize_series(sizes)
        selectivity_summary = summarize_series(selectivities)
        paper = PAPER_TABLE3.get(name, {})
        rows.append(
            {
                "dataset": name,
                "num_groups": len(sizes),
                "size_dev": size_summary.std,
                "selectivity_dev": selectivity_summary.std,
                "correlation": pearson_correlation(sizes, selectivities),
                "paper_num_groups": paper.get("num_groups"),
                "paper_size_dev": paper.get("size_dev"),
                "paper_selectivity_dev": paper.get("selectivity_dev"),
                "paper_correlation": paper.get("correlation"),
            }
        )
    return rows
