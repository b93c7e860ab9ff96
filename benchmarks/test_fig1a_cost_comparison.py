"""Figure 1(a): UDF evaluations of Naive vs Intel-Sample vs Optimal per dataset."""

from repro.experiments.experiment1 import figure1a
from repro.experiments.report import format_table


def test_figure1a_cost_comparison(run_once, bench_config):
    results = run_once(figure1a, bench_config)
    rows = []
    for dataset, by_strategy in results.items():
        rows.append(
            [
                dataset,
                round(by_strategy["naive"].mean_evaluations),
                round(by_strategy["intel_sample"].mean_evaluations),
                round(by_strategy["optimal"].mean_evaluations),
            ]
        )
    print("\nFigure 1(a) — mean UDF evaluations per dataset")
    print(format_table(["dataset", "naive", "intel_sample", "optimal"], rows))

    for dataset, by_strategy in results.items():
        naive = by_strategy["naive"].mean_evaluations
        intel = by_strategy["intel_sample"].mean_evaluations
        optimal = by_strategy["optimal"].mean_evaluations
        # Paper shape: Optimal <= Intel-Sample < Naive on every dataset.
        assert optimal <= intel * 1.05
        assert intel < naive
