"""Figure 1(b): UDF evaluations of the Learning/Multiple baselines vs Intel-Sample."""

from repro.experiments.experiment1 import figure1b
from repro.experiments.report import format_table


def test_figure1b_ml_baselines(run_once, bench_config):
    results = run_once(figure1b, bench_config)
    rows = []
    for dataset, by_strategy in results.items():
        rows.append(
            [
                dataset,
                round(by_strategy["learning"].mean_evaluations),
                round(by_strategy["multiple"].mean_evaluations),
                round(by_strategy["intel_sample"].mean_evaluations),
            ]
        )
    print("\nFigure 1(b) — mean UDF evaluations, ML baselines vs Intel-Sample")
    print(format_table(["dataset", "learning", "multiple", "intel_sample"], rows))

    # Paper shape: Intel-Sample is at least competitive with the best ML
    # baseline on every dataset (the paper's gaps are larger on real data
    # because its features are far less predictive than its groups).
    for dataset, by_strategy in results.items():
        best_ml = min(
            by_strategy["learning"].mean_evaluations,
            by_strategy["multiple"].mean_evaluations,
        )
        assert by_strategy["intel_sample"].mean_evaluations <= best_ml * 1.25
