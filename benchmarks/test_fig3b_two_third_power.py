"""Figure 3(b): evaluations vs num for the Two-Third-Power sampling scheme."""

from repro.experiments.experiment2 import figure3b, optimum_of
from repro.experiments.report import format_series

NUM_VALUES = (0.5, 2.0, 4.0, 8.0, 12.0)


def test_figure3b_two_third_power(run_once, bench_config):
    results = run_once(
        figure3b,
        bench_config,
        num_values=NUM_VALUES,
        iterations=1,
    )
    print("\nFigure 3(b) — evaluations vs num (Two-Third-Power sampling scheme)")
    print(format_series(results, x_label="num"))
    optima = {dataset: optimum_of(series) for dataset, series in results.items()}
    print("per-dataset optimum num:", optima)

    for dataset, series in results.items():
        naive_evaluations = bench_config.beta * bench_config.load(dataset).num_rows
        # Shape: the sweep's optimum beats Naive, and over-sampling (largest
        # num) costs at least as much as the optimum.
        assert min(series.values()) < naive_evaluations
        assert series[max(series)] >= min(series.values()) - 1e-9
