"""Figure 3(a): evaluations vs the Constant sampling scheme parameter c."""

from repro.experiments.experiment2 import figure3a
from repro.experiments.report import format_series

CONSTANT_VALUES = (5, 25, 80, 250)


def test_figure3a_constant_sampling(run_once, bench_config):
    results = run_once(
        figure3a,
        bench_config,
        constant_values=CONSTANT_VALUES,
        iterations=1,
    )
    print("\nFigure 3(a) — evaluations vs c (Constant sampling scheme)")
    print(format_series(results, x_label="c"))

    # Shape: each dataset's sweep stays below exhaustive evaluation, and the
    # high-selectivity LC-like dataset beats the Naive baseline outright.
    for dataset, series in results.items():
        assert min(series.values()) < bench_config.load(dataset).num_rows
    lc = bench_config.load("lending_club")
    assert min(results["lending_club"].values()) < bench_config.beta * lc.num_rows
