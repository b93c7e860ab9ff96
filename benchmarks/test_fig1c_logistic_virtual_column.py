"""Figure 1(c): evaluations vs sampling parameter with a logistic-regression virtual column."""

from repro.experiments.experiment2 import figure1c
from repro.experiments.report import format_series


NUM_VALUES = (1.0, 2.5, 5.0, 9.0)


def test_figure1c_virtual_column_sweep(run_once, bench_config):
    results = run_once(
        figure1c,
        bench_config,
        num_values=NUM_VALUES,
        iterations=1,
    )
    print("\nFigure 1(c) — evaluations vs num (logistic-regression virtual column)")
    print(format_series(results, x_label="num"))

    # Shape: the virtual-column pipeline is always cheaper than evaluating the
    # whole table, and on the high-selectivity LC-like dataset it also beats
    # the Naive baseline (beta * n evaluations).  At the benchmark's reduced
    # scale the low-selectivity Marketing dataset is close to the break-even
    # the paper reports (3% savings), so it is only held to the weaker bound.
    # The rows that train the model are not selectivity evidence (their
    # buckets were fitted to them), so every bucket is sampled fresh: this
    # sweep evaluates more than it did while they were (prosper at num = 1:
    # 1 565 -> 1 712), the price of plans that meet rho.
    for dataset, series in results.items():
        dataset_bundle = bench_config.load(dataset)
        assert min(series.values()) < dataset_bundle.num_rows
    lc = bench_config.load("lending_club")
    assert min(results["lending_club"].values()) < bench_config.beta * lc.num_rows
