"""Figure 2(c): expected evaluations vs the precision constraint alpha (beta = 0.8)."""

from repro.experiments.experiment3 import figure2c, is_convex_increasing
from repro.experiments.report import format_series

ALPHAS = (0.2, 0.5, 0.8, 0.9)
MULTIPLIERS = (2.5, 3.5, 4.5)


def test_figure2c_evaluations_vs_alpha(run_once, bench_config):
    results = run_once(
        figure2c,
        bench_config,
        alphas=ALPHAS,
        num_multipliers=MULTIPLIERS,
        iterations=1,
    )
    series = {f"num={m}*alpha": values for m, values in results.items()}
    print("\nFigure 2(c) — evaluations vs alpha (LC, beta = 0.8)")
    print(format_series(series, x_label="alpha"))

    # Paper shape: cost increases towards alpha = 0.9 for every multiplier.
    for values in results.values():
        assert is_convex_increasing(values)
