"""Figure 3(c): expected retrievals vs the recall constraint beta (alpha = 0.8)."""

from repro.experiments.experiment3 import figure3c, is_convex_increasing
from repro.experiments.report import format_series

BETAS = (0.2, 0.5, 0.8, 0.9)
MULTIPLIERS = (2.5, 3.5, 4.5)


def test_figure3c_retrieves_vs_beta(run_once, bench_config):
    results = run_once(
        figure3c,
        bench_config,
        betas=BETAS,
        num_multipliers=MULTIPLIERS,
        iterations=1,
    )
    series = {f"num={m}*alpha": values for m, values in results.items()}
    print("\nFigure 3(c) — retrievals vs beta (LC, alpha = 0.8)")
    print(format_series(series, x_label="beta"))

    # Paper shape: the number of retrievals grows with the recall requirement.
    for values in results.values():
        assert is_convex_increasing(values)
        assert values[max(values)] > values[min(values)]
