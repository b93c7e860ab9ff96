"""Figures 2(a) and 2(b): fraction of runs meeting the precision / recall
constraint versus the requested probability rho.

The paper plots each rate against the ``x = y`` line: Intel-Sample meets
precision >= alpha and recall >= beta with probability >= rho.  One
:func:`figure2a_2b` call runs ``RUNS`` independent sample seeds per
(dataset, rho); panel 2(a) prints the precision rates, panel 2(b) the
recall rates, and both rates of every point are checked.  A point fails on
*evidence of a violation*: the one-sided 95 % Clopper–Pearson upper bound
of its rate below rho.  A rate a little under rho over ``RUNS`` seeds is
not such evidence.

Marketing, the paper's second 2(b) series, is its own case at
``MARKETING_RUNS`` seeds per point under the slack rule: its point at
rho = 0.9 is ~20x slower than any other, so ``RUNS`` seeds of it alone
would take longer than the rest of the figure.  The time is one solve.
With ``bench_config`` (seed 2015), run 4 of 6 fails four SLSQP starts
before the near-top start converges (17 step calls): the BiGreedy warm
start exits with mode 8 (positive directional derivative in the line
search) after 975 step calls, the LP warm start with mode 8 after 361, the
all-ones start with mode 4 (incompatible constraints) after 204 and the
midpoint start with mode 8 after 149.  That is about 1 700 step calls where
a normal solve takes about 15 (13–21 on the point's other runs).  Nothing
here is a wrong answer, and any fix to the solver moves answers
(ROADMAP item 1(a)).
"""

from repro.experiments.experiment1 import figure2a_2b
from repro.experiments.report import format_series
from repro.stats.beta import clopper_pearson_upper

RHO_VALUES = (0.5, 0.7, 0.9)
RUNS = 100
CONFIDENCE = 0.95
#: Panel -> (the datasets it plots, the rate it reads).
PANELS = {
    "2(a)": (("lending_club", "prosper"), "precision_rate"),
    "2(b)": (("census",), "recall_rate"),
}
MARKETING_RUNS = 6


def test_figure2ab_constraint_satisfaction(run_once, bench_config):
    datasets = tuple(name for names, _ in PANELS.values() for name in names)
    results = run_once(
        figure2a_2b,
        bench_config,
        rho_values=RHO_VALUES,
        dataset_names=datasets,
        iterations=RUNS,
    )
    for panel, (names, rate_key) in PANELS.items():
        series = {
            name: {rho: rates[rate_key] for rho, rates in results[name].items()}
            for name in names
        }
        print(f"\nFigure {panel} — {rate_key} over {RUNS} runs per point")
        print(format_series(series, x_label="rho"))
    violations = [
        (name, rho, key, rate, upper)
        for name, per_rho in results.items()
        for rho, rates in per_rho.items()
        for key, rate in rates.items()
        if (upper := clopper_pearson_upper(round(rate * RUNS), RUNS, CONFIDENCE)) < rho
    ]
    assert not violations, violations


def test_figure2b_marketing_recall_satisfaction(run_once, bench_config):
    results = run_once(
        figure2a_2b,
        bench_config,
        rho_values=RHO_VALUES,
        dataset_names=("marketing",),
        iterations=MARKETING_RUNS,
    )
    series = {
        "marketing": {rho: rates["recall_rate"] for rho, rates in results["marketing"].items()}
    }
    print(f"\nFigure 2(b) — recall_rate over {MARKETING_RUNS} runs per point")
    print(format_series(series, x_label="rho"))
    # The rate sits above the requested rho, allowing one failure of slack
    # at this small run count.
    slack = 1.0 / MARKETING_RUNS + 1e-9
    for rho, rate in series["marketing"].items():
        assert rate >= rho - slack
