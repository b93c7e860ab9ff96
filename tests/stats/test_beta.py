"""Tests for the Beta-posterior selectivity estimates (paper Section 4.1)."""

import math

import pytest

from repro.stats.beta import BetaPosterior, beta_mean, beta_variance, clopper_pearson_upper


class TestBetaMean:
    def test_matches_paper_formula(self):
        # s_a = (F+ + 1) / (F + 2)
        assert beta_mean(9, 1) == pytest.approx(10 / 12)

    def test_uninformed_prior_is_half(self):
        assert beta_mean(0, 0) == pytest.approx(0.5)

    def test_all_positive_sample(self):
        assert beta_mean(10, 0) == pytest.approx(11 / 12)

    def test_all_negative_sample(self):
        assert beta_mean(0, 10) == pytest.approx(1 / 12)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            beta_mean(-1, 2)


class TestBetaVariance:
    def test_matches_paper_formula(self):
        mean = beta_mean(4, 6)
        assert beta_variance(4, 6) == pytest.approx(mean * (1 - mean) / 13)

    def test_variance_shrinks_with_more_samples(self):
        assert beta_variance(50, 50) < beta_variance(5, 5)

    def test_uninformed_variance_is_largest(self):
        assert beta_variance(0, 0) >= beta_variance(1, 1)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            beta_variance(1, -2)


class TestBetaPosterior:
    def test_sample_size(self):
        posterior = BetaPosterior(positives=7, negatives=3)
        assert posterior.sample_size == 10

    def test_shape_parameters(self):
        posterior = BetaPosterior(positives=7, negatives=3)
        assert posterior.alpha == 8
        assert posterior.beta == 4

    def test_mean_and_variance_agree_with_functions(self):
        posterior = BetaPosterior(positives=7, negatives=3)
        assert posterior.mean == pytest.approx(beta_mean(7, 3))
        assert posterior.variance == pytest.approx(beta_variance(7, 3))

    def test_std_is_sqrt_of_variance(self):
        posterior = BetaPosterior(positives=7, negatives=3)
        assert posterior.std == pytest.approx(math.sqrt(posterior.variance))

    def test_updated_accumulates_counts(self):
        posterior = BetaPosterior(positives=2, negatives=1).updated(3, 4)
        assert posterior.positives == 5
        assert posterior.negatives == 5

    def test_from_labels(self):
        posterior = BetaPosterior.from_labels([True, False, True, True])
        assert posterior.positives == 3
        assert posterior.negatives == 1

    def test_uninformed_constructor(self):
        posterior = BetaPosterior.uninformed()
        assert posterior.sample_size == 0
        assert posterior.mean == pytest.approx(0.5)

    def test_credible_interval_contains_mean(self):
        posterior = BetaPosterior(positives=30, negatives=10)
        low, high = posterior.credible_interval(0.9)
        assert low < posterior.mean < high

    def test_credible_interval_narrows_with_samples(self):
        wide = BetaPosterior(positives=3, negatives=1).credible_interval(0.9)
        narrow = BetaPosterior(positives=300, negatives=100).credible_interval(0.9)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_credible_interval_rejects_bad_level(self):
        with pytest.raises(ValueError):
            BetaPosterior(1, 1).credible_interval(1.5)

    def test_cdf_monotone(self):
        posterior = BetaPosterior(positives=5, negatives=5)
        assert posterior.cdf(0.2) < posterior.cdf(0.8)

    def test_pdf_positive_inside_support(self):
        posterior = BetaPosterior(positives=5, negatives=5)
        assert posterior.pdf(0.5) > 0.0

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            BetaPosterior(positives=-1, negatives=0)


def test_importing_the_worker_module_does_not_import_scipy_stats():
    # Every process — and every spawned or respawned pool worker — imports
    # ``repro.core.procpool``; ``scipy.stats`` is a third of that and only
    # the three cold ``BetaPosterior`` methods above need it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys, repro.core.procpool\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported at start-up'\n"
        "from repro.stats.beta import BetaPosterior\n"
        "assert 0.0 < BetaPosterior(3, 1).cdf(0.5) < 1.0\n"
        "assert 'scipy.stats' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


class TestClopperPearsonUpper:
    @pytest.mark.parametrize("n", [1, 10, 150])
    def test_no_successes_has_the_closed_form(self, n):
        # P(X <= 0; p) = (1 - p)^n = 1 - confidence
        assert clopper_pearson_upper(0, n, 0.95) == pytest.approx(1 - 0.05 ** (1 / n), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 150])
    def test_one_failure_has_the_closed_form(self, n):
        # P(X <= n - 1; p) = 1 - p^n = 1 - confidence
        assert clopper_pearson_upper(n - 1, n, 0.95) == pytest.approx(0.95 ** (1 / n), rel=1e-12)

    def test_table_values(self):
        # The upper end of the exact two-sided 90 % interval for 5 / 10.
        assert clopper_pearson_upper(5, 10, 0.95) == pytest.approx(0.7776, abs=1e-4)
        # "Rule of three": 0 of 100 bounds the rate near 3 / 100.
        assert clopper_pearson_upper(0, 100, 0.95) == pytest.approx(0.0295, abs=1e-4)

    def test_all_successes_bound_is_one(self):
        assert clopper_pearson_upper(150, 150, 0.95) == 1.0

    def test_grows_with_successes_and_confidence(self):
        bounds = [clopper_pearson_upper(k, 150, 0.95) for k in range(151)]
        assert bounds == sorted(bounds)
        assert clopper_pearson_upper(101, 150, 0.99) > clopper_pearson_upper(101, 150, 0.95)

    @pytest.mark.parametrize(
        "successes, n, confidence",
        [(-1, 10, 0.95), (11, 10, 0.95), (0, 0, 0.95), (5, 10, 0.0), (5, 10, 1.0)],
    )
    def test_rejects_impossible_arguments(self, successes, n, confidence):
        with pytest.raises(ValueError):
            clopper_pearson_upper(successes, n, confidence)
