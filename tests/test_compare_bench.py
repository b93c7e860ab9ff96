"""Tests for the benchmark-regression gate (benchmarks/compare_bench.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench",
    Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py",
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _payload(
    cold_evals=1000,
    warm_evals=100,
    ratio=10.0,
    hit_rate=0.95,
    cold_index_builds=1,
    cold_row_calls=0,
):
    return {
        "cold": {
            "udf_evaluations": cold_evals,
            "solver_calls": 80,
            "work": cold_evals + 80,
            "group_index_builds": cold_index_builds,
            "udf_bulk_calls": 200,
            "udf_row_calls": cold_row_calls,
        },
        "warm": {
            "udf_evaluations": warm_evals,
            "solver_calls": 4,
            "work": warm_evals + 4,
            "group_index_builds": 1,
            "udf_bulk_calls": 120,
            "udf_row_calls": 0,
            "plan_cache": {"hit_rate": hit_rate},
        },
        "work_ratio_cold_over_warm": ratio,
        "seconds": 1.23,
    }


def _coldpath_payload(rows=26500, evals=60000, index_builds=1, row_calls=0):
    return {
        "rows": rows,
        "cold": {
            "udf_evaluations": evals,
            "solver_calls": 8,
            "group_index_builds": index_builds,
            "udf_bulk_calls": 18,
            "udf_row_calls": row_calls,
        },
        "seconds": 0.5,
    }


def _run(tmp_path, baseline, fresh, tolerance=0.15, profile=None):
    base_path = tmp_path / "baseline.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps(baseline))
    fresh_path.write_text(json.dumps(fresh))
    argv = [
        "--baseline",
        str(base_path),
        "--fresh",
        str(fresh_path),
        "--tolerance",
        str(tolerance),
    ]
    if profile is not None:
        argv += ["--profile", profile]
    return compare_bench.main(argv)


class TestClassify:
    def test_within_tolerance_is_ok(self):
        assert compare_bench._classify(100.0, 110.0, True, 0.15) == "ok"
        assert compare_bench._classify(100.0, 90.0, False, 0.15) == "ok"

    def test_lower_is_better_regression(self):
        assert compare_bench._classify(100.0, 120.0, True, 0.15) == "regression"
        assert compare_bench._classify(100.0, 80.0, True, 0.15) == "improvement"

    def test_higher_is_better_regression(self):
        assert compare_bench._classify(10.0, 8.0, False, 0.15) == "regression"
        assert compare_bench._classify(10.0, 12.0, False, 0.15) == "improvement"

    def test_zero_baseline_does_not_divide_by_zero(self):
        assert compare_bench._classify(0.0, 0.0, True, 0.15) == "ok"
        assert compare_bench._classify(0.0, 1.0, True, 0.15) == "regression"


class TestGate:
    def test_identical_payloads_pass(self, tmp_path):
        assert _run(tmp_path, _payload(), _payload()) == 0

    def test_small_drift_passes(self, tmp_path):
        assert _run(tmp_path, _payload(), _payload(cold_evals=1100, warm_evals=105)) == 0

    def test_work_regression_fails(self, tmp_path):
        assert _run(tmp_path, _payload(), _payload(warm_evals=200)) == 1

    def test_amortisation_ratio_regression_fails(self, tmp_path):
        assert _run(tmp_path, _payload(), _payload(ratio=5.0)) == 1

    def test_large_improvement_passes_but_notes_stale_baseline(self, tmp_path, capsys):
        assert _run(tmp_path, _payload(), _payload(warm_evals=10, ratio=30.0)) == 0
        out = capsys.readouterr().out
        assert "re-run the benchmark" in out

    def test_missing_counter_fails(self, tmp_path):
        broken = _payload()
        del broken["work_ratio_cold_over_warm"]
        assert _run(tmp_path, _payload(), broken) == 1

    def test_index_build_regression_fails(self, tmp_path):
        """The cold path rebuilding indexes per query must trip the gate."""
        assert _run(tmp_path, _payload(), _payload(cold_index_builds=80)) == 1

    def test_per_row_udf_regression_fails(self, tmp_path):
        """Per-row UDF calls creeping back into the cold path must fail."""
        assert _run(tmp_path, _payload(), _payload(cold_row_calls=500)) == 1

    def test_gate_accepts_the_committed_baseline(self):
        """The committed BENCH_serving.json must pass against itself."""
        committed = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_serving.json"
        )
        payload = json.loads(committed.read_text())
        rows = list(compare_bench.compare(payload, payload, 0.15))
        assert rows, "no gated counters found in the committed baseline"
        assert all(verdict == "ok" for *_rest, verdict in rows)

    def test_wall_clock_fields_are_not_gated(self):
        for counters in compare_bench.PROFILES.values():
            gated = {name for name, _ in counters}
            assert not any(
                "seconds" in name or "queries_per_second" in name for name in gated
            )


def _scale_payload(parity_delta=0, mismatches=0, process_delta=0,
                   serial_evals=1_400_000):
    replay = {
        "udf_evaluations": serial_evals,
        "solver_calls": 3,
        "udf_row_calls": 0,
    }
    return {
        "rows": 1_000_000,
        "shards": 8,
        "workers": 4,
        "serial": dict(replay),
        "parallel": dict(replay, udf_evaluations=serial_evals + parity_delta),
        "python_udf": {
            "serial": dict(replay),
            "thread": dict(replay),
            "process": dict(replay, udf_evaluations=serial_evals + process_delta),
        },
        "parity": {
            "udf_evaluations_abs_delta": abs(parity_delta),
            "solver_calls_abs_delta": 0,
            "row_ids_mismatch": mismatches,
            "thread_python_udf_evaluations_abs_delta": 0,
            "thread_python_solver_calls_abs_delta": 0,
            "thread_python_row_ids_mismatch": 0,
            "process_udf_evaluations_abs_delta": abs(process_delta),
            "process_solver_calls_abs_delta": 0,
            "process_row_ids_mismatch": 0,
            "workload_row_ids_mismatch": 0,
        },
        "parallel_speedup": 0.9,
        "thread_python_speedup": 0.8,
        "process_speedup": 2.4,
        "seconds": 1.0,
    }


class TestScaleProfile:
    def test_identical_payloads_pass(self, tmp_path):
        assert _run(tmp_path, _scale_payload(), _scale_payload(), profile="scale") == 0

    def test_any_parity_delta_fails(self, tmp_path):
        """The zero-baseline parity counters gate at exactly ±0."""
        assert _run(
            tmp_path, _scale_payload(), _scale_payload(parity_delta=1), profile="scale"
        ) == 1

    def test_result_mismatch_fails(self, tmp_path):
        assert _run(
            tmp_path, _scale_payload(), _scale_payload(mismatches=1), profile="scale"
        ) == 1

    def test_failure_message_names_counter_with_values(self, tmp_path, capsys):
        _run(tmp_path, _scale_payload(), _scale_payload(parity_delta=7), profile="scale")
        out = capsys.readouterr().out
        assert "parity.udf_evaluations_abs_delta" in out
        assert "baseline=0" in out and "fresh=7" in out

    def test_gate_accepts_the_committed_baseline(self):
        committed = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_scale.json"
        )
        payload = json.loads(committed.read_text())
        rows = list(compare_bench.compare(payload, payload, 0.15, profile="scale"))
        assert rows, "no gated counters found in the committed scale baseline"
        assert all(verdict == "ok" for *_rest, verdict in rows)


def _traffic_payload(evals=41_000_000, accounting_delta=0, silent=0, shed=28,
                     deadline_delta=0, deadline_unexpected=0, exceeded=8):
    return {
        "rows": 80_000,
        "clients": 1200,
        "signatures": 6,
        "work": {
            "queries": 1206,
            "plan_hits": 1200,
            "solver_calls": 6,
            "udf_evaluations": evals,
            "shed": 0,
        },
        "shed": {
            "fired": 32,
            "shed_count": shed,
            "silent_drops": silent,
            "accounting_delta": accounting_delta,
        },
        "deadline": {
            "fired": 8,
            "exceeded_count": exceeded,
            "unexpected": deadline_unexpected,
            "accounting_delta": deadline_delta,
        },
        "latency": {"qps": 35.0, "p50_ms": 190.0, "p99_ms": 550.0},
    }


class TestTrafficProfile:
    def test_identical_payloads_pass(self, tmp_path):
        assert _run(
            tmp_path, _traffic_payload(), _traffic_payload(), profile="traffic"
        ) == 0

    def test_work_regression_fails(self, tmp_path):
        assert _run(
            tmp_path,
            _traffic_payload(),
            _traffic_payload(evals=55_000_000),
            profile="traffic",
        ) == 1

    def test_shed_accounting_delta_fails_exactly(self, tmp_path):
        """One uncounted Overloaded raise trips the zero-baseline gate."""
        assert _run(
            tmp_path,
            _traffic_payload(),
            _traffic_payload(accounting_delta=1),
            profile="traffic",
        ) == 1

    def test_silent_drop_fails(self, tmp_path):
        assert _run(
            tmp_path,
            _traffic_payload(),
            _traffic_payload(silent=1, shed=27),
            profile="traffic",
        ) == 1

    def test_deadline_accounting_delta_fails_exactly(self, tmp_path):
        """One uncounted DeadlineExceeded raise trips the zero-baseline gate."""
        assert _run(
            tmp_path,
            _traffic_payload(),
            _traffic_payload(deadline_delta=1),
            profile="traffic",
        ) == 1

    def test_deadline_hang_or_silent_completion_fails(self, tmp_path):
        assert _run(
            tmp_path,
            _traffic_payload(),
            _traffic_payload(deadline_unexpected=1, exceeded=7),
            profile="traffic",
        ) == 1

    def test_latency_is_informational_only(self, tmp_path):
        fresh = _traffic_payload()
        fresh["latency"] = {"qps": 1.0, "p50_ms": 9000.0, "p99_ms": 90000.0}
        assert _run(tmp_path, _traffic_payload(), fresh, profile="traffic") == 0

    def test_gate_accepts_the_committed_baseline(self):
        committed = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_traffic.json"
        )
        payload = json.loads(committed.read_text())
        rows = list(compare_bench.compare(payload, payload, 0.15, profile="traffic"))
        assert rows, "no gated counters found in the committed traffic baseline"
        assert all(verdict == "ok" for *_rest, verdict in rows)


class TestColdpathProfile:
    def test_identical_payloads_pass(self, tmp_path):
        assert _run(
            tmp_path, _coldpath_payload(), _coldpath_payload(), profile="coldpath"
        ) == 0

    def test_eval_regression_fails(self, tmp_path):
        assert _run(
            tmp_path,
            _coldpath_payload(),
            _coldpath_payload(evals=90000),
            profile="coldpath",
        ) == 1

    def test_shrunk_scaling_point_fails(self, tmp_path):
        """Quietly shrinking the 25k-row bench point counts as a regression."""
        assert _run(
            tmp_path,
            _coldpath_payload(),
            _coldpath_payload(rows=2650, evals=6000),
            profile="coldpath",
        ) == 1

    def test_gate_accepts_the_committed_baseline(self):
        committed = (
            Path(__file__).resolve().parents[1] / "benchmarks" / "BENCH_coldpath.json"
        )
        payload = json.loads(committed.read_text())
        rows = list(compare_bench.compare(payload, payload, 0.15, profile="coldpath"))
        assert rows, "no gated counters found in the committed coldpath baseline"
        assert all(verdict == "ok" for *_rest, verdict in rows)


class TestDefaultPaths:
    """With no paths given the gate diffs committed-vs-``out/`` per profile."""

    @pytest.mark.parametrize("profile", sorted(compare_bench.PROFILES))
    def test_profile_alone_diffs_committed_against_out_dir(
        self, profile, tmp_path, monkeypatch
    ):
        committed = compare_bench.BASELINE_DIR / f"BENCH_{profile}.json"
        assert committed.exists(), f"no committed baseline for profile {profile}"
        assert compare_bench.OUT_DIR == compare_bench.BASELINE_DIR / "out"
        # A fresh run that reproduced the committed counters passes; the
        # committed file is only ever read.
        monkeypatch.setattr(compare_bench, "OUT_DIR", tmp_path)
        (tmp_path / committed.name).write_text(committed.read_text())
        before = committed.read_bytes()
        assert compare_bench.main(["--profile", profile]) == 0
        assert committed.read_bytes() == before

    def test_out_dir_is_git_ignored(self):
        ignored = (compare_bench.BASELINE_DIR.parent / ".gitignore").read_text().split()
        assert "benchmarks/out/" in ignored
