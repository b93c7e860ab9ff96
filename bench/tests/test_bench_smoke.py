"""Smoke test of the layered benchmark: every workload, tiny scale.

Collected by the tier-1 command.  Checks what a number from ``bench/`` rests
on: every metric ``BENCHMARK.json`` names is reported with its unit, one
seed gives one answers digest (traced or not, in this process or another)
and another seed another, the prescribed plan-cache paths were taken,
attribution adds up, a vanished trace target reads ``null`` instead of
crashing, and tracing leaves the program unpatched.

The workloads run in two subprocesses (this file, as a script) and the tests
read their records.  Two, so that "one seed, one digest" is checked between
processes, which holds only because ``bench.run.supervise`` runs each again
with ``PYTHONHASHSEED=0`` (and waits for the resource tracker ``udf_process``
leaves behind); subprocesses, because the rest of the tier-1 suite shares
this process and its wall-clock gates should not inherit the heap and thread
history of five benchmark runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import compare  # noqa: E402
from bench.layers import END_TO_END, PER_LAYER, TARGETS  # noqa: E402
from bench.run import contract_line, ensure_supervised, measure  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: (units, rows scale, plan-cache paths the timed queries must take)
TINY = {
    "warm_hits": (24, 0.1, {"hit"}),
    "cold_plans": (12, 0.4, {"miss"}),
    "udf_process": (4, 0.05, {"hit"}),
    "durable_churn": (10, 0.04, {"hit", "refresh", "restored"}),
    "async_clients": (40, 0.1, {"hit"}),
}


def _measure(name, seed, trace, out, **kwargs):
    units, rows_scale, _paths = TINY[name]
    return measure(
        name, seed, 0.0, trace, out, ops=units, rows_scale=rows_scale, setup_repeats=1, **kwargs
    )


def collect(out: str, part: str) -> None:
    """Run what the tests look at; write it to ``<out>/smoke-<part>.json``.

    Part ``a``: every workload traced (an untraced pass, then a traced one)
    at seed 7, and one traced run with a trace target that does not exist.
    Part ``b``, in another process: every workload untraced at seeds 7 and 8.
    """
    from repro.serving.service import QueryService

    records = {"hash_seed": os.environ.get("PYTHONHASHSEED")}
    if part == "b":
        for name in WORKLOADS:
            records[name] = {
                "untraced": _measure(name, 7, False, out),
                "other": _measure(name, 8, False, out),
            }
    else:
        submit = QueryService.__dict__["submit"]
        for name in WORKLOADS:
            records[name] = {
                "traced": _measure(name, 7, True, out),
                "spans_bytes": os.path.getsize(os.path.join(out, f"{name}.spans.jsonl")),
            }
        targets = [
            dataclasses.replace(target, qualname="BatchExecutor.no_such_method")
            if target.name == "core.executor.execute"
            else target
            for target in TARGETS
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records["vanished"] = _measure("warm_hits", 7, True, out, targets=targets)
        records["warnings"] = [str(warning.message) for warning in caught]
        records["unpatched"] = QueryService.__dict__["submit"] is submit
    with open(os.path.join(out, f"smoke-{part}.json"), "w", encoding="utf-8") as handle:
        json.dump(records, handle)


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONHASHSEED"}
    records = {}
    running = []
    for part in ("a", "b"):
        out = str(tmp_path_factory.mktemp(f"bench-{part}"))
        command = [sys.executable, os.path.abspath(__file__), out, part]
        running.append((out, part, subprocess.Popen(command, env=env)))
    for out, part, process in running:
        assert process.wait(timeout=300) == 0
        with open(os.path.join(out, f"smoke-{part}.json"), encoding="utf-8") as handle:
            records[part] = json.load(handle)
    return records


def test_manifest_matches_the_tables(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {
        name: unit for name, (unit, _rule) in PER_LAYER.items()
    }


def test_both_processes_pinned_their_hash_seed(smoke):
    assert smoke["a"]["hash_seed"] == smoke["b"]["hash_seed"] == "0"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric_and_repeats(name, manifest, smoke):
    traced = smoke["a"][name]["traced"]
    untraced, other = smoke["b"][name]["untraced"], smoke["b"][name]["other"]
    for record in (traced, untraced, other):
        assert record["failed"] == 0, record["failures"]
        assert record["correct"]
        assert set(record["samples"]["paths"]) == TINY[name][2]
    for metric in manifest["end_to_end"]:
        entry = untraced["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"]
    for metric in manifest["per_layer"]:
        entry = traced["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] is not None
    line = json.loads(contract_line(traced))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(PER_LAYER)

    # One seed, one answer: with or without tracing (the traced record fails
    # itself if its own untraced pass disagreed), in one process or another.
    # Another seed, another answer.
    assert traced["answers_digest"] == untraced["answers_digest"]
    assert untraced["answers_digest"] != other["answers_digest"]
    # Attribution adds up: the layers' self times are the traced op latency.
    assert sum(traced["layer_self_ms_per_op"].values()) == pytest.approx(
        traced["traced_latency_ms_per_op"], rel=0.02
    )
    assert smoke["a"][name]["spans_bytes"] > 0


def test_vanished_trace_target_reads_null(smoke):
    record = smoke["a"]["vanished"]
    assert any("no_such_method" in message for message in smoke["a"]["warnings"])
    assert record["missing_targets"] == ["core.executor.execute"]
    assert record["metrics"]["core.executor.execute_ms"]["value"] is None
    assert record["metrics"]["core.executor.calls"]["value"] is None
    assert record["metrics"]["serving.service.self_ms"]["value"] > 0
    assert record["failed"] == 0
    # Not measured is not zero: the driver-facing line keeps the null.
    assert json.loads(contract_line(record))["metrics"]["core.executor.execute_ms"]["value"] is None


def test_tracing_leaves_no_wrapper_behind(smoke):
    assert smoke["a"]["unpatched"]


def test_compare_verdicts():
    steady, noisy = [10.0, 10.1, 9.9, 10.0, 10.05], [10.0, 14.0, 7.0, 12.0, 9.0]
    assert compare.verdict(steady, [10.3] * 5, "lower", 0.10)["status"] == "ok"
    assert compare.verdict(steady, [11.5] * 5, "lower", 0.10)["status"] == "worse"
    assert compare.verdict(steady, [8.5] * 5, "higher", 0.10)["status"] == "worse"
    assert compare.verdict(noisy, [10.3] * 5, "lower", 0.10)["status"] == "unresolved"
    # One run a side has no spread to judge by.
    assert compare.verdict([10.0], [10.3], "lower", 0.10)["status"] == "unresolved"
    # A workload that crashed reports nothing; a vanished metric reports null.
    assert compare.verdict(steady, [], "lower", 0.10)["status"] == "worse"
    assert compare.verdict(steady, None, "lower", 0.10)["status"] == "worse"
    assert compare.verdict(steady, [None], "lower", 0.10)["status"] == "worse"
    # Exact metrics at one seed: equal, or (where allowed) better; never worse.
    assert compare.verdict([0.35], [0.35], "lower", 0.05, exact=False)["status"] == "ok"
    assert compare.verdict([0.35], [0.34], "lower", 0.05, exact=False)["status"] == "worse"
    assert compare.verdict([1.0], [0.999], "higher", 0.02, exact=True)["status"] == "worse"
    assert compare.verdict([0.99], [1.0], "higher", 0.02, exact=True)["status"] == "ok"


def test_compare_flags_a_missing_workload_and_a_changed_digest():
    def results(**workloads):
        return {"seed": 7, "workloads": workloads}

    def workload(digest="d1", p50=(10.0, 10.1)):
        end_to_end = {name: [1.0, 1.0] for name in END_TO_END}
        end_to_end["query_p50_ms"] = list(p50)
        return {"end_to_end": end_to_end, "answers_digest": [digest]}

    def statuses(a, b):
        return {(r["workload"], r["metric"]): r["status"] for r in compare.compare(a, b)}

    same = statuses(results(w=workload()), results(w=workload()))
    assert set(same.values()) == {"ok"}
    crashed = statuses(results(w=workload()), results(w={"end_to_end": {}, "answers_digest": []}))
    assert set(crashed.values()) == {"worse"}
    gone = statuses(results(w=workload(), v=workload()), results(w=workload()))
    assert gone[("v", "query_p50_ms")] == "worse" and gone[("w", "query_p50_ms")] == "ok"
    moved = statuses(results(w=workload()), results(w=workload(digest="d2")))
    assert moved[("w", "answers_digest")] == "worse"


if __name__ == "__main__":
    ensure_supervised()
    collect(sys.argv[1], sys.argv[2])
