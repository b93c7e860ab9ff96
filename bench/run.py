"""One command for the layered serving benchmark.

Two ways to call it::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload in this process and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of an untraced run with ``--trace 0``, the per-layer metrics with
``--trace 1`` (an untraced pass, then a traced pass over the same
operations, so the two can be compared).  Without ``--trace``::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--repeats R] [--out DIR]

runs every workload (or the named one) both ways, each in a subprocess of
its own, and writes ``results.json``, ``summary.txt`` and the span files to
``--out`` (default ``bench/out/``, which git ignores).

Everything that starts work sits under the ``__main__`` check: the process
pool of ``udf_process`` uses the ``spawn`` start method, whose workers import
this file again.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


#: Set in the environment of the process that measures; see :func:`supervise`.
SUPERVISED = "BENCH_SUPERVISED"
#: Seconds a process the measuring process left behind gets to end by itself.
GRACE_S = 10.0


def _children_of(pid: int) -> List[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    fields = handle.read().rpartition(")")[2].split()
            except OSError:
                continue  # ended while we looked
            if int(fields[1]) == pid:
                found.append(int(entry))
    return found


def wait_for_descendants(grace_s: float, hurry: bool) -> None:
    """Wait until every child of this process has ended.

    What has not ended by itself within ``grace_s`` is killed.  With
    ``hurry`` (the run was interrupted) everything is asked to end at once:
    pool workers do, and the resource tracker, which ignores the request,
    then sees its pipe close, removes the shared memory it tracks and ends.
    Orphans of an ended child become children of this process (see
    :func:`supervise`), so the loop ends only when the whole tree has.
    """
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            late = time.monotonic() > deadline
            if hurry or late:
                for child in _children_of(os.getpid()):
                    try:
                        os.kill(child, signal.SIGKILL if late else signal.SIGTERM)
                    except ProcessLookupError:
                        pass
            time.sleep(0.02)


def supervise() -> int:
    """Run this command line again as a child process, and end only after
    every process it started has.

    Two things a run needs from outside the measuring process:

    * ``PYTHONHASHSEED=0``.  The program's answers at a fixed seed depend on
      str hashing (group keys are strings), which Python randomises per
      process.  Pinned, one seed gives one answers digest in every process.
    * Nothing left running.  ``multiprocessing``'s resource tracker (started
      for the shared-memory exports of ``udf_process``) ends only *after*
      the process that started it, so that process cannot wait for it.  This
      one can: as the reaper of its orphaned descendants (Linux
      ``PR_SET_CHILD_SUBREAPER``) it inherits them when the child ends, waits
      for each, and kills what is still there after ``GRACE_S``.  Interrupted
      by SIGTERM or ctrl-C it ends the whole tree first, then itself.
    """
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = dict(os.environ, PYTHONHASHSEED="0", **{SUPERVISED: "1"})
    child = subprocess.Popen([sys.executable] + sys.argv, env=env)
    try:
        status = child.wait()
    finally:
        interrupted = child.poll() is None
        if interrupted:
            child.kill()
            child.wait()
        wait_for_descendants(GRACE_S, hurry=interrupted)
    return status if status >= 0 else 128 - status


def ensure_supervised() -> None:
    """In the child, return; anywhere else, become its supervisor."""
    if os.environ.get(SUPERVISED) != "1":
        sys.exit(supervise())


if __name__ == "__main__":
    ensure_supervised()  # before the heavy imports, which the child does

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import report  # noqa: E402
from bench.layers import END_TO_END, PER_LAYER, TARGETS  # noqa: E402
from bench.trace import NullTracer, Span, Target, Tracer, link_roots, self_times, write_spans  # noqa: E402
from bench.workloads import WORKLOADS, InvalidBenchmark, Op  # noqa: E402
from repro.db.index import GroupIndex  # noqa: E402

DEFAULT_SEED = 2015
DEFAULT_SECONDS = 15.0
DEFAULT_OUT = os.path.join(ROOT, "bench", "out")


@dataclass
class Pass:
    """What one set-up + timed phase + teardown of a workload produced."""

    ops: List[Op]
    units: int  # units the timed phase completed
    prefix_units: int  # units the exactly-repeating numbers are taken over
    started_s: float  # perf_counter at the start of the timed phase
    setup_s: List[float]  # at reference machine speed
    peak_rss_mb: float
    failures: List[str]
    totals: Dict[str, float]
    extras: Dict[str, float]
    spans: List[Span] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok) + len(self.failures)

    @property
    def digest(self) -> str:
        return report.answers_digest(self.ops, self.prefix_units)


def peak_rss_mb(own_kb: int) -> float:
    """Peak resident set of this process (``own_kb``, read when the timed
    phase ended) plus its largest reaped child."""
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kb + children_kb) / 1024.0


def reap_children() -> None:
    """Wait for every worker process this run started to end."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def run_pass(
    name: str,
    seed: int,
    seconds: float,
    ops: Optional[int],
    traced: bool,
    workdir: str,
    rows_scale: float = 1.0,
    setup_repeats: int = 1,
    targets: Sequence[Target] = TARGETS,
) -> Pass:
    """Set up (``setup_repeats`` times), run the timed phase, tear down."""
    cls = WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if traced else NullTracer()
    builds_before = GroupIndex.builds_total
    failures: List[str] = []
    setup_s: List[float] = []
    workload = None
    try:
        if traced:
            tracer.install(targets)
        for _ in range(setup_repeats):
            if workload is not None:
                failures.extend(workload.teardown())
            workload = cls(seed, rows_scale=rows_scale, workdir=workdir)
            gc.collect()
            started = time.perf_counter()
            workload.setup()
            raw_s = time.perf_counter() - started
            workload.probe.sample(20)  # the machine's speed right after the set-up
            setup_s.append(raw_s / workload.probe.slowdown())
        workload.run(seconds, ops, tracer)
    finally:
        if workload is not None:
            failures.extend(workload.teardown())
        reap_children()
        if traced:
            tracer.uninstall()
    off_path = [
        op for op in workload.ops if op.kind == "query" and op.ok and op.path != op.expect
    ]
    if off_path:
        first = off_path[0]
        raise InvalidBenchmark(
            f"{name}: {len(off_path)} queries left their prescribed plan-cache path "
            f"(first: unit {first.unit} took {first.path!r}, prescribed {first.expect!r})"
        )
    units = max(op.unit for op in workload.ops) + 1
    scored = [op for op in workload.ops if op.kind == "query"]
    totals = dict(workload.tape.totals)
    totals["rows_sampled"] = float(sum(op.sampled for op in scored))
    totals["rows_retrieved"] = float(sum(op.retrieved for op in scored))
    totals["rows_evaluated"] = float(sum(op.evaluated for op in scored))
    written = workload.bytes_written
    extras = {
        "machine_slowdown": workload.probe.slowdown(),
        "shm_segments": float(workload.shm_segments),
        "index_builds": float(GroupIndex.builds_total - builds_before),
        "peak_resident_bytes": float(workload.tape.peak_resident_bytes),
        "bytes_written_per_user_byte": (
            written / workload.user_bytes if written is not None and workload.user_bytes else 0.0
        ),
    }
    return Pass(
        ops=workload.ops,
        units=units,
        prefix_units=min(cls.min_ops, units),
        started_s=workload.started_s,
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb(workload.peak_rss_kb),
        failures=failures,
        totals=totals,
        extras=extras,
        spans=link_roots(tracer.spans),
        missing=list(tracer.missing),
    )


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: str,
    ops: Optional[int] = None,
    rows_scale: float = 1.0,
    targets: Sequence[Target] = TARGETS,
    setup_repeats: Optional[int] = None,
) -> Dict[str, object]:
    """One benchmark run of one workload; returns its full record.

    An untraced run sets up ``setup_repeats`` times (default: the workload's
    own count) and reports the median as ``setup_s``.
    """
    workdir = os.path.join(out, "tmp")
    common = dict(workdir=workdir, rows_scale=rows_scale)
    if not trace:
        repeats = setup_repeats or WORKLOADS[name].setup_repeats
        done = run_pass(name, seed, seconds, ops, False, setup_repeats=repeats, **common)
        metrics: Dict[str, Optional[float]] = report.end_to_end(
            done.ops, done.started_s, done.prefix_units, done.setup_s, done.failed, done.peak_rss_mb
        )
        units_of = END_TO_END
        record = {
            "correct": done.failed == 0,
            "layer_self_ms_per_op": {},
            # As the wall clock measured them, beside the reported values.
            "raw": {
                **report.raw_timings(done.ops, done.started_s),
                "machine_slowdown": done.extras["machine_slowdown"],
            },
        }
    else:
        untraced = run_pass(name, seed, seconds / 2, ops, False, **common)
        done = run_pass(name, seed, 0.0, untraced.units, True, targets=targets, **common)
        selfs = self_times(done.spans)
        layers = report.layer_self_ms(done.spans, selfs, {op.op_id for op in done.ops})
        extras = {**done.extras, **report.raw_timings(untraced.ops, untraced.started_s)}
        metrics = report.per_layer(
            untraced.ops, done.ops, done.spans, layers, done.missing, done.totals, extras
        )
        units_of = {key: unit for key, (unit, _rule) in PER_LAYER.items()}
        write_spans(os.path.join(out, f"{name}.spans.jsonl"), done.spans, selfs)
        n_ops = sum(1 for op in done.ops if op.counted)
        if untraced.digest != done.digest:
            done.failures.append("answers differ between the untraced and the traced pass")
        done.failures.extend(untraced.failures)
        record = {
            "correct": done.failed == 0 and untraced.failed == 0,
            "layer_self_ms_per_op": {
                layer: total / n_ops for layer, total in sorted(layers.items())
            },
            "traced_latency_ms_per_op": sum(op.latency_s for op in done.ops) * 1000.0 / n_ops,
        }
    queries = [op for op in done.ops if op.kind == "query"]
    record.update(
        workload=name,
        seed=seed,
        trace=int(trace),
        attempted=len(done.ops),
        failed=done.failed,
        failures=[op.error for op in done.ops if not op.ok] + done.failures,
        metrics={key: {"value": metrics[key], "unit": units_of[key]} for key in metrics},
        answers_digest=done.digest,
        samples={
            "queries": len(queries),
            "beyond_p90": len(queries) // 10,
            "units": done.units,
            "prefix_units": done.prefix_units,
            "paths": {
                path: sum(1 for op in queries if op.path == path)
                for path in sorted({op.path for op in queries})
            },
        },
        missing_targets=done.missing,
    )
    return record


def contract_line(record: Dict[str, object]) -> str:
    """The last line the driver reads.

    A metric whose trace target no longer exists stays ``null``: it was not
    measured, and 0 would read as a perfect score on a lower-is-better
    metric.
    """
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": record["metrics"],
        }
    )


def print_record(record: Dict[str, object], stream=sys.stdout) -> None:
    samples = record["samples"]
    print(
        f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"queries={samples['queries']} ({samples['beyond_p90']} beyond p90)  "
        f"units={samples['units']}  paths={samples['paths']}  "
        f"digest={record['answers_digest']}  failed={record['failed']}",
        file=stream,
    )
    for key, entry in record["metrics"].items():
        value = "null" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {key:<44} {value:>14} {entry['unit']}", file=stream)
    layers = record["layer_self_ms_per_op"]
    if layers:
        total = sum(layers.values())
        print("  -- self time per op, by layer (sums to the traced op latency)", file=stream)
        for layer, value in sorted(layers.items(), key=lambda item: -item[1]):
            print(f"  {layer:<44} {value:>14.4f} ms {value / total:>7.1%}", file=stream)
    for failure in record["failures"]:
        print(f"  FAILED: {failure}", file=stream)


def run_one(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    except InvalidBenchmark as exc:
        print(f"invalid benchmark: {exc}", file=sys.stderr)
        return 2
    with open(
        os.path.join(args.out, f"{args.workload}.trace{args.trace}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(record, handle, indent=1)
    print_record(record)
    print(contract_line(record))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in its own subprocess."""
    os.makedirs(args.out, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results: Dict[str, Dict[str, object]] = {}
    status = 0
    shown: List[Dict[str, object]] = []
    for name in names:
        runs: List[Dict[str, object]] = []
        for trace in [0] * args.repeats + [1]:
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", args.out,
            ]  # fmt: skip
            done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
            if done.returncode != 0:
                print(f"{name} --trace {trace} exited with {done.returncode}", file=sys.stderr)
                status = 1
                continue
            record_path = os.path.join(args.out, f"{name}.trace{trace}.json")
            with open(record_path, encoding="utf-8") as handle:
                runs.append(json.load(handle))
        untraced = [run for run in runs if run["trace"] == 0]
        traced = [run for run in runs if run["trace"] == 1]
        digests = {run["answers_digest"] for run in runs}
        if len(digests) > 1:
            print(f"{name}: answers digest differs between runs of one seed", file=sys.stderr)
            status = 1
        if any(not run["correct"] for run in runs):
            status = 1
        results[name] = {
            "end_to_end": {
                key: [run["metrics"][key]["value"] for run in untraced] for key in END_TO_END
            },
            "per_layer": traced[0]["metrics"] if traced else {},
            "layer_self_ms_per_op": traced[0]["layer_self_ms_per_op"] if traced else {},
            "answers_digest": sorted(digests),
            "failed": sum(run["failed"] for run in runs),
            "samples": untraced[-1]["samples"] if untraced else {},
        }
        for run in untraced[-1:] + traced:
            print_record(run)
            shown.append(run)
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as handle:
        for run in shown:
            print_record(run, stream=handle)
    with open(os.path.join(args.out, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {"seed": args.seed, "seconds": args.seconds, "workloads": results}, handle, indent=1
        )
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--repeats", type=int, default=3, help="untraced runs per workload (all-workloads mode)"
    )
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    warnings.simplefilter("default", RuntimeWarning)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
