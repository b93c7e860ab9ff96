"""Turns op records, counters and spans into the metrics ``BENCHMARK.json`` names."""

from __future__ import annotations

import hashlib
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from bench.layers import PER_LAYER, TARGETS
from bench.trace import OP_SPAN, Span
from bench.workloads import Op

THROUGHPUT_WINDOWS = 8


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _ms(seconds: Iterable[float]) -> List[float]:
    return [value * 1000.0 for value in seconds]


def prefix(ops: Sequence[Op], units: int) -> List[Op]:
    """The ops of the first ``units`` units: what must repeat exactly per seed."""
    return [op for op in ops if op.unit < units]


def answers_digest(ops: Sequence[Op], units: int) -> str:
    """Hash of row ids and ledger counts over the prefix, in op order."""
    digest = hashlib.blake2b(digest_size=16)
    for op in sorted(prefix(ops, units), key=lambda op: op.op_id):
        digest.update(op.digest)
    return digest.hexdigest()


def throughput(ops: Sequence[Op], started_s: float, raw: bool = False) -> float:
    """Counted ops per second of timed wall, at reference machine speed
    (``raw``: as measured).

    Wall clock, from the start of the timed phase to the end of the last op,
    less the time the speed probe took: it includes what the benchmark does
    between ops (scoring an answer, resetting the memo, drawing the next
    delta) and the restart steps of ``durable_churn``, which are wall but
    not ops.  The run is cut into a few windows of equally many ops, in the
    order they ended, and the median window rate is reported, so one stall
    (a GC pause, a noisy neighbour) does not move it.
    """
    ordered = sorted(ops, key=lambda op: op.end_s)
    windows = min(THROUGHPUT_WINDOWS, max(1, len(ordered) // 50))
    rates = []
    edge_s, edge_probe_s = started_s, 0.0
    for chunk in np.array_split(np.arange(len(ordered)), windows):
        window = [ordered[i] for i in chunk]
        last = window[-1]
        wall = (last.end_s - edge_s) - (last.probe_s - edge_probe_s)
        edge_s, edge_probe_s = last.end_s, last.probe_s
        if not raw:
            wall /= statistics.median(op.slowdown for op in window)
        if wall > 0:
            rates.append(sum(1 for op in window if op.counted) / wall)
    return statistics.median(rates)


def end_to_end(
    ops: Sequence[Op],
    started_s: float,
    units: int,
    setup_s: Sequence[float],
    failures: int,
    peak_rss_mb: float,
) -> Dict[str, float]:
    """The end-to-end metrics; ``setup_s`` and the ops' ``norm_s`` are at
    reference machine speed already."""
    queries = [op for op in ops if op.kind == "query" and op.ok]
    scored = [op for op in prefix(ops, units) if op.kind == "query"]
    latencies = _ms(op.norm_s for op in queries)
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_ops_s": throughput(ops, started_s),
        "query_p50_ms": percentile(latencies, 50),
        "query_p90_ms": percentile(latencies, 90),
        "cost_vs_naive": sum(op.cost for op in scored) / sum(op.naive for op in scored),
        "guarantee_sat_share": sum(op.satisfied for op in scored) / len(scored),
        "ok_ops_share": max(0.0, 1.0 - failures / len(ops)),
        "peak_rss_mb": peak_rss_mb,
    }


def raw_timings(ops: Sequence[Op], started_s: float) -> Dict[str, float]:
    """The timing metrics as the wall clock measured them."""
    latencies = _ms(op.latency_s for op in ops if op.kind == "query" and op.ok)
    return {
        "raw_throughput_ops_s": throughput(ops, started_s, raw=True),
        "raw_query_p50_ms": percentile(latencies, 50),
        "raw_query_p90_ms": percentile(latencies, 90),
    }


# -- per layer -----------------------------------------------------------------
def layer_self_ms(spans: Sequence[Span], selfs: Dict[int, int], op_ids: set) -> Dict[str, float]:
    """Layer -> total self time (ms) of its spans inside the timed ops."""
    totals: Dict[str, float] = {}
    for span in spans:
        if span.op in op_ids:
            layer = span.name.rpartition(".")[0]
            totals[layer] = totals.get(layer, 0.0) + selfs[span.id] / 1e6
    return totals


class _SpanIndex:
    """Spans by id and by name, built once for the ~70 rules that query them."""

    def __init__(self, spans: Sequence[Span]):
        self.by_id = {span.id: span for span in spans}
        self.by_name: Dict[str, List[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)

    def outermost(self, names: Sequence[str], op_ids: Optional[set] = None) -> List[Span]:
        """Named spans with no named ancestor, so nested calls count once.

        With ``op_ids``, only spans of those (timed) operations.
        """
        wanted = set(names)
        chosen = []
        for name in wanted:
            for span in self.by_name.get(name, ()):
                if op_ids is not None and span.op not in op_ids:
                    continue
                parent = self.by_id.get(span.parent)
                while parent is not None and parent.name not in wanted:
                    parent = self.by_id.get(parent.parent)
                if parent is None:
                    chosen.append(span)
        return chosen

    def queue_waits_ms(self, op_ids: set) -> List[float]:
        """Per timed op: from its start to the start of ``submit`` on a pool thread."""
        waits = []
        for span in self.by_name.get("serving.service.submit", ()):
            if span.op not in op_ids:
                continue
            ancestor = self.by_id.get(span.parent)
            while ancestor is not None and ancestor.name != OP_SPAN:
                ancestor = self.by_id.get(ancestor.parent)
            if ancestor is not None:
                waits.append((span.start - ancestor.start) / 1e6)
        return waits


def per_layer(
    untraced: Sequence[Op],
    traced: Sequence[Op],
    spans: Sequence[Span],
    layer_ms: Dict[str, float],
    missing: Sequence[str],
    totals: Dict[str, float],
    extras: Dict[str, float],
) -> Dict[str, Optional[float]]:
    """Every ``PER_LAYER`` metric; ``None`` where a target no longer exists.

    ``untraced`` supplies the latency-derived numbers (tracing off),
    ``traced`` with ``spans`` and ``layer_ms`` (:func:`layer_self_ms`) the
    attribution, ``totals`` the counter advances over the traced timed phase.
    Times are wall clock as measured; ``bench.machine_slowdown`` says how
    slow the machine was meanwhile.
    """
    op_ids = {op.op_id for op in traced}
    n_ops = sum(1 for op in traced if op.counted)
    index = _SpanIndex(spans)
    missing = set(missing)
    target_names = {target.name for target in TARGETS}

    def ratio(hits: str, misses: str) -> float:
        lookups = totals.get(hits, 0.0) + totals.get(misses, 0.0)
        return totals.get(hits, 0.0) / lookups if lookups else 0.0

    queries = [op for op in untraced if op.kind == "query" and op.ok]
    latencies = _ms(op.latency_s for op in queries)
    appends = _ms(op.latency_s for op in untraced if op.kind == "append" and op.ok)
    waits = index.queue_waits_ms(op_ids)
    # The two passes run seconds apart: compared at reference machine speed.
    untraced_busy = sum(op.norm_s for op in untraced)
    values = {
        "plan_cache_hit_rate": ratio("plan_cache.hits", "plan_cache.misses"),
        "stats_cache_hit_rate": ratio("stats_cache.hits", "stats_cache.misses"),
        "udf_memo_hit_rate": ratio("udf.cache_hits", "udf.cache_misses"),
        "tail_p99_ms": percentile(latencies, 99),
        "tail_max_ms": max(latencies, default=0.0),
        "queue_wait_ms_p50": percentile(waits, 50),
        "queue_wait_ms_p90": percentile(waits, 90),
        "append_ms_p50": percentile(appends, 50),
        "append_ms_p90": percentile(appends, 90),
        "residency_map_ms": totals.get("residency.map_seconds_total", 0.0) * 1000.0 / n_ops,
        "trace_overhead_share": (sum(op.norm_s for op in traced) - untraced_busy)
        / untraced_busy,
        **extras,
    }
    for path in ("hit", "miss", "refresh", "restored"):
        values[f"{path}_ms_p50"] = percentile(
            _ms(op.latency_s for op in queries if op.path == path), 50
        )

    result: Dict[str, Optional[float]] = {}
    for name, (_unit, rule) in PER_LAYER.items():
        kind, args = rule[0], rule[1:]
        if kind == "self":
            gone = any(t.startswith(args[0] + ".") for t in missing)
            result[name] = None if gone else layer_ms.get(args[0], 0.0) / n_ops
        elif kind in ("incl", "calls", "run_incl", "run_calls"):
            if any(arg in missing or arg not in target_names for arg in args):
                result[name] = None
                continue
            per_op = kind in ("incl", "calls")
            chosen = index.outermost(args, op_ids if per_op else None)
            if kind.endswith("incl"):
                total = sum(s.end - s.start for s in chosen) / 1e6
            else:
                total = float(len(chosen))
            result[name] = total / n_ops if per_op else total
        elif kind == "per_op":
            result[name] = totals.get(args[0], 0.0) / n_ops
        else:
            result[name] = values[args[0]]
    return result
