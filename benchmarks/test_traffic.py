"""Traffic point: the asyncio front-end under >=1000 concurrent clients.

Simulates a production-shaped open load against one warm
:class:`~repro.serving.QueryService`: ``TRAFFIC_CLIENTS`` concurrent
``submit_async`` requests drawing from ``len(SIGNATURES)`` query signatures
with a zipfian popularity mix (rank-``ZIPF_S`` weights — a few hot
signatures, a long tail), per-request fixed seeds, over a sharded ~80k-row
table.

Work is deterministic by construction: the service runs with
``free_memoized=False`` so every warm execution charges the full
plan-determined work — a pure function of (plan, seed), independent of
request interleaving — and all signatures are warmed sequentially first, so
the async phase is pure warm-path traffic.  ``BENCH_traffic.json`` commits
those work counters plus a **shedding audit**: a dedicated overload phase
blocks the service with a gated UDF, fires a fixed burst over the admission
limit, and records that every over-limit request raised a typed
:class:`~repro.serving.Overloaded` *and* was counted on the ``shed`` metric
(``shed.accounting_delta`` is the raise-vs-count difference, committed as 0
and gated at exactly ±0 — shedding is never silent).  A **deadline audit**
(PR 8) does the same for per-request deadlines: a burst of requests parked
behind a gated flight leader, each carrying a short ``timeout_s``, must all
raise the typed :class:`~repro.resilience.DeadlineExceeded` — never hang,
never silently complete — and every raise must be counted on the
``deadline_exceeded`` metric (``deadline.accounting_delta`` committed as 0,
gated at exactly ±0).  Queries/sec and p50/p99 latency come from the
always-on serving histograms and are reported as informational keys only
(wall-clock never gates).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
from conftest import run_once, write_result

from repro.db import Catalog, Engine, ShardedTable, UserDefinedFunction
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.resilience import DeadlineExceeded
from repro.serving import Overloaded, QueryService, ServiceConfig


TRAFFIC_ROWS = 80_000
TRAFFIC_SHARDS = 4
TRAFFIC_CLIENTS = 1200
ZIPF_S = 1.1
#: (alpha, beta) per signature; rho fixed at 0.8.
SIGNATURES = (
    (0.90, 0.85),
    (0.92, 0.80),
    (0.88, 0.90),
    (0.85, 0.85),
    (0.93, 0.75),
    (0.87, 0.80),
)

#: Overload phase: burst size and per-class admission limit.
SHED_BURST = 32
SHED_LIMIT = 5

#: Deadline phase: parked-follower burst size and per-request timeout.
DEADLINE_BURST = 8
DEADLINE_TIMEOUT_S = 0.2

GROUP_FRACTIONS = (0.30, 0.22, 0.18, 0.12, 0.10, 0.08)
GROUP_SELECTIVITIES = (0.60, 0.30, 0.80, 0.20, 0.50, 0.85)


def _build_table(rows: int, name: str, seed: int = 2015):
    rng = np.random.default_rng(seed)
    sizes = [int(round(fraction * rows)) for fraction in GROUP_FRACTIONS]
    sizes[0] += rows - sum(sizes)
    codes = np.repeat(np.arange(len(sizes)), sizes)
    labels = np.zeros(rows, dtype=bool)
    start = 0
    for size, selectivity in zip(sizes, GROUP_SELECTIVITIES):
        labels[start : start + int(round(size * selectivity))] = True
        start += size
    order = rng.permutation(rows)
    codes, labels = codes[order], labels[order]
    names = np.array([f"g{i}" for i in range(len(sizes))])
    return ShardedTable.from_columns(
        name,
        {
            "grade": names[codes].tolist(),
            "is_good": labels.tolist(),
        },
        hidden_columns=["is_good"],
        num_shards=TRAFFIC_SHARDS,
    )


def _query(table_name: str, udf, alpha: float, beta: float) -> SelectQuery:
    return SelectQuery(
        table=table_name,
        predicate=UdfPredicate(udf),
        alpha=alpha,
        beta=beta,
        rho=0.8,
        correlated_column="grade",
    )


def _zipf_requests():
    """The deterministic (signature_rank, seed) sequence of the load phase."""
    weights = 1.0 / np.power(np.arange(1, len(SIGNATURES) + 1, dtype=float), ZIPF_S)
    weights /= weights.sum()
    rng = np.random.default_rng(777)
    ranks = rng.choice(len(SIGNATURES), size=TRAFFIC_CLIENTS, p=weights)
    return [(int(rank), 10_000 + position) for position, rank in enumerate(ranks)]


def _load_phase():
    table = _build_table(TRAFFIC_ROWS, "traffic_bench")
    udf = UserDefinedFunction.from_label_column("traffic_udf", "is_good")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog),
        config=ServiceConfig(
            # Deterministic charged work per (plan, seed): never memo-discount.
            free_memoized=False,
            max_concurrency=8,
            # The throughput phase wants the full client herd admitted;
            # admission economics are audited separately in the shed phase.
            max_pending=2 * TRAFFIC_CLIENTS,
        ),
    )
    queries = [
        _query("traffic_bench", udf, alpha, beta) for alpha, beta in SIGNATURES
    ]
    # Sequential warm-up: all planning/sampling happens here, so the timed
    # phase is pure warm traffic and its counters are interleaving-free.
    for position, query in enumerate(queries):
        service.submit(query, seed=5_000 + position)
    requests = _zipf_requests()

    async def herd():
        return await asyncio.gather(
            *[
                service.submit_async(queries[rank], seed=seed)
                for rank, seed in requests
            ]
        )

    started = time.perf_counter()
    results = asyncio.run(herd())
    elapsed = time.perf_counter() - started

    evaluations = sum(int(r.ledger.evaluated_count) for r in results)
    retrievals = sum(int(r.ledger.retrieved_count) for r in results)
    metrics = service.stats().serving
    latency = service.stats().latency_ms.get("all", {})
    return {
        "work": {
            "queries": int(metrics["queries"]),
            "plan_hits": int(metrics["plan_hits"]),
            "solver_calls": int(metrics["solver_calls"]),
            "coalesced": int(metrics["coalesced"]),
            "shed": int(metrics["shed"]),
            "udf_evaluations": evaluations,
            "retrievals": retrievals,
        },
        "latency": {
            "qps": round(TRAFFIC_CLIENTS / elapsed, 2),
            "p50_ms": latency.get("p50_ms"),
            "p99_ms": latency.get("p99_ms"),
        },
    }


def _shed_phase():
    table = _build_table(2_000, "shed_bench", seed=7)
    gate = threading.Event()

    def gated(row):
        gate.wait(timeout=60)
        return bool(row["is_good"])

    udf = UserDefinedFunction("shed_udf", gated)
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog),
        config=ServiceConfig(
            max_concurrency=1, class_limits={"approximate": SHED_LIMIT}
        ),
    )
    query = _query("shed_bench", udf, 0.85, 0.85)

    async def overload():
        leader = asyncio.create_task(service.submit_async(query, seed=1))
        try:
            while not service._flights:
                await asyncio.sleep(0.005)
            burst_tasks = [
                asyncio.create_task(service.submit_async(query, seed=1))
                for _ in range(SHED_BURST)
            ]
            # One yield lets every burst task run its (synchronous) admission
            # segment in creation order: over-limit tasks finish shed,
            # in-limit ones park on the leader's flight.  Only then release
            # the leader — gathering first would deadlock on the coalesced
            # followers.
            await asyncio.sleep(0)
        finally:
            gate.set()
        burst = await asyncio.gather(*burst_tasks, return_exceptions=True)
        await leader
        return burst

    burst = asyncio.run(overload())
    raised = sum(1 for item in burst if isinstance(item, Overloaded))
    completed = sum(1 for item in burst if not isinstance(item, BaseException))
    silent = len(burst) - raised - completed  # anything neither answered nor typed
    counted = int(service.stats().serving["shed"])
    return {
        "fired": SHED_BURST,
        "limit": SHED_LIMIT,
        "shed_count": raised,
        "completed": completed + 1,  # + the leader
        "silent_drops": silent,
        # raised-vs-counted difference: committed 0, gated at exactly +-0.
        "accounting_delta": raised - counted,
    }


def _deadline_phase():
    """Requests parked past their deadline: typed, counted, never hung.

    A gated leader holds the coalescing flight for a cold signature while a
    burst of short-``timeout_s`` followers parks behind it.  Every follower
    must surface :class:`DeadlineExceeded` (the typed error — a silent
    completion or a hang would be a resilience regression), and every raise
    must land on the ``deadline_exceeded`` counter.
    """
    table = _build_table(2_000, "deadline_bench", seed=9)
    gate = threading.Event()

    def gated(row):
        gate.wait(timeout=60)
        return bool(row["is_good"])

    udf = UserDefinedFunction("deadline_udf", gated)
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog), config=ServiceConfig(max_concurrency=1)
    )
    query = _query("deadline_bench", udf, 0.85, 0.85)

    async def parked():
        leader = asyncio.create_task(service.submit_async(query, seed=1))
        try:
            while not service._flights:
                await asyncio.sleep(0.005)
            burst_tasks = [
                asyncio.create_task(
                    service.submit_async(query, seed=1, timeout_s=DEADLINE_TIMEOUT_S)
                )
                for _ in range(DEADLINE_BURST)
            ]
            # The followers' deadlines all fire while the leader stays gated;
            # gather settles them before the leader is released.
            burst = await asyncio.gather(*burst_tasks, return_exceptions=True)
        finally:
            gate.set()
        await leader
        return burst

    burst = asyncio.run(parked())
    raised = sum(1 for item in burst if isinstance(item, DeadlineExceeded))
    unexpected = len(burst) - raised  # hung, answered, or wrongly-typed
    counted = int(service.stats().serving["deadline_exceeded"])
    return {
        "fired": DEADLINE_BURST,
        "timeout_s": DEADLINE_TIMEOUT_S,
        "exceeded_count": raised,
        "unexpected": unexpected,
        # raised-vs-counted difference: committed 0, gated at exactly +-0.
        "accounting_delta": raised - counted,
    }


def _traffic_point():
    load = _load_phase()
    shed = _shed_phase()
    deadline = _deadline_phase()
    return {
        "rows": TRAFFIC_ROWS,
        "shards": TRAFFIC_SHARDS,
        "clients": TRAFFIC_CLIENTS,
        "signatures": len(SIGNATURES),
        "zipf_s": ZIPF_S,
        "executor": "serial",
        **load,
        "shed": shed,
        "deadline": deadline,
    }


def test_traffic_async_frontend(benchmark):
    payload = run_once(benchmark, _traffic_point)

    work, shed, latency = payload["work"], payload["shed"], payload["latency"]
    deadline = payload["deadline"]
    print(
        f"\nTraffic point — {payload['clients']} clients over "
        f"{payload['signatures']} signatures (zipf s={payload['zipf_s']}), "
        f"{payload['rows']} rows"
    )
    print(
        f"  {latency['qps']} q/s, p50 {latency['p50_ms']} ms, "
        f"p99 {latency['p99_ms']} ms (informational)"
    )
    print(
        f"  work: {work['queries']} queries, {work['plan_hits']} plan hits, "
        f"{work['solver_calls']} solver calls, "
        f"{work['udf_evaluations']} UDF evaluations"
    )
    print(
        f"  shed: {shed['shed_count']}/{shed['fired']} over limit "
        f"{shed['limit']}, accounting delta {shed['accounting_delta']}"
    )
    print(
        f"  deadline: {deadline['exceeded_count']}/{deadline['fired']} typed "
        f"at {deadline['timeout_s']}s, accounting delta "
        f"{deadline['accounting_delta']}"
    )
    write_result("BENCH_traffic.json", json.dumps(payload, indent=2) + "\n")

    # The whole herd was answered: every client a warm plan hit, none shed.
    assert work["queries"] == TRAFFIC_CLIENTS + len(SIGNATURES)
    assert work["plan_hits"] == TRAFFIC_CLIENTS
    assert work["shed"] == 0
    # Shedding is typed and counted, never silent.
    assert shed["silent_drops"] == 0
    assert shed["accounting_delta"] == 0
    assert shed["shed_count"] == SHED_BURST - (SHED_LIMIT - 1)
    assert shed["completed"] == SHED_LIMIT
    # Deadlines are typed and counted, never silent, never a hang.
    assert deadline["exceeded_count"] == DEADLINE_BURST
    assert deadline["unexpected"] == 0
    assert deadline["accounting_delta"] == 0
