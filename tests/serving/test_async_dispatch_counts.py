"""Work-count gate for the async hand-off: pool tasks and loop wake-ups per tick.

``submit_async`` is fast when the event loop is woken once per *tick* of live
hits and slow when it is woken once per *result* (the loop thread then
contends for the interpreter lock in the middle of the other requests' NumPy
calls).  A stopwatch cannot pin that in tier-1; two counts can: how often the
front-end pool's ``submit`` is called and how often the loop's
``call_soon_threadsafe`` is.  k same-tick live hits cost one of each, a cold
request beside them one more of each, k requests in k ticks k of each — and a
landing per result, re-injected, trips the gate.
"""

import asyncio

import numpy as np
import pytest

import repro.serving.service as service_module
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService, ServiceConfig


def _service():
    rng = np.random.default_rng(23)
    table = Table.from_columns(
        "counts",
        {
            "A": [f"a{int(v)}" for v in rng.integers(0, 4, 400)],
            "f": [bool(v) for v in rng.random(400) < 0.4],
        },
        hidden_columns=["f"],
    )
    catalog = Catalog()
    catalog.register_table(table)
    udf = UserDefinedFunction.from_label_column("counts_label", "f")
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog), config=ServiceConfig(max_concurrency=2))
    return service, udf


def _query(udf, alpha=0.7, beta=0.7):
    return SelectQuery(
        table="counts",
        predicate=UdfPredicate(udf),
        alpha=alpha,
        beta=beta,
        rho=0.8,
        correlated_column="A",
    )


def _hand_offs(service, requests):
    """Run ``requests(service)`` on a fresh loop; ``(pool tasks, landings, results)``."""
    counts = {"pool": 0, "landings": 0}

    async def counted():
        loop, pool = asyncio.get_running_loop(), service._frontend_pool()
        pool_submit, wake = pool.submit, loop.call_soon_threadsafe

        def submit(*args, **kwargs):
            counts["pool"] += 1
            return pool_submit(*args, **kwargs)

        def call_soon_threadsafe(*args, **kwargs):
            counts["landings"] += 1
            return wake(*args, **kwargs)

        pool.submit, loop.call_soon_threadsafe = submit, call_soon_threadsafe
        try:
            return await requests(service)
        finally:
            del pool.submit, loop.call_soon_threadsafe

    results = asyncio.run(counted())
    return counts["pool"], counts["landings"], results


@pytest.fixture
def warm():
    service, udf = _service()
    hit = _query(udf)
    service.submit(hit, seed=0)
    yield service, hit, _query(udf, alpha=0.8, beta=0.6)  # the second one never planned
    service.close()


def _tick_of(query, seeds):
    async def requests(service):
        return await asyncio.gather(*[service.submit_async(query, seed=s) for s in seeds])

    return requests


def test_k_same_tick_live_hits_cost_one_pool_task_and_one_landing(warm):
    service, hit, _cold = warm
    for k in (1, 2, 6):
        pool, landings, results = _hand_offs(service, _tick_of(hit, range(1, k + 1)))
        assert (pool, landings) == (1, 1), k
        assert [r.metadata["plan_cache"] for r in results] == ["hit"] * k
    frontend = service.stats().frontend
    assert (frontend["ticks"], frontend["tick_requests"]) == (3, 9)


def test_a_cold_request_beside_them_costs_one_more_of_each(warm):
    service, hit, cold = warm

    async def requests(service):
        return await asyncio.gather(
            service.submit_async(hit, seed=1),
            service.submit_async(cold, seed=2),
            service.submit_async(hit, seed=3),
            service.submit_async(hit, seed=4),
        )

    pool, landings, results = _hand_offs(service, requests)
    assert (pool, landings) == (2, 2)
    assert [r.metadata["plan_cache"] for r in results] == ["hit", "miss", "hit", "hit"]
    frontend = service.stats().frontend
    assert (frontend["ticks"], frontend["tick_requests"]) == (1, 3)


def test_k_requests_in_k_ticks_cost_k_of_each(warm):
    service, hit, _cold = warm

    async def requests(service):
        return [await service.submit_async(hit, seed=seed) for seed in range(1, 5)]

    pool, landings, _results = _hand_offs(service, requests)
    assert (pool, landings) == (4, 4)
    frontend = service.stats().frontend
    assert (frontend["ticks"], frontend["tick_requests"]) == (4, 4)


def test_mutation_a_landing_per_result_trips_the_gate(warm, monkeypatch):
    """The sized-and-rejected design (one task, but every result woken
    separately) is what the counts exist to keep out."""
    service, hit, _cold = warm

    def land_each(loop, callback, outcomes):
        for outcome in outcomes:
            loop.call_soon_threadsafe(callback, [outcome])

    monkeypatch.setattr(service_module, "_call_on_loop", land_each)
    pool, landings, results = _hand_offs(service, _tick_of(hit, (1, 2, 3)))
    assert len(results) == 3  # still correct, only slower
    assert (pool, landings) == (1, 3)  # what the (1, 1) gates above would refuse
