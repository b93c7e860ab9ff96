"""An allocation gate for the warm path: a hit builds no per-row python object.

A stopwatch cannot guard "someone re-added a per-row loop" in tier-1 — the
loop costs a fraction of a millisecond and the suite runs on shared
machines.  A count can: the live allocations a call made
(``blocks_allocated_by``, a ``tracemalloc`` count) repeat exactly, and an
answer handed over as the array the coin pass concatenated allocates a few
dozen blocks (per-group chunks, the result objects, metadata) however many
rows it holds, where one python int per returned row allocated one block per
row (8 224–12 971 blocks for answers of 8 325–13 134 rows before the change,
12–59 after).

The same count guards the refresh path: what a refresh after an append
builds and keeps is per group (index arrays, model, plan) plus a few evidence
arrays, not one python object per paid-for row.

A second kind of count guards the update path's table-sized passes: one
{append, two refreshes, three hits} cycle builds no frame, and neither
regroups the evidence nor excludes it from the groups' rows by membership.
A third guards the executor kernel: under serving accounting a warm hit and
a churn cycle read the UDF's memo once per bulk evaluation, not once to
price it and again to evaluate.
"""

import numpy as np
import pytest

from repro.db.udf import UserDefinedFunction
from repro.sampling import sampler as sampler_module
from repro.sampling.sampler import Evidence, GroupSampler, SampleOutcome
from repro.serving.signature import plan_signature

#: Far above what a hit allocates (tens), far below one block per row (8k+).
MAX_BLOCKS_PER_HIT = 500


def test_a_warm_hit_allocates_per_group_not_per_row(warm_hits_service, blocks_allocated_by):
    service, queries = warm_hits_service
    for position in range(5):
        query = queries[position % len(queries)]
        service.submit(query, seed=50 + position)  # this seed's first-touch state
        grown, result = blocks_allocated_by(
            lambda: service.submit(query, seed=50 + position)
        )
        assert result.metadata["plan_cache"] == "hit"
        assert 8_000 <= result.row_ids.size <= 14_000  # an answer worth counting
        assert grown < MAX_BLOCKS_PER_HIT, (grown, result.row_ids.size)


def test_the_gate_sees_a_per_row_loop(warm_hits_service, blocks_allocated_by):
    """Mutation check: materialising the answer is what the gate would catch."""
    service, queries = warm_hits_service
    grown, ids = blocks_allocated_by(
        lambda: service.submit(queries[0], seed=60).row_ids.tolist()
    )
    assert grown > len(ids) // 2 > MAX_BLOCKS_PER_HIT


# -- the refresh path ----------------------------------------------------------------
#: What survives a refresh is per group (the grown index's row arrays, the
#: model, the plan) plus a handful of evidence arrays: 333–343 blocks at eight
#: groups and ~3 500 evidence rows, where one python int per evidence row is
#: thousands.  (It counts what is still alive afterwards, so it sees evidence
#: re-materialised as python objects, not a temporary that was freed again.)
MAX_BLOCKS_PER_REFRESH = 1_000


@pytest.fixture(scope="module")
def churned_service(warm_service):
    """A 60k-row warmed service that has already refreshed once after an append."""
    service, queries = warm_service(60_000, "refreshgate")
    table = service.catalog.table("refreshgate")
    rng = np.random.default_rng(77)

    def append_1000():
        table.append_columns(
            {
                "grade": [f"g{code}" for code in rng.integers(0, 8, 1_000)],
                "is_good": (rng.random(1_000) < 0.5).tolist(),
            }
        )

    def evidence(query):
        signature = plan_signature(query, service._cost_model(), service._strategy_prototype)
        return dict(service.plan_cache._cache.items())[signature].sample_outcome

    append_1000()
    for query in queries:  # first-touch state of the refresh path
        assert service.submit(query, seed=70).metadata["plan_cache"] == "refresh"
    yield service, queries, append_1000, evidence
    service.close()


def test_a_refresh_allocates_per_group_not_per_evidence_row(churned_service, blocks_allocated_by):
    service, queries, append_1000, evidence = churned_service
    append_1000()
    for position, query in enumerate(queries[:2]):
        before = evidence(query)  # held, so freeing it cannot hide what the refresh built
        grown, result = blocks_allocated_by(lambda: service.submit(query, seed=80 + position))
        assert result.metadata["plan_cache"] == "refresh"
        after = evidence(query)
        assert after is not before and after.size >= before.size > 3_000
        assert grown < MAX_BLOCKS_PER_REFRESH, (grown, after.size)


def test_the_refresh_gate_sees_a_per_row_evidence_container(churned_service, blocks_allocated_by):
    """Mutation check: evidence as python ints is what the gate would catch."""
    service, queries, append_1000, evidence = churned_service
    append_1000()

    def refresh_then_materialise():
        result = service.submit(queries[2], seed=90)
        return result, evidence(queries[2]).row_ids.tolist()

    grown, (result, ids) = blocks_allocated_by(refresh_then_materialise)
    assert result.metadata["plan_cache"] == "refresh"
    assert grown > len(ids) // 2 > MAX_BLOCKS_PER_REFRESH


# -- the update path's exclusion work ------------------------------------------------
def _exclusion_work(monkeypatch):
    """Count frame builds, ``by_group`` regroupings and ``drop_members`` calls
    from here on — the passes of the update path that can be table-sized."""
    work = {"build_candidate_frame": 0, "by_group": 0, "drop_members": 0}

    def counted(name, call):
        def counting(*args):
            work[name] += 1
            return call(*args)

        return counting

    for owner, name in ((sampler_module, "build_candidate_frame"), (Evidence, "by_group"),
                        (sampler_module, "drop_members")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return work


def _churn_cycle(service, append, first, second, seed):
    """{append, refresh ``first``, refresh ``second``, 3 hits}: the benchmark's cycle."""
    append()
    paths = [
        service.submit(query, seed=seed + position).metadata["plan_cache"]
        for position, query in enumerate((first, second, first, second, first))
    ]
    assert paths == ["refresh", "refresh", "hit", "hit", "hit"]


def test_a_churn_cycle_excludes_only_the_fresh_rows(churned_service, monkeypatch):
    """A work count, not a stopwatch: a cycle builds, regroups and excludes
    nothing by membership.  The append hands each frame to the extended
    index, which grows it by the appended rows; the refresh that draws
    returns its merged evidence with the frame filed, dropping the drawn rows
    from its candidates by position; the other refresh draws nothing and
    keeps its evidence and frame.  So no regrouping and no membership drop
    is left: the drawn positions are at hand, and nothing else moved."""
    service, queries, append_1000, evidence = churned_service
    work = _exclusion_work(monkeypatch)
    modest, greedy = queries[0], queries[1]  # alpha 0.8 allocates less than 0.9
    for first, second in ((modest, greedy), (greedy, modest)):
        grown = evidence(greedy)
        work.update(dict.fromkeys(work, 0))
        _churn_cycle(service, append_1000, first, second, seed=300)
        assert set(work.values()) == {0}, work
        assert evidence(greedy) is not grown  # the greedy refresh drew
    # The greedy refresh drew every row the modest one asks for, so the modest
    # refresh added nothing — and kept the evidence, and with it the frame.
    assert evidence(modest) is evidence(greedy)


def test_the_work_gate_sees_a_draw_of_nothing_that_allocates(churned_service, monkeypatch):
    """Mutation check: a draw of nothing that returns a copy of the earlier
    evidence has no frame filed under it, and the cycle pays for a build."""
    service, queries, append_1000, evidence = churned_service
    sample = GroupSampler.sample

    def copying(self, *args, **kwargs):
        outcome = sample(self, *args, **kwargs)
        if outcome is kwargs["already_sampled"]:
            return SampleOutcome(outcome.row_ids, outcome.flags)
        return outcome

    monkeypatch.setattr(GroupSampler, "sample", copying)
    work = _exclusion_work(monkeypatch)
    _churn_cycle(service, append_1000, queries[1], queries[0], seed=400)
    assert work["build_candidate_frame"] == 1 and work["by_group"] == 1, work
    assert evidence(queries[0]) is not evidence(queries[1])


# -- the executor kernel's memo reads ------------------------------------------------
def _memo_reads(monkeypatch):
    """Count the UDF memo's bulk reads (the one gather of per-row states)
    from here on."""
    reads = {"count": 0}
    gather = UserDefinedFunction._memo_states

    def counted(self, ids):
        reads["count"] += 1
        return gather(self, ids)

    monkeypatch.setattr(UserDefinedFunction, "_memo_states", counted)
    return reads


def _reads_and_bulk_calls(service, query, monkeypatch, action):
    """``(memo reads, bulk evaluations)`` of ``action()`` under serving
    accounting (``free_memoized``: the path that used to price a batch with a
    memo read of its own before evaluating it)."""
    monkeypatch.setattr(service, "free_memoized", True)
    udf = query.predicate.udf
    reads = _memo_reads(monkeypatch)
    bulk_before = udf.bulk_calls
    action()
    return reads["count"], udf.bulk_calls - bulk_before


def _hit(service, query, seed):
    def submit():
        assert service.submit(query, seed=seed).metadata["plan_cache"] == "hit"

    return submit


def test_a_serving_hit_and_churn_cycle_read_the_memo_once_per_evaluated_group(
    warm_hits_service, churned_service, monkeypatch
):
    """A work count: every bulk evaluation (an executor group with picked
    rows, a sampler or top-up batch) reads the memo once, and the executor
    charges from that read.  (Before: twice per executor group.)"""
    service, queries = warm_hits_service
    reads, bulk = _reads_and_bulk_calls(
        service, queries[0], monkeypatch, _hit(service, queries[0], seed=500)
    )
    assert 1 <= bulk <= 8 and reads == bulk, (reads, bulk)

    service, queries, append_1000, _evidence = churned_service
    reads, bulk = _reads_and_bulk_calls(
        service,
        queries[0],
        monkeypatch,
        lambda: _churn_cycle(service, append_1000, queries[0], queries[1], seed=510),
    )
    assert bulk >= 8 and reads == bulk, (reads, bulk)


def test_the_memo_read_gate_sees_a_second_read(warm_hits_service, monkeypatch):
    """Mutation check: pricing a batch with a memo read of its own before
    evaluating it — the shape of the deleted ``evaluation_charge`` — is what
    the gate would catch."""
    service, queries = warm_hits_service
    evaluate = UserDefinedFunction.evaluate_rows

    def priced_twice(self, table, row_ids, mask=None, ledger=None, free_memoized=False):
        if ledger is not None and free_memoized:
            self._memo_states(np.asarray(row_ids, dtype=np.intp))
        return evaluate(self, table, row_ids, mask, ledger, free_memoized)

    monkeypatch.setattr(UserDefinedFunction, "evaluate_rows", priced_twice)
    reads, bulk = _reads_and_bulk_calls(
        service, queries[1], monkeypatch, _hit(service, queries[1], seed=520)
    )
    assert bulk >= 1 and reads == 2 * bulk, (reads, bulk)
