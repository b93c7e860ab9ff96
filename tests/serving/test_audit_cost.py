"""``audit=True`` on a warm hit, counted: O(groups) allocations, not O(rows).

Auditing used to build two python sets per request (the returned ids and the
ground truth), tens of thousands of objects for a 20k-row table, which made
an always-on sampled guarantee monitor unaffordable.  The audit is now a
truth-mask gather (:meth:`Engine.audit`), so an audited hit allocates what an
unaudited one does plus a constant — counted by ``blocks_allocated_by``
(the live allocations the measured call itself made, which repeats exactly),
not with a clock — and its ``ResultQuality`` is still the set definition's,
field for field.
"""

import numpy as np

from repro.stats.metrics import result_quality

MAX_BLOCKS_PER_AUDITED_HIT = 500
#: What the audit may add to a hit: the mask arrays, the quality record.
MAX_BLOCKS_FOR_THE_AUDIT = 100


def _blocks(blocks_allocated_by, service, query, seed, audit):
    service.submit(query, seed=seed, audit=audit)  # first-touch state for this seed
    return blocks_allocated_by(lambda: service.submit(query, seed=seed, audit=audit))


def test_audited_hit_allocates_a_constant_more_than_an_unaudited_one(
    warm_hits_service, blocks_allocated_by
):
    service, queries = warm_hits_service
    for position, query in enumerate(queries):
        seed = 70 + position
        plain_blocks, plain = _blocks(blocks_allocated_by, service, query, seed, audit=False)
        audited_blocks, audited = _blocks(blocks_allocated_by, service, query, seed, audit=True)
        assert audited.metadata["plan_cache"] == "hit"
        assert audited.row_ids.size >= 8_000
        assert np.array_equal(audited.row_ids, plain.row_ids)
        assert audited_blocks < MAX_BLOCKS_PER_AUDITED_HIT, audited_blocks
        assert audited_blocks - plain_blocks < MAX_BLOCKS_FOR_THE_AUDIT


def test_audit_allocations_do_not_grow_with_the_table(
    warm_hits_service, warm_service, blocks_allocated_by
):
    service, queries = warm_hits_service
    small_service, small_queries = warm_service(5_000, "warmsmall")
    try:
        large_blocks, large = _blocks(blocks_allocated_by, service, queries[0], 80, audit=True)
        small_blocks, small = _blocks(
            blocks_allocated_by, small_service, small_queries[0], 80, audit=True
        )
    finally:
        small_service.close()
    assert large.row_ids.size > 3 * small.row_ids.size
    assert abs(large_blocks - small_blocks) < MAX_BLOCKS_FOR_THE_AUDIT


def test_audited_quality_is_the_set_definition(warm_hits_service):
    service, queries = warm_hits_service
    for position, query in enumerate(queries):
        result = service.submit(query, seed=90 + position, audit=True)
        truth = service.engine.ground_truth(query)
        assert result.quality == result_quality(set(result.row_ids.tolist()), truth)
        assert result.quality.satisfies(0.0, 0.0)
        assert 0 < result.quality.true_positive_count <= result.quality.returned_count
