"""An allocation gate for the warm path: a hit builds no per-row python object.

A stopwatch cannot guard "someone re-added a per-row loop" in tier-1 — the
loop costs a fraction of a millisecond and the suite runs on shared
machines.  A count can: ``sys.getallocatedblocks()`` is deterministic, and an
answer handed over as the array the coin pass concatenated allocates a few
dozen blocks (per-group chunks, the result objects, metadata) however many
rows it holds, where one python int per returned row allocated one block per
row (8 224–12 971 blocks for answers of 8 325–13 134 rows before the change,
12–59 after).
"""

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
