"""The frame :meth:`GroupSampler.sample` files equals :func:`build_candidate_frame`
of what it returned, array for array (dtype, read-only, free positives in order),
over plain and sharded tables, with or without earlier evidence (stray ids too);
an undrawn group keeps its array object, and a draw of nothing (an all-zero or
unsatisfiable allocation) returns the earlier evidence itself."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.sampling.sampler import GroupSampler, SampleOutcome, build_candidate_frame, candidate_frame


@st.composite
def draws(draw):
    size = draw(st.integers(min_value=1, max_value=40))
    cells = st.tuples(st.sampled_from("abcd"), st.booleans())
    keys, labels = zip(*draw(st.lists(cells, min_size=size, max_size=size)))
    columns = {"A": list(keys), "f": list(labels)}
    shards = draw(st.sampled_from([0, 1, 3]))
    table = (
        ShardedTable.from_columns("filed", columns, hidden_columns=["f"], num_shards=shards)
        if shards
        else Table.from_columns("filed", columns, hidden_columns=["f"])
    )
    paid = st.tuples(st.integers(min_value=-2, max_value=size + 2), st.booleans())
    everything = st.just(list(enumerate(labels)))  # any positive count is unsatisfiable
    pairs = draw(st.none() | everything | st.lists(paid, unique_by=lambda p: p[0], max_size=size + 4))
    prior = None if pairs is None else SampleOutcome([i for i, _ in pairs], [f for _, f in pairs])
    counts = st.integers(min_value=-1, max_value=size)
    allocation = draw(st.dictionaries(st.sampled_from("abcde"), counts, max_size=5))
    return table, prior, allocation, draw(st.integers(min_value=0, max_value=2**16))


@settings(max_examples=200, deadline=None)
@given(draws())
def test_the_filed_frame_is_a_from_scratch_build(case):
    table, prior, allocation, seed = case
    index = table.group_index("A")
    udf = UserDefinedFunction.from_label_column("filed_udf", "f")
    before = [rows for _, rows in index.items()]
    if prior is not None:
        before = candidate_frame(index, prior).candidates  # the frame drawn from
    wanted = sum(min(max(allocation.get(key, 0), 0), rows.size) for key, rows in zip(index, before))
    outcome = GroupSampler(seed).sample(
        table, index, udf, allocation, CostLedger(), already_sampled=prior
    )
    if not wanted:
        assert outcome is prior if prior is not None else outcome == SampleOutcome()
        return
    paid = SampleOutcome() if prior is None else prior
    assert outcome.size == paid.size + wanted
    assert outcome.row_ids[: paid.size].tolist() == paid.row_ids.tolist()
    _source, filed, step = index._derived[id(outcome)]
    assert step is None and candidate_frame(index, outcome) is filed
    expected = build_candidate_frame(index, outcome)
    for got, want in zip(
        (*filed.candidates, filed.free_positives),
        (*expected.candidates, expected.free_positives),
        strict=True,
    ):
        assert got.dtype == want.dtype and not got.flags.writeable
        assert got.tolist() == want.tolist()
    reached = set(index.codes_for_rows(outcome.row_ids[paid.size :]).tolist())
    for code, rows in enumerate(filed.candidates):
        assert code in reached or rows is before[code]
