"""Property tests: sharded structures are *exactly* their unsharded equivalents.

Three pins, each across random tables and random shard layouts (including the
1-shard and one-row-per-shard edge cases):

* :class:`~repro.db.index.MergedGroupIndex` equals the monolithic
  :class:`~repro.db.index.GroupIndex` — values order, codes, per-group row-id
  arrays, label counts;
* per-shard :class:`~repro.sampling.sampler.SampleOutcome` objects merged via
  ``merge_shards`` equal the whole-table outcome built from the same labelled
  rows;
* the :class:`~repro.core.groups.SelectivityModel` built from that merged
  evidence over the sharded table's index equals the unsharded model — same
  keys, sizes, counts, and bit-equal selectivity/variance estimates.  (The
  system never builds a model per shard; ``SelectivityModel.merge_shards``,
  which this test alone exercised, went in 1.11.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.column_selection import LabeledSample
from repro.core.groups import SelectivityModel
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.sampling.sampler import SampleOutcome


@st.composite
def table_and_layout(draw):
    """A random categorical table plus a random contiguous shard layout."""
    n = draw(st.integers(min_value=1, max_value=40))
    values = draw(
        st.lists(
            st.sampled_from(["a", "b", "c", "d", 1, 2, True]),
            min_size=n,
            max_size=n,
        )
    )
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # Random cut points; always includes the 1-shard (no cuts) and the
    # n-shards (every point cut) cases in the search space.
    cuts = draw(st.sets(st.integers(min_value=1, max_value=max(1, n - 1))))
    bounds = (0, *sorted(c for c in cuts if c < n), n)
    return values, labels, bounds


def _build(values, labels, bounds):
    columns = {"A": values, "f": labels}
    plain = Table.from_columns("prop", columns, hidden_columns=["f"])
    shards = [
        Table(
            name=f"prop#shard{i}",
            schema=plain.schema,
            columns={"A": values[start:stop], "f": labels[start:stop]},
        )
        for i, (start, stop) in enumerate(zip(bounds, bounds[1:]))
    ]
    sharded = ShardedTable(name="prop", schema=plain.schema, shards=shards)
    return plain, sharded


@settings(max_examples=120, deadline=None)
@given(table_and_layout())
def test_merged_index_equals_unsharded(data):
    values, labels, bounds = data
    plain, sharded = _build(values, labels, bounds)
    reference = plain.group_index("A")
    merged = sharded.group_index("A")

    assert merged.values == reference.values
    assert np.array_equal(merged.codes, reference.codes)
    assert merged.group_sizes() == reference.group_sizes()
    for value in reference.values:
        assert np.array_equal(merged.row_ids(value), reference.row_ids(value))

    ids = list(range(0, len(values), 2))
    flags = [bool(i % 3) for i in ids]
    ref_totals, ref_positives = reference.label_counts(ids, flags)
    got_totals, got_positives = merged.label_counts(ids, flags)
    assert np.array_equal(ref_totals, got_totals)
    assert np.array_equal(ref_positives, got_positives)


def _per_shard_outcomes(sharded, labeled):
    """One ``(shard-local, global row-id space)`` SampleOutcome pair per shard."""
    outcomes = []
    for shard, (start, stop) in zip(sharded.shards, sharded.shard_spans()):
        inside = (labeled.row_ids >= start) & (labeled.row_ids < stop)
        local = LabeledSample(
            labeled.row_ids[inside] - start, labeled.flags[inside]
        ).to_sample_outcome(shard.group_index("A"))
        outcomes.append((local, SampleOutcome(local.row_ids + start, local.flags)))
    return outcomes


def _assert_same_evidence_per_group(index, got, expected):
    """Same rows and answers group by group, in the same (draw) order."""
    for got_part, expected_part in zip(got.by_group(index), expected.by_group(index)):
        assert got_part.tolist() == expected_part.tolist()


@settings(max_examples=120, deadline=None)
@given(table_and_layout())
def test_shard_merged_outcome_and_model_equal_unsharded(data):
    values, labels, bounds = data
    plain, sharded = _build(values, labels, bounds)
    reference_index = plain.group_index("A")

    # label every third row — the shared evidence both paths must agree on
    ids = list(range(0, len(values), 3))
    labeled = LabeledSample(ids, [labels[row_id] for row_id in ids])
    whole = labeled.to_sample_outcome(reference_index)
    per_shard = _per_shard_outcomes(sharded, labeled)
    merged = SampleOutcome.merge_shards([shifted for _local, shifted in per_shard])
    assert merged == whole  # ascending labelled ids: shard order is draw order
    _assert_same_evidence_per_group(reference_index, merged, whole)

    reference_model = SelectivityModel.from_sample_outcome(reference_index, whole)
    merged_model = SelectivityModel.from_sample_outcome(sharded.group_index("A"), merged)

    assert merged_model.keys == reference_model.keys
    for key in reference_model.keys:
        expected = reference_model.group(key)
        got = merged_model.group(key)
        assert got.size == expected.size
        assert got.sampled == expected.sampled
        assert got.sampled_positives == expected.sampled_positives
        # bit-equal estimates: both are the Beta posterior of the same counts
        assert got.selectivity == expected.selectivity
        assert got.variance == expected.variance
