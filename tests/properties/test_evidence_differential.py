"""Array evidence against the per-row containers it replaced.

``evidence_oracle.py`` keeps the parent commit's ``GroupSample`` /
``SampleOutcome`` / ``LabeledSample`` (lists and dicts) and the loops that
read them.  Every case below builds the same evidence both ways and demands
the same ids *in the same order*, the same flags and the same per-group
counts — on re-expression (out-of-range ids included), ``merge`` (a new group
arriving on the right), ``merge_shards`` (1 and n shards), the pipeline's
"labelled rows the cached outcome does not hold", the sampler's exclusion
(same draws from the same stream) and the reservoir top-up (one big append ==
many small, growing target, eviction landing on the last slot,
``previous_rows`` 0 and == rows).  Group order is where the two could
differ: the oracle's comes from dict insertion, the array form's from the
index — equal on every path the pipeline takes, which is what lets answers
stay byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evidence_oracle as oracle
from repro.core.column_selection import LabeledSample, top_up_labeled_sample
from repro.core.executor import build_candidate_frame
from repro.core.groups import SelectivityModel
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.sampling.sampler import GroupSampler, SampleOutcome
from repro.stats.random import as_random_state, counter_uniforms, stream_key

KEYS = ("north", "south", "east", "west", "up")


def _table(keys, labels, name="evidence"):
    return Table.from_columns(name, {"A": list(keys), "f": list(labels)}, hidden_columns=["f"])


def _both(ids, flags):
    """The same labelled rows as (array form, oracle form)."""
    return LabeledSample(ids, flags), oracle.LabeledSample(dict(zip(ids, flags)))


def _assert_same_evidence(index, new, old):
    """``new`` (arrays) holds what ``old`` (containers) holds, read against ``index``."""
    ids, flags, bounds = new.by_group(index)
    totals, positives = index.label_counts(new.row_ids, new.flags)
    model = SelectivityModel.from_sample_outcome(index, new)
    for code, key in enumerate(index.values):
        sample = old.samples.get(key, oracle.GroupSample(key))
        group = slice(bounds[code], bounds[code + 1])
        assert ids[group].tolist() == sample.sampled_row_ids
        assert ids[group][flags[group]].tolist() == sample.positive_row_ids
        assert (totals[code], positives[code]) == (sample.sample_size, sample.positives)
        assert model.group(key).sampled == sample.sample_size
        assert model.group(key).sampled_positives == sample.positives
    assert new.total_sampled == len(old.sampled_row_ids())
    # What execution reads: the free positives in order, the open rows per group.
    frame = build_candidate_frame(index, new)
    sampled_ids, free = oracle.sampled_positives(old)
    assert frame.free_positives.tolist() == free
    for (key, rows), kept in zip(index.items(), frame.candidates):
        already = sampled_ids.get(key)
        expected = rows if already is None else rows[~np.isin(rows, already)]
        assert kept.tolist() == expected.tolist()


@st.composite
def labelled_tables(draw, min_rows=1):
    rows = draw(st.integers(min_value=min_rows, max_value=60))
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=rows, max_size=rows))
    labels = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    # Draw order is not row order, and a few ids lie outside the table.
    ids = draw(
        st.lists(st.integers(min_value=-3, max_value=rows + 4), unique=True, max_size=40)
    )
    flags = [labels[row] if 0 <= row < rows else draw(st.booleans()) for row in ids]
    return keys, labels, ids, flags


@settings(max_examples=80, deadline=None)
@given(labelled_tables())
def test_reexpression_keeps_ids_in_order_and_drops_rows_outside_the_index(case):
    keys, labels, ids, flags = case
    index = _table(keys, labels).group_index("A")
    new, old = _both(ids, flags)
    assert new.row_ids.tolist() == list(old.outcomes)
    assert new.flags.tolist() == list(old.outcomes.values())
    outcome = new.to_sample_outcome(index)
    assert outcome.row_ids.tolist() == [row for row in ids if 0 <= row < len(keys)]
    _assert_same_evidence(index, outcome, old.to_sample_outcome(index))


@settings(max_examples=80, deadline=None)
@given(labelled_tables(min_rows=2), st.data())
def test_merge_with_a_new_group_arriving_on_the_right(case, data):
    """A cached outcome over the table's first rows, merged after an append."""
    keys, labels, ids, flags = case
    cut = data.draw(st.integers(min_value=1, max_value=len(keys) - 1))
    table = _table(keys[:cut], labels[:cut])
    old_index = table.group_index("A")
    left_new, left_old = _both(*_split(ids, flags, lambda row: row < cut))
    right_new, right_old = _both(*_split(ids, flags, lambda row: row >= cut))
    cached_new = left_new.to_sample_outcome(old_index)
    cached_old = left_old.to_sample_outcome(old_index)

    table.append_columns({"A": keys[cut:], "f": labels[cut:]})
    index = table.group_index("A")
    merged_new = cached_new.merge(right_new.to_sample_outcome(index))
    merged_old = cached_old.merge(right_old.to_sample_outcome(index))
    assert list(merged_old.samples) == index.values  # dict order == the index's order
    _assert_same_evidence(index, merged_new, merged_old)

    # The pipeline's fold: labelled rows the cached outcome does not hold.
    everything_new, everything_old = _both(ids, flags)
    extra_new = everything_new.excluding(cached_new)
    extra_old = oracle.uncovered(everything_old, cached_old)
    assert extra_new.row_ids.tolist() == list(extra_old.outcomes)
    assert extra_new.flags.tolist() == list(extra_old.outcomes.values())
    _assert_same_evidence(
        index,
        cached_new.merge(extra_new.to_sample_outcome(index)),
        cached_old.merge(extra_old.to_sample_outcome(index)),
    )


def _split(ids, flags, keep):
    kept = [(row, flag) for row, flag in zip(ids, flags) if keep(row)]
    return [row for row, _ in kept], [flag for _, flag in kept]


@pytest.mark.parametrize("shards", [1, 2, 5])
@settings(max_examples=40, deadline=None)
@given(labelled_tables())
def test_merge_shards_equals_the_per_group_extend(shards, case):
    keys, labels, ids, flags = case
    sharded = ShardedTable.from_table(_table(keys, labels), num_shards=shards)
    index = sharded.group_index("A")
    new_parts, old_parts = [], []
    for shard, (start, stop) in zip(sharded.shards, sharded.shard_spans()):
        local_ids, local_flags = _split(ids, flags, lambda row: start <= row < stop)
        new, old = _both([row - start for row in local_ids], local_flags)
        local_index = shard.group_index("A")
        local_new = new.to_sample_outcome(local_index)
        new_parts.append(SampleOutcome(local_new.row_ids + start, local_new.flags))
        local_old = old.to_sample_outcome(local_index)
        for sample in local_old.samples.values():  # back into global row-id space
            sample.sampled_row_ids = [row + start for row in sample.sampled_row_ids]
            sample.positive_row_ids = [row + start for row in sample.positive_row_ids]
        old_parts.append(local_old)
    merged_old = oracle.SampleOutcome.merge_shards(old_parts, key_order=index.values)
    _assert_same_evidence(index, SampleOutcome.merge_shards(new_parts), merged_old)
    assert SampleOutcome.merge_shards([]) == SampleOutcome()


@settings(max_examples=60, deadline=None)
@given(labelled_tables(), st.integers(min_value=0, max_value=2**16), st.data())
def test_sampler_excludes_the_same_rows_and_draws_the_same(case, seed, data):
    keys, labels, ids, flags = case
    table = _table(keys, labels)
    index = table.group_index("A")
    new, old = _both(ids, flags)
    paid_new, paid_old = new.to_sample_outcome(index), old.to_sample_outcome(index)
    allocation = {
        key: data.draw(st.integers(min_value=-1, max_value=12), label=f"allocation[{key}]")
        for key in index.values
    }

    rng = as_random_state(seed)
    expected = []
    for key, available in zip(index.values, oracle.sampler_available(index, paid_old)):
        count = max(0, min(allocation[key], len(available)))
        if count > 0:
            expected.extend(
                np.atleast_1d(available[rng.choice(len(available), size=count, replace=False)])
            )

    udf = UserDefinedFunction.from_label_column("evidence_udf", "f")
    ledger = CostLedger()
    merged = GroupSampler(random_state=seed).sample(
        table, index, udf, allocation, ledger, already_sampled=paid_new
    )
    assert merged.row_ids[: paid_new.size].tolist() == paid_new.row_ids.tolist()
    drawn = merged.row_ids[paid_new.size :].tolist()
    assert drawn == [int(row) for row in expected]
    assert merged.flags[paid_new.size :].tolist() == [labels[row] for row in expected]
    assert ledger.evaluated_count == ledger.retrieved_count == len(expected)
    assert not set(drawn) & set(paid_new.row_ids.tolist())


# -- the reservoir top-up ------------------------------------------------------------
def _top_up_both(labels, new, old, previous_rows, total_rows, **options):
    """One top-up to ``total_rows`` both ways; asserts they agree, returns both."""
    table = _table(["g"] * total_rows, labels[:total_rows])
    ledger = CostLedger()
    topped = top_up_labeled_sample(
        table,
        UserDefinedFunction.from_label_column("top_up_udf", "f"),
        ledger,
        new,
        previous_rows=previous_rows,
        **options,
    )
    kept, fresh = oracle.top_up_members(old, previous_rows, total_rows, **options)
    kept.update((row, labels[row]) for row in fresh.tolist())
    assert topped.row_ids.tolist() == list(kept)
    assert topped.flags.tolist() == list(kept.values())
    assert ledger.evaluated_count == ledger.retrieved_count == fresh.size
    assert not topped.row_ids.flags.writeable and not topped.flags.flags.writeable
    return topped, oracle.LabeledSample(kept)


@st.composite
def top_up_cases(draw):
    total = draw(st.integers(min_value=1, max_value=400))
    previous = draw(st.integers(min_value=0, max_value=total))
    labels = draw(st.lists(st.booleans(), min_size=total, max_size=total))
    # A sample over the first ``previous`` rows, in draw (not row) order.
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=max(previous - 1, 0)),
            unique=True,
            max_size=min(previous, 30),
        )
        if previous
        else st.just([])
    )
    options = {
        "fraction": draw(st.sampled_from([0.01, 0.05, 0.125, 0.5, 1.0])),
        "minimum_size": draw(st.sampled_from([0, 1, 2, 5, 50])),
        "stream_seed": draw(st.integers(min_value=0, max_value=2**20)),
    }
    cuts = sorted(draw(st.sets(st.integers(min_value=previous, max_value=total), max_size=4)))
    return labels, ids, previous, total, cuts, options


@settings(max_examples=150, deadline=None)
@given(top_up_cases())
def test_top_up_equals_the_list_reservoir_in_one_append_and_in_many(case):
    labels, ids, previous, total, cuts, options = case
    new, old = _both(ids, [labels[row] for row in ids])
    one_shot, _ = _top_up_both(labels, new, old, previous, total, **options)
    if previous == total:
        assert one_shot is new  # nothing appended: the same immutable evidence
    chunked_new, chunked_old, seen = new, old, previous
    for stop in [*cuts, total]:
        chunked_new, chunked_old = _top_up_both(
            labels, chunked_new, chunked_old, seen, stop, **options
        )
        seen = stop
    assert chunked_new == one_shot


def test_top_up_eviction_landing_on_the_last_slot():
    """``min(int(coin * len), len - 1)`` at its cap: the newest member goes."""
    labels = [bool(row % 3) for row in range(300)]
    options = {"fraction": 0.001, "minimum_size": 2, "stream_seed": 5}
    admit = counter_uniforms(stream_key(5, 0), 2, 298) * np.arange(3, 301) < 2
    evict = counter_uniforms(stream_key(5, 1), 2, 298)
    assert (admit & ((evict * 2).astype(int) >= 1)).any()  # the case does occur
    new, old = _both([1, 0], [labels[1], labels[0]])
    topped, _ = _top_up_both(labels, new, old, 2, 300, **options)
    assert topped.size == 2


def test_top_up_from_nothing_and_with_a_growing_target():
    labels = [bool(row % 2) for row in range(1200)]
    new, old = _both([], [])
    grown, grown_old = _top_up_both(labels, new, old, 0, 400, fraction=0.1, minimum_size=10)
    assert grown.size == 40
    grown, _ = _top_up_both(labels, grown, grown_old, 400, 1200, fraction=0.1, minimum_size=10)
    assert grown.size == 120  # the target followed the table
