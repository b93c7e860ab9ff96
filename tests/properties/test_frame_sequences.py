"""Property: over any sequence of appends, refreshes, hits and restarts, the
shared candidate frame is the from-scratch one, and sharing it changes nothing.

The stratified top-up and the execution step read "a group's rows minus the
rows already paid for" from one memoised
:func:`~repro.sampling.sampler.candidate_frame`, and a merge that adds no row
hands its operand on as is, so the memo survives a refresh that drew nothing.
Maintained state must equal from-scratch evaluation after *any* update
sequence, so one durable service lives through a drawn sequence of {append a
delta (a new group may arrive in it), query signature A, query signature B —
a refresh right after an append, a hit otherwise —, save warm state and
reopen}, on a small sharded and a small plain table, beside a **twin**: the
same table, history and seeds served by ``exclusion_oracle``'s code, the
parent commit's sampler, merge and frame builder kept verbatim (every group
excluded by the sampler for itself, every merge a new object, an unsorted
probe through a mask).  After every step

* the frame memoised for each evidence the service holds (plan entries and
  the statistics cache) is the oracle's from-scratch frame, array for array;
* answers, plan-cache paths, ledgers and the evidence behind every cached
  plan are the twin's.

Below it, the unit cases the sequences rest on: which merges alias, and
``drop_members`` on repeated and unsorted members.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import exclusion_oracle
from repro.core.column_selection import LabeledSample
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.storage import CatalogStore
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.sampling.sampler import SampleOutcome, candidate_frame, drop_members
from repro.serving import QueryService, ServiceConfig

_ROWS = 1_500
_GROUPS = 5
_SELECTIVITY = np.array([0.85, 0.6, 0.4, 0.2, 0.7, 0.5])  # the last: the new group's
#: The sequences here query the first two; ``test_tick_sequences.py`` keeps the
#: third unplanned until a tick asks for it, so a cold flight opens beside hits.
_SIGNATURES = ((0.80, 0.80), (0.90, 0.70), (0.70, 0.90))

#: Each example is two service lifetimes on disk (30-60 ms), so it gets half of
#: the active profile's example budget (``HYPOTHESIS_PROFILE``, tests/conftest.py).
_EXAMPLES = max(10, settings.default.max_examples // 2)


def _columns(rng, rows, groups):
    grade = rng.integers(0, groups, rows)
    return {
        "grade": [f"g{code}" for code in grade],
        "is_good": (rng.random(rows) < _SELECTIVITY[grade]).tolist(),
    }


class _Served:
    """One durable service over one table: its own directory, catalog and UDF."""

    def __init__(self, sharded, **config):
        self._config = config
        self._tmp = tempfile.TemporaryDirectory()
        columns = _columns(np.random.default_rng(2015), _ROWS, _GROUPS)
        if sharded:
            table = ShardedTable.from_columns(
                "seq", columns, hidden_columns=["is_good"], num_shards=3
            )
        else:
            table = Table.from_columns("seq", columns, hidden_columns=["is_good"])
        catalog = Catalog()
        catalog.register_table(table)
        self._open(catalog)

    def _open(self, catalog):
        self.udf = UserDefinedFunction.from_label_column("seq_label", "is_good")
        catalog.register_udf(self.udf)
        self.table = catalog.table("seq")
        self.service = QueryService(
            Engine(catalog), config=ServiceConfig(storage_dir=self._tmp.name, **self._config)
        )

    def append(self, delta):
        self.table.append_columns(delta)

    def select(self, which):
        alpha, beta = _SIGNATURES[which]
        return SelectQuery(
            table="seq",
            predicate=UdfPredicate(self.udf),
            alpha=alpha,
            beta=beta,
            rho=0.8,
            correlated_column="grade",
        )

    def query(self, which, seed):
        return self.service.submit(self.select(which), seed=seed)

    def restart(self):
        self.service.close()  # checkpoint + warm blob
        catalog, _reports = CatalogStore(self._tmp.name).open()
        self._open(catalog)

    def cached_plans(self):
        return [entry for _signature, entry in self.service.plan_cache._cache.items()]

    def held_evidence(self):
        """``(index, outcome)`` for every outcome the service holds for this table."""
        index = self.table.group_index("grade")
        outcomes = [entry.sample_outcome for entry in self.cached_plans()]
        cached = self.service.stats_cache.sample_outcomes
        outcomes += [payload for _key, (_table, _stamp, _rows, payload) in cached.items()]
        return [(index, outcome) for outcome in outcomes if outcome is not None]

    def close(self):
        self.service.close()
        self._tmp.cleanup()


def _assert_frames_are_from_scratch(served):
    for index, outcome in served.held_evidence():
        frame = candidate_frame(index, outcome)
        assert candidate_frame(index, outcome) is frame  # memoised under this identity
        scratch = exclusion_oracle.build_candidate_frame(index, outcome)
        assert len(frame.candidates) == len(scratch.candidates) == index.num_groups
        for ours, theirs in zip(frame.candidates, scratch.candidates):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            assert not ours.flags.writeable
        assert np.array_equal(frame.free_positives, scratch.free_positives)


def _assert_same_answer(ours, theirs):
    assert ours.metadata["plan_cache"] == theirs.metadata["plan_cache"]
    assert ours.row_ids.dtype == theirs.row_ids.dtype
    assert np.array_equal(ours.row_ids, theirs.row_ids)
    for count in ("retrieved_count", "evaluated_count", "total_cost"):
        assert getattr(ours.ledger, count) == getattr(theirs.ledger, count), count


_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(20, 160), st.booleans()),
        # Listed twice: half of all steps are queries (a refresh or a hit).
        st.tuples(st.just("query"), st.sampled_from([0, 1]), st.integers(0, 2**31)),
        st.tuples(st.just("query"), st.sampled_from([0, 1]), st.integers(0, 2**31)),
        st.tuples(st.just("restart"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(sharded=st.booleans(), steps=_STEPS, delta_seed=st.integers(0, 2**16))
def test_any_sequence_keeps_the_shared_frame_equal_to_from_scratch(sharded, steps, delta_seed):
    served = _Served(sharded)
    with exclusion_oracle.parent_exclusion():
        twin = _Served(sharded)
    rng = np.random.default_rng(delta_seed)
    try:
        warm_up = [("query", 0, 1), ("query", 1, 2)]  # both signatures planned cold
        for position, (step, first, second) in enumerate(warm_up + steps):
            if step == "append":
                delta = _columns(rng, first, _GROUPS + int(second))
                served.append(delta)
                twin.append(delta)
            elif step == "query":
                ours = served.query(first, second)
                with exclusion_oracle.parent_exclusion():
                    theirs = twin.query(first, second)
                _assert_same_answer(ours, theirs)
            else:
                served.restart()
                with exclusion_oracle.parent_exclusion():
                    twin.restart()
            _assert_frames_are_from_scratch(served)
            plans, twin_plans = served.cached_plans(), twin.cached_plans()
            assert len(plans) == len(twin_plans), position
            for entry, twin_entry in zip(plans, twin_plans):
                assert entry.sample_outcome == twin_entry.sample_outcome, position
    finally:
        served.close()
        twin.close()


# -- what the sequences rest on ------------------------------------------------------
def _outcome(*ids):
    return SampleOutcome(list(ids), [row % 2 == 0 for row in ids])


class TestMergeIdentity:
    """A merge that adds no row returns its operand; every other merge is new."""

    def test_empty_right_operand_returns_the_left_as_is(self):
        prior = _outcome(4, 9, 2)
        assert prior.merge(SampleOutcome()) is prior

    def test_empty_left_operand_returns_the_right_as_is(self):
        drawn = _outcome(4, 9, 2)
        assert SampleOutcome().merge(drawn) is drawn

    def test_nothing_but_empty_operands_merge_to_an_empty_outcome(self):
        assert SampleOutcome().merge(SampleOutcome()) == SampleOutcome()
        assert SampleOutcome.merge_shards([]) == SampleOutcome()

    def test_two_live_operands_concatenate_into_a_new_outcome(self):
        left, right = _outcome(4, 9), _outcome(2)
        merged = left.merge(right)
        assert merged is not left and merged is not right
        assert merged.row_ids.tolist() == [4, 9, 2]
        assert merged.flags.tolist() == [True, False, True]

    def test_empty_shards_are_skipped_and_a_sole_survivor_is_shared(self):
        only = _outcome(7, 1)
        assert SampleOutcome.merge_shards([SampleOutcome(), only, SampleOutcome()]) is only
        assert SampleOutcome.merge_shards(
            [_outcome(3), SampleOutcome(), only]
        ).row_ids.tolist() == [3, 7, 1]

    def test_an_operand_of_another_class_is_never_aliased(self):
        """The result is always of the class asked: evidence naming another
        design (or a subclass) is copied into it, empty partner or not."""

        class Tagged(SampleOutcome):
            pass

        tagged = Tagged([5, 8], [True, False])
        plain = SampleOutcome().merge(tagged)
        assert type(plain) is SampleOutcome and plain is not tagged
        assert plain.row_ids.tolist() == [5, 8]
        assert type(Tagged().merge(_outcome(5, 8))) is Tagged
        labeled = LabeledSample([5, 8], [True, False])
        merged = SampleOutcome.merge_shards([labeled])
        assert type(merged) is SampleOutcome and merged.row_ids.tolist() == [5, 8]

    def test_the_frame_memo_survives_a_merge_that_added_nothing(self):
        table = Table.from_columns("m", {"A": ["x", "y", "x", "y", "x"]})
        index = table.group_index("A")
        prior = _outcome(0, 3)
        frame = candidate_frame(index, prior)
        assert candidate_frame(index, prior.merge(SampleOutcome())) is frame
        assert candidate_frame(index, prior.merge(_outcome(4))) is not frame


class TestDropMembers:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.integers(0, 400), unique=True, min_size=0, max_size=60),
        picks=st.lists(st.integers(0, 10**6), max_size=40),
    )
    def test_equals_the_mask_kernel_on_repeated_and_unsorted_members(self, rows, picks):
        rows = np.sort(np.asarray(rows, dtype=np.intp))
        members = (
            rows[np.asarray(picks, dtype=np.intp) % rows.size]
            if rows.size
            else np.empty(0, dtype=np.intp)
        )
        ours = drop_members(rows, members)
        theirs = exclusion_oracle.drop_members(rows, members)
        assert ours.dtype == theirs.dtype == np.intp and np.array_equal(ours, theirs)
        assert set(ours.tolist()) == set(rows.tolist()) - set(members.tolist())

    def test_members_in_any_order_with_repeats(self):
        rows = np.asarray([2, 5, 7, 11, 13], dtype=np.intp)
        members = np.asarray([11, 2, 11, 5, 2], dtype=np.intp)
        assert drop_members(rows, members).tolist() == [7, 13]
        assert members.tolist() == [11, 2, 11, 5, 2]  # not sorted in place

    def test_a_read_only_members_slice_is_accepted(self):
        rows = np.asarray([2, 5, 7], dtype=np.intp)
        members = np.asarray([7, 2], dtype=np.intp)
        members.setflags(write=False)
        assert drop_members(rows, members).tolist() == [5]
