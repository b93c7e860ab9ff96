"""Property tests: the array memo behaves exactly like a plain dict.

:class:`~repro.db.udf.UserDefinedFunction` keeps its memo as one ``int8``
array indexed by row id.  Whatever sequence of calls it sees — per-row and
bulk evaluation with unsorted ids and repeats inside one batch, masked bulk
evaluation charging a ledger, ids past anything the memo has seen, rows that
exist only after an append, outcomes merged from a worker process, "is it
known?" probes, oracle reads, restored memos, resets — it must agree after
*every* step with the obvious model: a ``{row_id: bool}`` dict and six
integer counters.  Agreement covers the returned outcomes, the ledger charge,
which rows the function was actually called on, the memo contents and all
six ``counter_snapshot()`` fields, on every table kind.
"""

import sys
import tempfile
import threading
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.errors import BudgetExhaustedError
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction

#: Ops that never read the table may name rows this far past its end.
BEYOND = 40

_IDS = st.lists(st.integers(min_value=0, max_value=10_000), max_size=12)
_ROWS = st.lists(st.booleans(), min_size=1, max_size=9)


@st.composite
def memo_cases(draw):
    labels = draw(st.lists(st.booleans(), min_size=1, max_size=30))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("row"), st.integers(0, 10_000), st.booleans()),
                st.tuples(
                    st.just("rows"),
                    _IDS,
                    st.booleans(),
                    st.one_of(st.none(), st.integers(0, 2**13)),
                ),
                st.tuples(st.just("merge"), _IDS, st.booleans(), st.integers(0, 2**12)),
                st.tuples(st.just("known"), _IDS),
                st.tuples(st.just("absorb"), _IDS, st.integers(0, 2**12)),
                st.tuples(st.just("append"), _ROWS),
                st.tuples(st.just("reset")),
            ),
            max_size=14,
        )
    )
    return labels, ops


class DictMemo:
    """The reference: what the UDF's accounting means, with no arrays."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.cache = {}
        self.counters = dict.fromkeys(
            ("calls", "cache_hits", "cache_misses", "row_calls", "bulk_calls"), 0
        )

    def snapshot(self):
        return dict(self.counters, cache_size=len(self.cache))

    def arrays(self):
        ids = sorted(self.cache)
        return ids, [self.cache[i] for i in ids]

    def evaluate_row(self, row_id, truth, oracle):
        pending = [] if row_id in self.cache else [row_id]
        outcome = truth[row_id] if pending else self.cache[row_id]
        if not oracle:
            self.counters["row_calls"] += 1
            self.counters["cache_hits"] += not pending
            self.counters["cache_misses"] += len(pending)
            self.counters["calls"] += len(pending)
            self.cache[row_id] = outcome
        return outcome, pending

    def bulk(self, ids, fresh, oracle, mask=None):
        """``fresh[position]`` is the outcome for a pending ``ids[position]``.

        Only the positions ``mask`` picks (all without one) are looked at;
        the others come back ``False``.  A row repeated inside the batch is
        pending (and paid for) at every picked position it occupies, and
        fills one memo slot.
        """
        mask = [True] * len(ids) if mask is None else mask
        picked = [i for i, pick in zip(ids, mask) if pick]
        pending = [i for i in picked if i not in self.cache]
        outcomes = [
            pick and self.cache.get(i, fresh[p]) for p, (i, pick) in enumerate(zip(ids, mask))
        ]
        if not oracle:
            self.counters["bulk_calls"] += 1
            self.counters["cache_hits"] += len(picked) - len(pending)
            self.counters["cache_misses"] += len(pending)
            self.counters["calls"] += len(pending)
            self.cache.update((i, o) for i, o, pick in zip(ids, outcomes, mask) if pick)
        return outcomes, pending


def _open_table(kind, labels, directory):
    columns = {"i": list(range(len(labels))), "f": list(labels)}
    if kind == "table":
        return Table.from_columns("memo", columns, hidden_columns=["f"]), None
    sharded = ShardedTable.from_columns(
        "memo", columns, hidden_columns=["f"], shard_rows=7
    )
    if kind == "sharded":
        return sharded, None
    store = TableStore(directory)
    store.save(sharded)
    manager = ResidencyManager(budget_bytes=64)  # cannot hold one segment
    lazy, _report = store.open(residency=manager)
    return lazy, manager


def _make_udf(udf_kind, called):
    """A label-column UDF (vectorised path) or a callable that logs its rows."""
    if udf_kind == "label":
        return UserDefinedFunction.from_label_column("memo_udf", "f")

    def reveal(row):
        called.append(row["i"])
        return bool(row["f"])

    return UserDefinedFunction("memo_udf", reveal)


def _bits(seed, count):
    return [bool(seed >> (position % 12) & 1) for position in range(count)]


def _known(udf, table, ids):
    """Which ``ids`` the memo knows, read through ``evaluate_rows``' one memo
    read: in oracle mode, with a serving ledger that cannot pay for one
    evaluation, a picked row the memo does not know trips the budget before
    any gather (so ids past the table's end are fine)."""
    known = []
    with udf.oracle_mode():
        for position in range(len(ids)):
            ledger = CostLedger(free_memoized=True)
            ledger.set_budget(0.0)
            mask = np.zeros(len(ids), dtype=bool)
            mask[position] = True
            try:
                udf.evaluate_rows(table, ids, mask, ledger)
            except BudgetExhaustedError:
                known.append(False)
            else:
                known.append(True)
    return known


def _assert_same_state(udf, model):
    assert udf.counter_snapshot() == model.snapshot()
    ids, values = udf.memo_arrays()
    assert (ids.tolist(), values.tolist()) == model.arrays()
    assert ids.dtype == np.intp and values.dtype == bool


def _run_case(kind, udf_kind, labels, ops):
    truth = list(labels)
    called = []
    model = DictMemo()
    udf = _make_udf(udf_kind, called)
    with tempfile.TemporaryDirectory() as directory:
        table, manager = _open_table(kind, labels, directory)
        try:
            for op in ops:
                name = op[0]
                del called[:]
                pending = []  # rows this step must call the function on
                if name == "row":
                    row_id, oracle = op[1] % len(truth), op[2]
                    with udf.oracle_mode() if oracle else nullcontext():
                        got = udf.evaluate_row(table, row_id)
                    expected, pending = model.evaluate_row(row_id, truth, oracle)
                    assert got is expected
                elif name == "rows":
                    ids, oracle, mask_seed = [i % len(truth) for i in op[1]], op[2], op[3]
                    mask = None if mask_seed is None else _bits(mask_seed, len(ids))
                    free_memoized = bool(mask_seed) and mask_seed % 3 == 0
                    ledger = CostLedger(free_memoized=free_memoized)
                    with udf.oracle_mode() if oracle else nullcontext():
                        got = udf.evaluate_rows(
                            table,
                            ids,
                            None if mask is None else np.asarray(mask, dtype=bool),
                            ledger,
                        )
                    expected, pending = model.bulk(
                        ids, [truth[i] for i in ids], oracle, mask
                    )
                    assert got.dtype == bool and got.tolist() == expected
                    picked = len(ids) if mask is None else sum(mask)
                    charged = len(pending) if free_memoized else picked
                    assert ledger.evaluated_count == charged
                elif name == "merge":
                    ids = [i % (len(truth) + BEYOND) for i in op[1]]
                    outcomes = _bits(op[3], len(ids))
                    with udf.oracle_mode() if op[2] else nullcontext():
                        got = udf.merge_remote_evaluations(ids, outcomes)
                    # The worker ran the function, not this UDF: nothing pending.
                    expected, _ = model.bulk(ids, outcomes, op[2])
                    assert got.dtype == bool and got.tolist() == expected
                elif name == "known":
                    ids = [i % (len(truth) + BEYOND) for i in op[1]]
                    expected = [i in model.cache for i in ids]
                    assert _known(udf, table, ids) == expected
                    assert [udf.is_memoized(i) for i in ids] == expected
                elif name == "absorb":
                    ids = [i % (len(truth) + BEYOND) for i in op[1]]
                    values = _bits(op[2], len(ids))
                    udf.absorb_memo(ids, values)
                    model.cache.update(zip(ids, values))
                elif name == "append":
                    start = len(truth)
                    truth.extend(op[1])
                    table.append_columns(
                        {"i": list(range(start, len(truth))), "f": list(op[1])}
                    )
                else:
                    udf.reset()
                    model.reset()
                if udf_kind == "callable":
                    assert called == pending
                _assert_same_state(udf, model)
        finally:
            if manager is not None:
                manager.evict_all()


@pytest.mark.parametrize("udf_kind", ["label", "callable"])
@pytest.mark.parametrize("kind", ["table", "sharded", "lazy"])
@settings(max_examples=60, deadline=None)
@given(case=memo_cases())
def test_array_memo_equals_dict_model_after_every_step(kind, udf_kind, case):
    labels, ops = case
    _run_case(kind, udf_kind, labels, ops)


#: One fixed sequence the mutations below must trip over: writes, a batch
#: that repeats two new rows, then growth past rows already memoised.
_LABELS = [True, False, True, True, False, False, True, False]
_PINNED_OPS = [
    ("rows", [1, 0], False, None),
    ("rows", [3, 2, 3, 0, 2], False, None),
    ("append", [True, False, True]),
    ("rows", [10, 1, 9], False, None),
    ("rows", [4, 10, 5, 4], False, 0b1101),
    ("row", 1, False),
    ("known", [0, 1, 2, 3, 4, 5, 9, 10]),
]


@pytest.mark.parametrize("udf_kind", ["label", "callable"])
def test_pinned_sequence_passes_unmutated(udf_kind):
    _run_case("table", udf_kind, _LABELS, _PINNED_OPS)


def test_differential_catches_a_duplicate_counted_twice(monkeypatch):
    write = UserDefinedFunction._memo_write

    def counts_every_position(self, ids, values):
        fresh = ids[self._memo_states(ids) == 0]
        write(self, ids, values)
        self._memo_count += int(fresh.size - np.unique(fresh).size)

    monkeypatch.setattr(UserDefinedFunction, "_memo_write", counts_every_position)
    with pytest.raises(AssertionError):
        _run_case("table", "label", _LABELS, _PINNED_OPS)


def test_differential_catches_writes_dropped_on_growth(monkeypatch):
    def forgets_what_it_held(self, size):
        if size <= self._memo.size:
            return self._memo
        return np.zeros(size, dtype=np.int8)  # grown, old slots not copied

    monkeypatch.setattr(UserDefinedFunction, "_memo_with_room", forgets_what_it_held)
    with pytest.raises(AssertionError):
        _run_case("table", "label", _LABELS, _PINNED_OPS)


def _race_once(seed):
    """Five threads evaluate overlapping spans while a sixth grows the memo."""
    rows, span, past = 2_000, 300, 3_000
    labels = np.random.default_rng(seed).random(rows) < 0.5
    table = Table.from_columns(
        "memo_threads",
        {"i": list(range(rows)), "f": labels.tolist()},
        hidden_columns=["f"],
    )
    udf = UserDefinedFunction.from_label_column("memo_threads_udf", "f")
    grower_ids = range(1, rows + past, 7)
    looked_up = []
    errors = []

    def evaluate(offset):
        try:
            count = 0
            # Unsorted spans creeping up the table: each overlaps the last
            # and the other threads', and keeps landing past the memo's end.
            for start in range(offset, rows - span, 41):
                ids = np.arange(start, start + span)[::-1]
                assert np.array_equal(udf.evaluate_rows(table, ids), labels[ids])
                count += ids.size
            looked_up.append(count)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def grow():
        try:
            for top in grower_ids:
                value = bool(labels[top]) if top < rows else True
                udf.merge_remote_evaluations([top], [value])
            looked_up.append(len(grower_ids))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=evaluate, args=(o,)) for o in range(5)]
    threads.append(threading.Thread(target=grow))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []

    counters = udf.counter_snapshot()
    assert counters["cache_hits"] + counters["cache_misses"] == sum(looked_up)
    assert counters["calls"] == counters["cache_misses"]
    ids, values = udf.memo_arrays()
    evaluated_top = max(range(4, rows - span, 41)) + span
    touched = np.union1d(np.arange(evaluated_top), np.asarray(grower_ids))
    assert np.array_equal(ids, touched)  # no slot lost, none invented
    assert counters["cache_size"] == ids.size
    inside = ids < rows
    assert np.array_equal(values[inside], labels[ids[inside]])
    assert values[~inside].all()


def test_concurrent_bulk_calls_and_growth_lose_no_write():
    """Readers gather from whichever array they captured; writers and growth
    serialise on the state lock.  Every looked-up row must be counted as
    exactly one hit or one miss, and every row any thread paid for must be
    in the memo at the end — a write into an array that growth had already
    replaced would be lost.  Each round starts a fresh memo, so the doubling
    happens a dozen times per round under a 10 us switch interval.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seed in range(8):
            _race_once(seed)
    finally:
        sys.setswitchinterval(interval)
