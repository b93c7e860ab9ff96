"""Differential tests: vectorised defaults versus the reference paths.

Three promises this suite pins down:

* the promoted default :class:`~repro.core.executor.BatchExecutor` is
  *seed-for-seed identical* to the paper-faithful tuple-at-a-time
  :class:`~repro.core.executor.PlanExecutor` — same returned row ids (and
  order), same ledger counts, same per-group R+/R-/E+/E- bookkeeping — for
  arbitrary plans, with and without sampled-tuple handling, across the
  registry datasets;
* the factorised :class:`~repro.db.index.GroupIndex` produces exactly the
  grouping of the dict-based reference :meth:`Table.group_row_ids` (keys,
  key order, row ids, row order), including its per-row codes;
* the span path (:class:`~repro.core.parallel.ParallelBatchExecutor` inline,
  :class:`~repro.core.procpool.ProcessPoolBatchExecutor` in worker
  processes) returns, seed for seed, what :class:`BatchExecutor` and the
  tuple-at-a-time :class:`PlanExecutor` return — rows, ledgers, per-group
  counts, UDF counters and memo — over any shard layout, so the span path
  is compared with something other than itself;
* the executor kernel's one memo pass per evaluated group (charge,
  evaluate, fold from one read) meets hand-computed row ids, ledgers, UDF
  counters and memo contents at its edges: ids past the memo's end, a UDF
  that does not memoise, ``oracle_mode()``, a python callable's call order
  and a hard budget tripping at a group boundary;
* an executor is a placement: one instance answers a second request
  exactly as a fresh instance does, on every backend;
* probabilities a hair from 0 or 1 (the near-certain values SLSQP leaves,
  whose outcome the vectorised backends fix instead of drawing coins) give
  the sequential, span and reference backends the same rows and ledgers as
  the plan they round to, and leave the sequential stream where the
  reference's coins leave it — so every later group, in any mix of fixed
  and drawn groups, sees the reference's coins.

These guarantees are what make it safe to run the whole library — pipeline,
oracle, adaptive strategy, serving layer — on the vectorised backend while
citing the serial executor's semantics.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor, PlanExecutor
from repro.core.parallel import ParallelBatchExecutor
from repro.core.pipeline import IntelSample
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.datasets.registry import load_dataset
from repro.db.index import GroupIndex
from repro.db.sharding import ShardedTable
from repro.db.shm import release_exports
from repro.db.table import Table
from repro.db.errors import BudgetExhaustedError
from repro.db.udf import CostLedger, RevealLabel, UserDefinedFunction
from repro.sampling.sampler import GroupSampler, SampleOutcome
from repro.sampling.schemes import ConstantScheme
from repro.stats.random import RandomState

from leakcheck import assert_no_leaked_resources

DATASETS = ("lending_club", "census", "marketing")


def _dataset(name):
    return load_dataset(name, random_state=17, scale=0.02)


def _run_both(dataset, plan, seed, outcome=None):
    index = dataset.table.group_index(dataset.correlated_column)
    serial_udf = dataset.make_udf("serial")
    serial_ledger = CostLedger()
    serial = PlanExecutor().execute(
        dataset.table, index, serial_udf, plan, serial_ledger, seed, sample_outcome=outcome
    )
    batch_udf = dataset.make_udf("batch")
    batch_ledger = CostLedger()
    batch = BatchExecutor().execute(
        dataset.table, index, batch_udf, plan, batch_ledger, seed, sample_outcome=outcome
    )
    return serial, serial_ledger, batch, batch_ledger


def _assert_identical(assert_same_rows, serial, serial_ledger, batch, batch_ledger):
    assert_same_rows(batch.returned_row_ids, serial.returned_row_ids)
    assert batch_ledger.retrieved_count == serial_ledger.retrieved_count
    assert batch_ledger.evaluated_count == serial_ledger.evaluated_count
    assert batch.group_counts.keys() == serial.group_counts.keys()
    for key, serial_counts in serial.group_counts.items():
        assert batch.group_counts[key] == serial_counts, key


class TestExecutorSeedForSeed:
    @pytest.mark.parametrize("dataset_name", DATASETS)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_plans_match(self, dataset_name, data, assert_same_rows):
        dataset = _dataset(dataset_name)
        index = dataset.table.group_index(dataset.correlated_column)
        decisions = {}
        for key in index.values:
            retrieve = data.draw(
                st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), label=f"retrieve[{key}]"
            )
            evaluate = (
                data.draw(
                    st.sampled_from([0.0, 0.3, 0.7, 1.0]), label=f"evaluate[{key}]"
                )
                * retrieve
            )
            decisions[key] = GroupDecision(retrieve=retrieve, evaluate=evaluate)
        plan = ExecutionPlan(decisions)
        seed = data.draw(st.integers(0, 2**20), label="seed")
        _assert_identical(assert_same_rows, *_run_both(dataset, plan, seed))

    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_with_sampled_tuples(self, dataset_name, assert_same_rows):
        dataset = _dataset(dataset_name)
        index = dataset.table.group_index(dataset.correlated_column)
        sampler_udf = dataset.make_udf("sampler")
        outcome = GroupSampler(random_state=5).sample(
            dataset.table,
            index,
            sampler_udf,
            ConstantScheme(4).allocate(index.group_sizes()),
            CostLedger(),
        )
        plan = ExecutionPlan(
            {key: GroupDecision(retrieve=0.6, evaluate=0.3) for key in index.values}
        )
        for seed in range(5):
            _assert_identical(
                assert_same_rows, *_run_both(dataset, plan, seed, outcome=outcome)
            )

    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_full_pipeline_matches_across_backends(self, dataset_name, assert_same_rows):
        """IntelSample returns identical results on either backend."""
        dataset = _dataset(dataset_name)
        constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)

        def run(executor):
            return IntelSample(random_state=99, executor=executor).answer(
                dataset.table,
                dataset.make_udf("pipe"),
                constraints,
                CostLedger(),
                correlated_column=dataset.correlated_column,
            )

        batch = run(None)  # the default is BatchExecutor
        serial = run(PlanExecutor())
        assert_same_rows(batch.row_ids, serial.row_ids)
        assert batch.ledger.evaluated_count == serial.ledger.evaluated_count
        assert batch.ledger.retrieved_count == serial.ledger.retrieved_count


    @pytest.mark.parametrize("free_memoized", [False, True], ids=["paper", "serving"])
    @pytest.mark.parametrize("backend", ["batch", "inline_spans"])
    @pytest.mark.parametrize(
        "edge", ["past_memo_end", "no_memo", "oracle_mode", "call_order", "budget"]
    )
    def test_kernel_edges_by_hand(self, edge, backend, free_memoized):
        """Two groups that are also the two shards (so a span is a group and
        both backends charge group by group): ``x`` = rows 0-3, ``y`` = rows
        4-7, every row retrieved and evaluated (no coins).  Rows 0 and 5 are
        paid for first (not under ``no_memo``: the memo starts empty); that
        memo is 6 slots long, so rows 6 and 7 lie past its end."""
        labels = [True, False, True, False, False, True, True, False]
        table = Table.from_columns(
            "kernel_edges",
            {"A": list("xxxxyyyy"), "i": list(range(8)), "f": labels},
            hidden_columns=["f"],
        )
        if backend == "inline_spans":
            table = ShardedTable.from_table(table, num_shards=2)
            executor = ParallelBatchExecutor()
        else:
            executor = BatchExecutor()
        called = []
        if edge == "call_order":

            def reveal(row):
                called.append(row["i"])
                return bool(row["f"])

            udf = UserDefinedFunction("edge_py", reveal)
        else:
            udf = UserDefinedFunction.from_label_column("edge_label", "f")
        if edge != "no_memo":  # else the memo is a fresh UDF's: empty
            udf.evaluate_rows(table, [0, 5])
        del called[:]
        ledger = CostLedger(retrieval_cost=1.0, evaluation_cost=3.0, free_memoized=free_memoized)
        if edge == "budget":
            # x: 4 retrievals + its evaluations (4, or the 3 unknown) fit in
            # 20; y's 4 retrievals fit too, its evaluations do not.
            ledger.set_budget(20.0)
        plan = ExecutionPlan({key: GroupDecision(retrieve=1.0, evaluate=1.0) for key in "xy"})
        run = lambda: executor.execute(table, table.group_index("A"), udf, plan, ledger, 3)  # noqa: E731

        memo = {0: True, 5: True}  # what the memo holds afterwards
        if edge == "budget":
            with pytest.raises(BudgetExhaustedError):
                run()
            # y tripped before any of its UDF work: x was evaluated, y not.
            assert (ledger.retrieved_count, ledger.evaluated_count) == (
                8,
                3 if free_memoized else 4,
            )
            memo.update({1: False, 2: True, 3: False})
            expected = {"calls": 5, "cache_hits": 1, "bulk_calls": 2}
        else:
            if edge == "oracle_mode":
                with udf.oracle_mode():
                    result = run()
            else:
                result = run()
            assert result.returned_row_ids.tolist() == [0, 2, 5, 6]
            assert ledger.retrieved_count == 8
            # The memo knows rows 0 and 5 unless it started empty.
            free = 2 if free_memoized and edge != "no_memo" else 0
            assert ledger.evaluated_count == 8 - free
            if edge == "oracle_mode":  # counts nothing, memoises nothing
                expected = {"calls": 2, "cache_hits": 0, "bulk_calls": 1}
            elif edge == "no_memo":
                memo = dict(enumerate(labels))
                expected = {"calls": 8, "cache_hits": 0, "bulk_calls": 2}
            else:
                memo = dict(enumerate(labels))
                expected = {"calls": 8, "cache_hits": 2, "bulk_calls": 3}
        assert udf.counter_snapshot() == dict(
            expected,
            cache_misses=expected["calls"],
            cache_size=len(memo),
            row_calls=0,
        )
        ids, values = udf.memo_arrays()
        assert (ids.tolist(), values.tolist()) == (sorted(memo), [memo[i] for i in sorted(memo)])
        if edge == "call_order":
            assert called == [1, 2, 3, 4, 6, 7]  # unknown rows, group by group, in row order


SPAN_KEYS = ("a", "b", "c", "d")

#: Probabilities a hair from 0 or 1, as SLSQP leaves them: on the 2**-53
#: grid of the uniform coins every coin fails (the first two) or passes (the
#: last two) unless it lands on one of the one to three exceptional values.
NEAR_CERTAIN = (2.0**-53, 3 * 2.0**-53, 1 - 2.0**-52, 1 - 2.0**-53)


class TestNearCertainProbabilities:
    @pytest.mark.parametrize("conditional", NEAR_CERTAIN)
    @pytest.mark.parametrize("retrieve", NEAR_CERTAIN)
    def test_sequential_span_and_reference_backends_agree(
        self, retrieve, conditional, assert_same_rows
    ):
        """Coins that all fail or all pass select no row or every row, so the
        sequential backends, the span path and the plan the probabilities
        round to all return the same rows and ledgers."""
        rng = np.random.default_rng(29)
        rows = 600
        columns = {
            "A": [SPAN_KEYS[code] for code in rng.integers(0, len(SPAN_KEYS), rows)],
            "f": (rng.random(rows) < 0.5).tolist(),
        }
        table = Table.from_columns("near_certain", columns, hidden_columns=["f"])
        sharded = ShardedTable.from_table(table, num_shards=3)
        outcome = SampleOutcome(rng.integers(0, rows, 30).tolist(), rng.random(30) < 0.5)

        def decisions(r, share):
            return ExecutionPlan(
                {key: GroupDecision(retrieve=r, evaluate=r * share) for key in SPAN_KEYS}
            )

        runs = []
        reference, batch = RandomState(11), RandomState(11)
        for executor, over, plan, coins in (
            (PlanExecutor(), table, decisions(retrieve, conditional), reference),
            (BatchExecutor(), table, decisions(retrieve, conditional), batch),
            (ParallelBatchExecutor(), sharded, decisions(retrieve, conditional), 11),
            (BatchExecutor(), table, decisions(round(retrieve), round(conditional)), 11),
        ):
            udf = UserDefinedFunction.from_label_column("near", "f")
            ledger = CostLedger()
            result = executor.execute(
                over, over.group_index("A"), udf, plan, ledger, coins, sample_outcome=outcome
            )
            runs.append((result, ledger))
        (expected, expected_ledger), *others = runs
        for result, ledger in others:
            assert_same_rows(result.returned_row_ids, expected.returned_row_ids)
            assert ledger.retrieved_count == expected_ledger.retrieved_count
            assert ledger.evaluated_count == expected_ledger.evaluated_count
            assert result.group_counts == expected.group_counts
        # The batch backend drew none of these coins but moved past them all.
        assert batch.random() == reference.random()


#: Counters that do not depend on how evaluations are batched.
BATCHING_FREE_COUNTERS = ("calls", "cache_hits", "cache_misses", "cache_size")


#: Near-certain values :func:`span_cases` mixes in, as ``R_a`` and as the
#: share ``E_a / R_a``.
SPAN_NEAR_CERTAIN = (2.0**-53, 1 - 2.0**-53, 1e-12, 1 - 1e-12)


@st.composite
def span_cases(draw):
    """A table, a plan, a sample outcome, pre-paid rows and a seed.

    Plans cover ``R_a`` and ``E_a / R_a`` at 0, strictly inside (0, 1), a
    hair from 0 or 1 (whose outcome is fixed: no coin drawn) and at 1, mixed
    freely across groups; outcomes hold any rows of the table and ids outside
    it, in any order, repeats included, and flag them freely.
    """
    rows = draw(st.integers(min_value=1, max_value=60))
    keys = draw(st.lists(st.sampled_from(SPAN_KEYS), min_size=rows, max_size=rows))
    labels = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    decisions = {}
    for key in SPAN_KEYS:
        retrieve = draw(st.sampled_from([0.0, 0.3, 0.8, 1.0, *SPAN_NEAR_CERTAIN]))
        share = draw(st.sampled_from([0.0, 0.4, 1.0, *SPAN_NEAR_CERTAIN]))
        decisions[key] = GroupDecision(retrieve=retrieve, evaluate=retrieve * share)
    sampled = draw(st.lists(st.integers(min_value=-2, max_value=rows + 3), max_size=30))
    flags = [draw(st.booleans()) for _row in sampled]
    outcome = SampleOutcome(sampled, flags) if draw(st.booleans()) else None
    prepaid = draw(st.lists(st.integers(min_value=0, max_value=rows - 1), max_size=20))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return {"A": keys, "f": labels}, decisions, outcome, prepaid, seed


def _span_table(columns, shards):
    table = Table.from_columns("spans", columns, hidden_columns=["f"])
    return table if shards == 1 else ShardedTable.from_table(table, num_shards=shards)


def _assert_equals_reference(
    assert_same_rows, executor, table, make_udf, plan, outcome, prepaid, seed, free_memoized
):
    """``executor`` (on ``seed``'s coins) against both sequential backends.

    :class:`BatchExecutor` with the same accounting must agree on
    everything; :class:`PlanExecutor` (the paper's accounting only) on the
    rows, the retrievals, the per-group counts and — with that accounting —
    the evaluations.
    """
    index = table.group_index("A")
    runs = []
    for tag, backend in (
        ("span", executor),
        ("batch", BatchExecutor()),
        ("reference", PlanExecutor()),
    ):
        udf = make_udf(tag)
        udf.evaluate_rows(table, prepaid)  # so free_memoized has something to skip
        ledger = CostLedger(free_memoized=free_memoized)
        result = backend.execute(table, index, udf, plan, ledger, seed, sample_outcome=outcome)
        runs.append((result, ledger, udf))
    (result, ledger, udf), *references = runs
    for expected, expected_ledger, expected_udf in references:
        assert_same_rows(result.returned_row_ids, expected.returned_row_ids)
        assert ledger.retrieved_count == expected_ledger.retrieved_count
        assert result.group_counts == expected.group_counts
        counters, expected_counters = udf.counter_snapshot(), expected_udf.counter_snapshot()
        for counter in BATCHING_FREE_COUNTERS:  # all started from the same pre-paid state
            assert counters[counter] == expected_counters[counter], counter
        assert [part.tolist() for part in udf.memo_arrays()] == [
            part.tolist() for part in expected_udf.memo_arrays()
        ]
    batch_ledger, reference_ledger = runs[1][1], runs[2][1]
    assert ledger.evaluated_count == batch_ledger.evaluated_count
    if not free_memoized:
        assert ledger.evaluated_count == reference_ledger.evaluated_count


class TestSequentialStreamAfterFixedOutcomes:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=span_cases())
    def test_batch_equals_the_reference_over_mixed_plans(self, case, assert_same_rows):
        """A group whose outcome is fixed draws no coin, yet every later group
        sees the reference's coins: same rows, ledgers and next draw."""
        columns, decisions, outcome, _prepaid, seed = case
        table = _span_table(columns, shards=1)
        index = table.group_index("A")
        plan = ExecutionPlan(decisions)
        runs = []
        for executor in (PlanExecutor(), BatchExecutor()):
            udf = UserDefinedFunction.from_label_column("mixed", "f")
            ledger = CostLedger()
            coins = RandomState(seed)
            result = executor.execute(table, index, udf, plan, ledger, coins, sample_outcome=outcome)
            runs.append((result, ledger, coins.random()))
        (reference, reference_ledger, reference_next), (batch, batch_ledger, batch_next) = runs
        _assert_identical(assert_same_rows, reference, reference_ledger, batch, batch_ledger)
        assert batch_next == reference_next


class TestSpanPathAgainstTheReference:
    @pytest.mark.parametrize("free_memoized", [False, True], ids=["paper", "serving"])
    @pytest.mark.parametrize("python_udf", [False, True], ids=["label", "python"])
    @pytest.mark.parametrize("shards", [1, 2, 5])
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=span_cases())
    def test_inline_executor_equals_the_oracle(
        self, shards, python_udf, free_memoized, case, assert_same_rows
    ):
        columns, decisions, outcome, prepaid, seed = case
        if python_udf:
            make_udf = lambda tag: UserDefinedFunction(f"{tag}_py", RevealLabel("f", True))  # noqa: E731
        else:
            make_udf = lambda tag: UserDefinedFunction.from_label_column(f"{tag}_label", "f")  # noqa: E731
        _assert_equals_reference(
            assert_same_rows,
            ParallelBatchExecutor(),
            _span_table(columns, shards),
            make_udf,
            ExecutionPlan(decisions),
            outcome,
            prepaid,
            seed,
            free_memoized,
        )

    @pytest.mark.parametrize("python_udf", [False, True], ids=["label", "python"])
    @pytest.mark.parametrize("case_seed", [1, 2, 3])
    def test_process_executor_equals_the_oracle(self, case_seed, python_udf, assert_same_rows):
        """A fixed handful of cases in real worker processes (spawn cost)."""
        rng = np.random.default_rng(case_seed)
        rows = 240
        keys = [SPAN_KEYS[code] for code in rng.integers(0, len(SPAN_KEYS), rows)]
        columns = {"A": keys, "f": (rng.random(rows) < 0.5).tolist()}
        regimes = [(0.0, 0.0), (1.0, 1.0), (0.6, 0.0), (0.7, 0.5)]
        decisions = {
            key: GroupDecision(retrieve=r, evaluate=r * share)
            for key, (r, share) in zip(SPAN_KEYS, np.roll(regimes, case_seed, axis=0).tolist())
        }
        sampled = rng.integers(-2, rows + 3, 45).tolist() + [7, 7]
        outcome = SampleOutcome(sampled, rng.random(len(sampled)) < 0.5)
        free_memoized = bool(case_seed % 2)
        table = _span_table(columns, shards=4)
        if python_udf:
            make_udf = lambda tag: UserDefinedFunction(f"{tag}_py", RevealLabel("f", True))  # noqa: E731
        else:
            make_udf = lambda tag: UserDefinedFunction.from_label_column(f"{tag}_lbl", "f")  # noqa: E731
        try:
            _assert_equals_reference(
                assert_same_rows,
                ProcessPoolBatchExecutor(max_workers=2),
                table,
                make_udf,
                ExecutionPlan(decisions),
                outcome,
                rng.integers(0, rows, 40).tolist(),
                case_seed,
                free_memoized,
            )
        finally:
            release_exports(table)
        assert_no_leaked_resources()


class TestPlacementReuse:
    @pytest.mark.parametrize(
        "backend", [PlanExecutor, BatchExecutor, ParallelBatchExecutor, ProcessPoolBatchExecutor]
    )
    def test_no_constructor_takes_a_coin_stream(self, backend):
        with pytest.raises(TypeError):
            backend(random_state=0)

    def test_one_instance_answers_every_request_as_a_fresh_one(self, assert_same_rows):
        """An executor is a placement: it holds no coins and no request state.

        One instance of each backend serves two (plan, seed) requests in
        turn, and each answer equals a fresh instance's — rows, ledger,
        per-group counts and UDF counters.  The process backend runs two
        workers over a four-shard table, so its spans fan out.
        """
        rng = np.random.default_rng(43)
        rows = 240
        keys = [SPAN_KEYS[code] for code in rng.integers(0, len(SPAN_KEYS), rows)]
        table = _span_table({"A": keys, "f": (rng.random(rows) < 0.5).tolist()}, shards=4)
        index = table.group_index("A")
        outcome = SampleOutcome(rng.integers(0, rows, 30).tolist(), rng.random(30) < 0.5)
        requests = (
            (ExecutionPlan({key: GroupDecision(retrieve=0.7, evaluate=0.35) for key in SPAN_KEYS}), 5, None),
            (ExecutionPlan({key: GroupDecision(retrieve=1.0, evaluate=0.6) for key in SPAN_KEYS}), 6, outcome),
        )
        backends = {
            "reference": PlanExecutor,
            "batch": BatchExecutor,
            "inline": ParallelBatchExecutor,
            "process": lambda: ProcessPoolBatchExecutor(max_workers=2),
        }

        def answer(executor, plan, seed, sampled):
            udf = UserDefinedFunction("reuse_py", RevealLabel("f", True))
            ledger = CostLedger()
            result = executor.execute(table, index, udf, plan, ledger, seed, sample_outcome=sampled)
            return result, ledger, udf.counter_snapshot()

        try:
            for name, make in backends.items():
                reused = make()
                for plan, seed, sampled in requests:
                    result, ledger, counters = answer(reused, plan, seed, sampled)
                    fresh, fresh_ledger, fresh_counters = answer(make(), plan, seed, sampled)
                    assert_same_rows(result.returned_row_ids, fresh.returned_row_ids)
                    assert ledger == fresh_ledger, name
                    assert result.group_counts == fresh.group_counts, name
                    assert counters == fresh_counters, name
        finally:
            release_exports(table)
        assert_no_leaked_resources()


class TestGroupIndexDifferential:
    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_vectorised_grouping_equals_dict_reference(self, dataset_name):
        dataset = _dataset(dataset_name)
        table = dataset.table
        for column in table.schema.categorical_columns():
            index = GroupIndex(table, column.name)
            reference = table.group_row_ids(column.name)
            assert index.values == list(reference.keys())
            for value, expected_rows in reference.items():
                assert index.row_ids(value).tolist() == expected_rows
                assert index.group_size(value) == len(expected_rows)
            # Codes invert the grouping exactly.
            keys = index.values
            column_values = table.column_values(column.name)
            assert [keys[c] for c in index.codes.tolist()] == column_values

    def test_nan_cells_match_dict_reference(self):
        """np.unique collapses NaNs; the index must follow dict semantics."""
        import math

        from repro.db.table import Table

        nan = float("nan")
        table = Table.from_columns(
            "nantest",
            {"x": [1.0, nan, 2.0, nan, 1.0]},
            column_types={"x": "categorical"},
        )
        index = GroupIndex(table, "x")
        reference = table.group_row_ids("x")
        assert index.num_groups == len(reference)
        for (key, rows), (ref_key, ref_rows) in zip(index.items(), reference.items()):
            assert key == ref_key or (math.isnan(key) and math.isnan(ref_key))
            assert rows.tolist() == ref_rows

    @given(
        values=st.lists(
            st.sampled_from(["a", "b", "c", "d", 1, 2, True]), min_size=1, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_factorisation_property(self, values):
        """Arbitrary (even mixed-type) columns factorise like the dict path."""
        from repro.db.table import Table

        table = Table.from_columns(
            "prop", {"x": values}, column_types={"x": "categorical"}
        )
        index = GroupIndex(table, "x")
        reference = table.group_row_ids("x")
        assert index.values == list(reference.keys())
        for value, expected_rows in reference.items():
            assert index.row_ids(value).tolist() == expected_rows
        assert index.total_rows() == len(values)
        sizes = index.size_array()
        assert int(np.sum(sizes)) == len(values)
