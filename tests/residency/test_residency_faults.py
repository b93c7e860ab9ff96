"""Injected segment_map / segment_evict faults: recover bitwise or fail typed.

The acceptance contract for bounded-memory serving: every injected map or
evict fault either recovers to the bitwise-identical answer (transient
map faults are retried once; evict faults never interrupt the logical
drop) or surfaces as the typed
:class:`~repro.db.errors.SegmentMapError` — and in *every* outcome zero
mappings are leaked (the conftest leak gate asserts that after each
test).  Selected by the CI ``chaos`` step via ``-k fault`` (the module
name).
"""

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.errors import SegmentMapError
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.udf import UserDefinedFunction
from repro.resilience import FaultPlan, FaultRule, fault_scope
from repro.serving import QueryService


def _map_fault_plan(addresses=None, probability=None, seed=77):
    return FaultPlan(
        seed=seed,
        rules={
            "segment_map": FaultRule(
                kind="error",
                addresses=frozenset(addresses) if addresses is not None else None,
                probability=probability,
            )
        },
    )


class TestMapFaults:
    def test_transient_map_fault_is_retried_to_bitwise_parity(
        self, table, make_lazy, cells
    ):
        lazy, manager, store = make_lazy(table)
        eager, _ = store.open()
        with fault_scope(_map_fault_plan(addresses={(0,), (3,)})):
            assert cells(lazy) == cells(eager)
        assert manager.snapshot()["map_faults"] == 2

    def test_persistent_map_fault_raises_typed_with_zero_mappings(
        self, table, make_lazy
    ):
        lazy, manager, _ = make_lazy(table)
        with fault_scope(_map_fault_plan(probability=1.0)):
            with pytest.raises(SegmentMapError) as excinfo:
                lazy.column_array("amount")
        assert excinfo.value.path.endswith(".seg")
        assert manager.resident_bytes == 0
        assert manager.mapped_segments == 0
        assert manager.snapshot()["map_faults"] == 2  # one retry per touch

    def test_map_faults_under_pressure_still_answer_bitwise(
        self, sharded_table, make_lazy
    ):
        lazy, manager, store = make_lazy(sharded_table, budget_bytes=2000)
        eager, _ = store.open()
        rng = np.random.default_rng(5)
        ids = rng.choice(sharded_table.num_rows, size=80, replace=False)
        with fault_scope(_map_fault_plan(probability=0.3, seed=123)):
            for column in sharded_table.schema.column_names:
                try:
                    got = lazy.gather_column(column, ids, allow_hidden=True)
                except SegmentMapError:
                    continue  # typed, never silent — retry off-fault below
                want = eager.gather_column(column, ids, allow_hidden=True)
                assert np.array_equal(np.asarray(got), np.asarray(want))
        assert manager.resident_bytes <= 2000


class TestMapBreakerDegrade:
    def test_repeated_map_failures_degrade_to_materialised(
        self, table, make_lazy, cells
    ):
        lazy, manager, store = make_lazy(table)
        eager, _ = store.open()
        breaker = lazy._map_breaker
        assert breaker is not None
        with fault_scope(_map_fault_plan(probability=1.0)):
            # failure_threshold=3: the third consecutive SegmentMapError
            # opens the breaker *as it is recorded*, so that same touch
            # degrades to materialised instead of raising.
            for _attempt in range(2):
                with pytest.raises(SegmentMapError):
                    lazy.column_array("amount")
            before = manager.snapshot()
            assert lazy.column_array("amount") is not None
        # Degraded: rebuilt in memory (reads bypass the map site), lazy no
        # more, nothing resident — and still bitwise-identical.
        assert not lazy.is_lazy
        assert manager.resident_bytes == 0
        counters = manager.snapshot()
        assert counters["tables_materialised"] == before["tables_materialised"] + 1
        assert counters["tables_degraded"] == before["tables_degraded"] + 1
        assert cells(lazy) == cells(eager)

    def test_sharded_degrade_keeps_query_answers_bitwise(
        self, sharded_table, make_lazy
    ):
        lazy, manager, store = make_lazy(sharded_table, budget_bytes=3000)
        eager, _ = store.open()

        def answer(source):
            catalog = Catalog()
            catalog.register_table(source)
            udf = UserDefinedFunction.from_label_column(f"udf_{source.name}", "f")
            catalog.register_udf(udf)
            service = QueryService(Engine(catalog))
            query = SelectQuery(
                table=source.name,
                predicate=UdfPredicate(udf),
                alpha=0.8,
                beta=0.8,
                rho=0.8,
                correlated_column="A",
            )
            result = service.submit(query, seed=31)
            service.close()
            return list(result.row_ids), result.ledger.evaluated_count

        baseline = answer(eager)
        first = lazy.shards[0]
        with fault_scope(_map_fault_plan(probability=1.0)):
            for _attempt in range(2):
                with pytest.raises(SegmentMapError):
                    first.column_array("amount")
            # The third failure trips the breaker (shared by every shard of
            # this table) and the touch degrades to materialised in place.
            assert first.column_array("amount") is not None
        assert not first.is_lazy
        # Off-fault, the remaining shards serve lazily; the answer matches
        # bitwise, and the service's close() leaves nothing resident.
        assert answer(lazy) == baseline
        assert manager.resident_bytes == 0


class TestEvictFaults:
    def test_evict_fault_never_leaks_the_mapping(self, table, make_lazy, cells):
        lazy, manager, store = make_lazy(table, budget_bytes=2000)
        eager, _ = store.open()
        plan = FaultPlan(
            seed=9,
            rules={"segment_evict": FaultRule(kind="error", probability=1.0)},
        )
        with fault_scope(plan):
            assert cells(lazy) == cells(eager)  # forces eviction every map
        snapshot = manager.snapshot()
        assert snapshot["evictions"] > 0
        assert snapshot["evict_faults"] == snapshot["evictions"]
        # The logical drop always completed: residency fits the budget.
        assert manager.resident_bytes <= 2000

    def test_evict_fault_during_evict_all_still_drops_everything(
        self, table, make_lazy
    ):
        lazy, manager, _ = make_lazy(table)
        for column in lazy.schema.column_names:
            lazy.column_array(column, allow_hidden=True)
        plan = FaultPlan(
            seed=9,
            rules={"segment_evict": FaultRule(kind="error", probability=1.0)},
        )
        with fault_scope(plan):
            dropped = manager.evict_all()
        assert dropped == len(lazy.schema.column_names)
        assert manager.resident_bytes == 0
        assert manager.mapped_segments == 0


class TestMapFaultCounterDiscipline:
    def test_fault_addresses_are_deterministic_across_runs(self, table, tmp_path):
        from repro.db.residency import ResidencyManager
        from repro.db.storage import TableStore

        outcomes = []
        for run in range(2):
            store = TableStore(str(tmp_path / f"det{run}"))
            store.save(table)
            manager = ResidencyManager()
            lazy, _ = store.open(residency=manager)
            failed = []
            with fault_scope(_map_fault_plan(probability=0.5, seed=55)):
                for column in sorted(lazy.schema.column_names):
                    try:
                        lazy.column_array(column, allow_hidden=True)
                        failed.append((column, "ok"))
                    except SegmentMapError:
                        failed.append((column, "typed"))
            outcomes.append(failed)
            manager.evict_all()
        assert outcomes[0] == outcomes[1]
