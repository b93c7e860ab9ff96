"""Tests for the QueryService front-end: caching, concurrency, admission."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.errors import BudgetExhaustedError, UnsupportedQueryError
from repro.db.index import GroupIndex
from repro.db.predicate import ColumnPredicate, UdfPredicate
from repro.db.query import SelectQuery
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.serving import AdmissionError, QueryService, ServiceConfig
from repro.stats.metrics import result_quality


@pytest.fixture(scope="module")
def serving_dataset():
    return load_dataset("lending_club", random_state=42, scale=0.03)


@pytest.fixture
def serving_setup(serving_dataset):
    catalog = Catalog()
    catalog.register_table(serving_dataset.table)
    udf = serving_dataset.make_udf("served")
    catalog.register_udf(udf)
    return serving_dataset, catalog, udf


def _query(dataset, udf, alpha=0.8, beta=0.8, column="grade", cheap=()):
    return SelectQuery(
        table=dataset.table.name,
        predicate=UdfPredicate(udf),
        cheap_predicates=list(cheap),
        alpha=alpha,
        beta=beta,
        rho=0.8,
        correlated_column=column,
    )


class TestPlanCaching:
    def test_repeated_query_skips_solver_and_sampling(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)

        cold = service.submit(query, seed=0)
        assert cold.metadata["plan_cache"] == "miss"
        warm = service.submit(query, seed=1)
        assert warm.metadata["plan_cache"] == "hit"
        metrics = service.stats().serving
        assert metrics["pipeline_runs"] == 1
        assert metrics["plan_hits"] == 1
        # Warm execution pays only for rows never evaluated before; the bulk
        # of its evaluations come from the memo cache filled by the cold run.
        assert warm.metadata["udf_cache"]["calls"] < cold.metadata["udf_cache"]["calls"] / 4

    @pytest.mark.parametrize(
        "name, scale",
        [("lending_club", 0.03), ("lending_club", 0.5), ("census", 0.03), ("prosper", 0.03)],
    )
    def test_warm_replay_amortises_the_cold_path(self, name, scale):
        """A trace over four signatures costs a fifth of its cold replay.

        Cold: both caches off and the UDF memo wiped before every query, so
        each query labels, samples, solves and executes from scratch.
        Warm: the default service.  Work is UDF evaluations plus solver
        calls.  The cold path stays batched — not one per-row UDF call —
        and builds at most one group index per column, however long the
        trace.
        """
        serving_dataset = load_dataset(name, random_state=42, scale=scale)
        signatures = ((0.8, 0.8), (0.9, 0.7), (0.7, 0.9), (0.85, 0.75))
        configs = {
            "cold": ServiceConfig(plan_cache_size=0, stats_cache_size=0, free_memoized=False),
            "warm": ServiceConfig(),
        }
        work = {}
        for label, config in configs.items():
            catalog = Catalog()
            catalog.register_table(serving_dataset.table)
            udf = serving_dataset.make_udf(f"amortised_{label}")
            catalog.register_udf(udf)
            service = QueryService(Engine(catalog), config=config)
            builds = GroupIndex.builds_total
            calls = row_calls = 0
            for position in range(40):
                if label == "cold":
                    udf.reset()
                alpha, beta = signatures[position % len(signatures)]
                before = udf.counter_snapshot()
                query = _query(
                    serving_dataset, udf, alpha, beta, column=serving_dataset.correlated_column
                )
                service.submit(query, seed=50_000 + position)
                delta = udf.counter_delta(before)
                calls += delta["calls"]
                row_calls += delta["row_calls"]
            work[label] = calls + service.stats().serving["solver_calls"]
            if label == "cold":
                assert row_calls == 0
                assert GroupIndex.builds_total - builds <= serving_dataset.table.num_columns
        assert work["cold"] >= 5 * work["warm"], work

    def test_reordered_cheap_predicates_share_plan(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        a = ColumnPredicate("grade", "!=", "G")
        b = ColumnPredicate("grade", "!=", "F")
        service.submit(_query(dataset, udf, cheap=[a, b]), seed=0)
        warm = service.submit(_query(dataset, udf, cheap=[b, a]), seed=1)
        assert warm.metadata["plan_cache"] == "hit"

    def test_stale_solver_version_entries_are_not_replayed(self, serving_setup):
        """A plan solved by an older solver stack must re-plan, not replay.

        The signature embeds PLAN_CACHE_VERSION, so live processes can never
        produce a collision; this simulates an entry restored from an
        external snapshot by rewriting a fresh entry's version stamp.
        """
        from dataclasses import replace

        from repro.core.constraints import CostModel
        from repro.serving.plan_cache import PLAN_CACHE_VERSION
        from repro.serving.signature import plan_signature

        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        service.submit(query, seed=0)

        cost_model = CostModel(
            retrieval_cost=service.engine.retrieval_cost,
            evaluation_cost=service.engine.evaluation_cost,
        )
        signature = plan_signature(query, cost_model, service._strategy_prototype)
        entry = service.plan_cache.get(signature, record=False)
        assert entry is not None
        assert entry.solver_version == PLAN_CACHE_VERSION
        service.plan_cache.put(
            signature, replace(entry, solver_version=PLAN_CACHE_VERSION - 1)
        )

        misses_before = service.plan_cache.snapshot()["misses"]
        hits_before = service.plan_cache.snapshot()["hits"]
        result = service.submit(query, seed=1)
        assert result.metadata["plan_cache"] == "miss"
        refreshed = service.plan_cache.get(signature, record=False)
        assert refreshed.solver_version == PLAN_CACHE_VERSION
        # The dead entry must be accounted as the miss it behaved as, not as
        # a hit: the reported hit rate counts only what was served warm.
        stats = service.plan_cache.snapshot()
        assert stats["misses"] == misses_before + 1
        assert stats["hits"] == hits_before

    def test_warm_results_stay_within_constraints(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        service.submit(query, seed=0)
        satisfied = 0
        runs = 5
        for seed in range(runs):
            result = service.submit(query, seed=seed + 100)
            quality = result_quality(result.row_ids, dataset.ground_truth_row_ids())
            if quality.satisfies(query.alpha, query.beta):
                satisfied += 1
        assert satisfied >= runs - 1

    def test_statistics_reused_across_constraints(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        service.submit(_query(dataset, udf, alpha=0.8, beta=0.8), seed=0)
        other = service.submit(_query(dataset, udf, alpha=0.7, beta=0.9), seed=1)
        # Different constraints -> new plan, but the sampling evidence is
        # reused so no fresh UDF evaluations are charged.
        assert other.metadata["plan_cache"] == "miss"
        assert "grade" in other.metadata["stats_cache"]["outcome_hits"]
        assert other.ledger.evaluated_count == 0

    def test_disabled_caches_always_plan(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(
            Engine(catalog), config=ServiceConfig(plan_cache_size=0, stats_cache_size=0)
        )
        query = _query(dataset, udf)
        service.submit(query, seed=0)
        service.submit(query, seed=1)
        assert service.stats().serving["pipeline_runs"] == 2

    def test_exact_queries_bypass_caches(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        exact = SelectQuery(
            table=dataset.table.name,
            predicate=UdfPredicate(udf),
            alpha=1.0,
            beta=1.0,
            rho=0.95,
        )
        result = service.submit(exact, seed=0)
        assert set(result.row_ids) == dataset.ground_truth_row_ids()
        assert service.stats().serving["exact_queries"] == 1

    def test_audit_does_not_prepay_future_queries(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        # Auditing peeks at every row's truth; that peek must not fill the
        # memo cache, or warm accounting would charge nothing ever after.
        service.submit(query, seed=0, audit=True)
        assert udf.counter_snapshot()["cache_size"] < dataset.num_rows
        warm = service.submit(query, seed=1)
        assert warm.ledger.retrieved_count > 0

    def test_unknown_named_strategy_raises(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = SelectQuery(
            table=dataset.table.name,
            predicate=UdfPredicate(udf),
            alpha=0.8,
            beta=0.8,
            rho=0.8,
            strategy="does_not_exist",
        )
        with pytest.raises(UnsupportedQueryError):
            service.submit(query, seed=0)


class TestConcurrency:
    def test_concurrent_replay_matches_serial(self, serving_setup, assert_same_rows):
        """N threads over a warm shared service reproduce the serial replay."""
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        queries = [
            _query(dataset, udf, alpha=0.8, beta=0.8),
            _query(dataset, udf, alpha=0.7, beta=0.9),
            _query(dataset, udf, alpha=0.75, beta=0.85),
        ]
        # Warm every signature, then snapshot a serial replay.
        for position, query in enumerate(queries):
            service.submit(query, seed=1000 + position)
        trace = [(queries[i % len(queries)], 7 * i + 13) for i in range(48)]
        serial = [service.submit(query, seed=seed).row_ids for query, seed in trace]

        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(
                pool.map(lambda item: service.submit(item[0], seed=item[1]).row_ids, trace)
            )
        assert len(concurrent) == len(serial)
        for replayed, expected in zip(concurrent, serial):
            assert_same_rows(replayed, expected)

    def test_single_flight_plans_once(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        barrier = threading.Barrier(6)

        def request(seed):
            barrier.wait()
            return service.submit(query, seed=seed)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(request, range(6)))
        assert all(len(result.row_ids) > 0 for result in results)
        assert service.stats().serving["pipeline_runs"] == 1

    def test_distinct_cold_signatures_progress_independently(self):
        """One signature's open flight must not block unrelated signatures.

        Two cold queries with distinct signatures have to be *inside
        planning at the same time*: their shared UDF parks each query's
        first evaluation at a two-party barrier.  If opening, leading or
        landing one signature's flight made another signature wait, the
        second party would never arrive and the barrier would time out.
        """
        rng = np.random.default_rng(9)
        table = Table.from_columns(
            "flights",
            {
                "A": [f"a{int(v)}" for v in rng.integers(0, 4, 300)],
                "f": [bool(v) for v in rng.random(300) < 0.4],
            },
            hidden_columns=["f"],
        )
        rendezvous = threading.Barrier(2, timeout=10.0)
        arrived = threading.local()

        def func(row):
            if not getattr(arrived, "done", False):
                arrived.done = True
                rendezvous.wait()  # BrokenBarrierError if the other never plans
            return bool(row["f"])

        udf = UserDefinedFunction("rendezvous", func)
        catalog = Catalog()
        catalog.register_table(table)
        catalog.register_udf(udf)
        service = QueryService(Engine(catalog))
        queries = [
            SelectQuery(
                table="flights",
                predicate=UdfPredicate(udf),
                alpha=alpha,
                beta=0.7,
                rho=0.8,
                correlated_column="A",
            )
            for alpha in (0.7, 0.75)
        ]

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(service.submit, query, seed=seed)
                for seed, query in enumerate(queries)
            ]
            results = [future.result(timeout=30) for future in futures]
        assert all(result.metadata["plan_cache"] == "miss" for result in results)
        metrics = service.stats().serving
        assert metrics["pipeline_runs"] == 2
        assert metrics["flight_waits"] == 0

    def test_concurrent_distinct_clients(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        service.submit(query, seed=0)  # warm

        def request(client):
            return service.submit(query, client_id=f"client_{client % 4}", seed=client)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(request, range(32)))
        sessions = service.sessions.snapshot()
        assert len(sessions) == 4
        assert sum(s["admitted"] for s in sessions.values()) == 32


class TestAdmission:
    def test_zero_budget_client_rejected(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        service.sessions.session("broke", budget=0.0)
        with pytest.raises(AdmissionError):
            service.submit(_query(dataset, udf), client_id="broke", seed=0)
        assert service.sessions.session("broke").rejected == 1

    def test_tiny_budget_stopped_mid_flight(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        service.sessions.session("tiny", budget=20.0)
        with pytest.raises(BudgetExhaustedError):
            service.submit(_query(dataset, udf), client_id="tiny", seed=0)
        # The ledger stopped at the budget, and the spend was settled.
        assert service.sessions.session("tiny").spent <= 20.0 + 1e-9

    def test_warm_plan_degrades_to_remaining_budget(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        cold = service.submit(query, seed=0)
        assert cold.metadata["plan_cache"] == "miss"
        # A budget well below the cached plan's expected execution cost
        # triggers the budget-constrained re-solve instead of a failure.
        service.sessions.session("capped", budget=100.0)
        result = service.submit(query, client_id="capped", seed=1)
        assert result.metadata["plan_cache"] == "hit"
        assert result.metadata["degraded_to_budget"] is True
        assert result.ledger.total_cost <= 100.0 + 1e-9
        assert service.stats().serving["degraded_plans"] == 1

    def test_concurrent_requests_cannot_jointly_overspend(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        cold = service.submit(query, seed=0)
        budget = cold.ledger.total_cost * 1.5  # enough for ~1.5 full queries
        service.sessions.session("shared", budget=budget)

        def request(seed):
            try:
                return service.submit(query, client_id="shared", seed=seed)
            except (AdmissionError, BudgetExhaustedError):
                return None

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(request, range(12)))
        session = service.sessions.session("shared")
        assert session.spent <= budget + 1e-6
        assert session.reserved == pytest.approx(0.0)

    def test_budgeted_client_concurrency_queues_not_rejects(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        warm_cost = service.submit(query, seed=0).ledger.total_cost
        # Plenty of budget for every request: concurrent arrivals must queue
        # behind each other, not bounce off an in-flight sibling's reservation.
        service.sessions.session("queued", budget=100 * max(warm_cost, 1.0))

        def request(seed):
            return service.submit(query, client_id="queued", seed=seed)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(request, range(6)))
        assert all(result is not None for result in results)
        assert service.sessions.session("queued").rejected == 0

    def test_reregistered_table_invalidates_caches(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        service.submit(query, seed=0)
        assert service.submit(query, seed=1).metadata["plan_cache"] == "hit"
        # Replace the table with a smaller copy under the same name: stale
        # plans/statistics would return row ids that do not exist any more.
        smaller = dataset.table.select_rows(range(50), name=dataset.table.name)
        catalog.register_table(smaller, replace=True)
        result = service.submit(query, seed=2)
        assert result.metadata["plan_cache"] == "miss"
        assert all(0 <= row_id < 50 for row_id in result.row_ids)

    def test_unbudgeted_clients_unrestricted(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        for seed in range(3):
            service.submit(query, client_id="free", seed=seed)
        session = service.sessions.session("free")
        assert session.admitted == 3
        assert session.spent > 0


class TestUdfCounters:
    def test_metadata_reports_hits_and_misses(self, serving_setup):
        dataset, catalog, udf = serving_setup
        service = QueryService(Engine(catalog))
        query = _query(dataset, udf)
        cold = service.submit(query, seed=0)
        assert cold.metadata["udf_cache"]["cache_misses"] > 0
        warm = service.submit(query, seed=1)
        meta = warm.metadata["udf_cache"]
        # Cache effectiveness is observable end-to-end: the warm pass is
        # dominated by memo hits, with few (often zero) fresh calls.
        assert meta["cache_hits"] > 0
        assert meta["cache_misses"] < cold.metadata["udf_cache"]["cache_misses"] / 4
        assert meta["calls"] == meta["cache_misses"]


class TestGenerationRefresh:
    """Appends bump the data generation; warm entries refresh via the delta path."""

    def _fresh_setup(self, rows=3000, seed=8):
        import numpy as np

        from repro.db.table import Table
        from repro.db.udf import UserDefinedFunction

        rng = np.random.default_rng(seed)
        grades = [f"g{int(v)}" for v in rng.integers(0, 5, rows)]
        rates = {"g0": 0.15, "g1": 0.35, "g2": 0.5, "g3": 0.7, "g4": 0.9}
        labels = [bool(rng.random() < rates[g]) for g in grades]
        table = Table.from_columns(
            "churny", {"grade": grades, "is_good": labels}, hidden_columns=["is_good"]
        )
        udf = UserDefinedFunction.from_label_column("churny_udf", "is_good")
        catalog = Catalog()
        catalog.register_table(table)
        catalog.register_udf(udf)
        return table, udf, catalog

    def _delta(self, rows, seed=77):
        import numpy as np

        rng = np.random.default_rng(seed)
        grades = [f"g{int(v)}" for v in rng.integers(0, 5, rows)]
        return {
            "grade": grades,
            "is_good": [bool(v) for v in rng.random(rows) < 0.5],
        }

    def test_append_turns_next_submit_into_refresh(self):
        table, udf, catalog = self._fresh_setup()
        service = QueryService(Engine(catalog))
        query = SelectQuery(
            "churny", UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8,
            correlated_column="grade",
        )
        cold = service.submit(query, seed=0)
        warm = service.submit(query, seed=1)
        assert cold.metadata["plan_cache"] == "miss"
        assert warm.metadata["plan_cache"] == "hit"

        table.append_columns(self._delta(60))
        refreshed = service.submit(query, seed=2, audit=True)
        assert refreshed.metadata["plan_cache"] == "refresh"
        # the refresh reused the cached sampling evidence: far less paid UDF
        # work than the cold run, and quality still holds
        assert refreshed.ledger.evaluated_count < cold.ledger.evaluated_count / 2
        assert refreshed.quality.precision > 0.5

        metrics = service.stats().serving
        assert metrics["plan_refreshes"] == 1
        assert metrics["pipeline_runs"] == 1  # only the cold run ran the pipeline
        # the refreshed entry is live again: the next submit is a plain hit
        again = service.submit(query, seed=3)
        assert again.metadata["plan_cache"] == "hit"
        # and its results cover the appended rows (row ids beyond the old end
        # are reachable by the refreshed plan)
        assert table.num_rows == 3060

    def test_hit_after_refresh_serves_appended_rows_from_a_fresh_frame(self, assert_same_rows):
        """Stale-frame guard: the memoised candidate frame dies with its inputs.

        The hit before the append memoises a frame on the pre-append index;
        the append extends the index (a new object) and the refresh re-solves
        over a new sample outcome, so the next hit must build its frame again
        — it returns appended rows, and it equals the tuple-at-a-time
        reference run cold over a never-appended twin of the same data.
        """
        from repro.core.executor import PlanExecutor, candidate_frame
        from repro.db.table import Table
        from repro.db.udf import CostLedger

        table, udf, catalog = self._fresh_setup()
        service = QueryService(Engine(catalog))
        query = SelectQuery(
            "churny", UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8,
            correlated_column="grade",
        )
        service.submit(query, seed=0)
        assert service.submit(query, seed=1).metadata["plan_cache"] == "hit"
        (old_entry,) = [entry for _, entry in service.plan_cache._cache.items()]
        old_index = table.group_index("grade")
        old_frame = candidate_frame(old_index, old_entry.sample_outcome)
        assert old_index._derived  # the hit memoised it

        table.append_columns(self._delta(400))
        assert service.submit(query, seed=2).metadata["plan_cache"] == "refresh"
        hit = service.submit(query, seed=3)
        assert hit.metadata["plan_cache"] == "hit"

        (entry,) = [entry for _, entry in service.plan_cache._cache.items()]
        index = table.group_index("grade")
        assert index is not old_index
        assert entry.sample_outcome is not old_entry.sample_outcome
        frame = candidate_frame(index, entry.sample_outcome)
        assert frame is not old_frame
        assert (
            sum(rows.size for rows in frame.candidates)
            + entry.sample_outcome.total_sampled
            == table.num_rows
            == 3400
        )
        assert max(hit.row_ids) >= 3000  # appended rows are served

        twin = Table.from_columns(
            "churny",
            {
                name: table.column_values(name, allow_hidden=True)
                for name in table.schema.column_names
            },
            hidden_columns=["is_good"],
        )
        udf.reset()
        reference = PlanExecutor().execute(
            twin,
            twin.group_index("grade"),
            udf,
            entry.plan,
            CostLedger(), 3,
            sample_outcome=entry.sample_outcome,
        )
        assert_same_rows(hit.row_ids, reference.returned_row_ids)
        assert hit.ledger.retrieved_count == reference.ledger.retrieved_count

    def test_refresh_recounts_stats_cache(self):
        table, udf, catalog = self._fresh_setup()
        service = QueryService(Engine(catalog))
        query = SelectQuery(
            "churny", UdfPredicate(udf), alpha=0.85, beta=0.75, rho=0.8,
        )  # automatic column selection -> labelled sample cached
        service.submit(query, seed=0)
        table.append_columns(self._delta(30))
        refreshed = service.submit(query, seed=1)
        assert refreshed.metadata["plan_cache"] == "refresh"
        stats = service.stats().stats_cache
        assert (
            stats["labeled_samples"]["refreshes"]
            + stats["sample_outcomes"]["refreshes"]
        ) >= 1

    def test_refresh_skips_column_reselection(self):
        table, udf, catalog = self._fresh_setup()
        service = QueryService(Engine(catalog))
        query = SelectQuery(
            "churny", UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8,
        )
        cold = service.submit(query, seed=0)
        column = cold.metadata["report"].correlated_column
        table.append_columns(self._delta(25))
        refreshed = service.submit(query, seed=1)
        assert refreshed.metadata["plan_cache"] == "refresh"
        assert refreshed.metadata["report"].correlated_column == column
        assert refreshed.metadata["report"].column_costs is None  # no re-search

    def test_exact_queries_see_appended_rows(self):
        table, udf, catalog = self._fresh_setup(rows=200)
        service = QueryService(Engine(catalog))
        query = SelectQuery("churny", UdfPredicate(udf), alpha=1.0, beta=1.0, rho=0.9)
        before = service.submit(query, seed=0)
        table.append_columns({"grade": ["g4"] * 10, "is_good": [True] * 10})
        after = service.submit(query, seed=1)
        assert set(after.row_ids) >= set(before.row_ids)
        assert set(range(200, 210)) <= set(after.row_ids)

    def test_shrunk_or_replaced_table_still_cold_misses(self):
        table, udf, catalog = self._fresh_setup(rows=500)
        service = QueryService(Engine(catalog))
        query = SelectQuery(
            "churny", UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8,
            correlated_column="grade",
        )
        service.submit(query, seed=0)
        # re-registering a different table object invalidates by identity
        replacement, _, _ = self._fresh_setup(rows=500, seed=9)
        catalog.register_table(replacement, replace=True)
        result = service.submit(query, seed=1)
        assert result.metadata["plan_cache"] == "miss"
        assert service.stats().serving["plan_refreshes"] == 0


class TestLifetime:
    @pytest.mark.parametrize(
        "config",
        [ServiceConfig(), ServiceConfig(executor="process", max_workers=1)],
        ids=["serial", "process"],
    )
    def test_dropped_service_frees_tables_memos_and_frames_without_the_collector(self, config):
        """Nothing in a service, its caches, its UDFs or its tables' indexes is
        a reference cycle: dropping them frees the column arrays, the UDF memo
        and the memoised candidate frames at once, not at the next full
        collector pass (which a long-lived process runs rarely).  On the
        process backend a placement holds the service's ``_note_degraded``,
        which is why the service builds one per request instead of keeping
        one."""
        import gc
        import weakref

        from repro.core.executor import candidate_frame
        from repro.db.table import Table
        from repro.db.udf import UserDefinedFunction

        table = Table.from_columns(
            "short_lived",
            {"grade": ["a", "b", "c", "d"] * 200, "is_good": [True, False, True, True] * 200},
            hidden_columns=["is_good"],
        )
        udf = UserDefinedFunction.from_label_column("short_lived_udf", "is_good")
        catalog = Catalog()
        catalog.register_table(table)
        catalog.register_udf(udf)
        service = QueryService(Engine(catalog), config=config)
        query = SelectQuery(
            "short_lived", UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8,
            correlated_column="grade",
        )
        service.submit(query, seed=0)
        assert service.submit(query, seed=1).metadata["plan_cache"] == "hit"
        (entry,) = [entry for _, entry in service.plan_cache._cache.items()]
        index = table.group_index("grade")
        refs = [
            weakref.ref(obj)
            for obj in (
                service,
                catalog,
                table,
                udf,
                index,
                entry.sample_outcome,
                candidate_frame(index, entry.sample_outcome),
            )
        ]
        gc.collect()
        gc.disable()
        try:
            service.close()
            del service, catalog, table, udf, query, entry, index
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
