"""Data tables of the benchmark: what is interposed, what is reported.

``TARGETS`` lists the public callables :class:`bench.trace.Tracer` times.
``END_TO_END`` and ``PER_LAYER`` list every metric ``BENCHMARK.json`` names,
with its unit and the rule that derives it (see :mod:`bench.report`).  Layers are named
after the module below ``repro`` that does the work; ``serving.frontend`` is
the asyncio front-end inside ``serving/service.py`` and ``bench`` is the
benchmark's own share (load generator, root spans).
"""

from __future__ import annotations

from typing import Dict, Tuple

from bench.trace import Target

TARGETS: Tuple[Target, ...] = (
    # serving
    Target("serving.service", "submit", "repro.serving.service", "QueryService.submit", op_arg="seed"),
    Target("serving.service", "construct", "repro.serving.service", "QueryService.__init__"),
    Target("serving.service", "close", "repro.serving.service", "QueryService.close"),
    Target("serving.frontend", "submit_async", "repro.serving.service", "QueryService.submit_async"),
    Target("serving.signature", "plan_signature", "repro.serving.signature", "plan_signature"),
    Target("serving.plan_cache", "get", "repro.serving.plan_cache", "PlanCache.get"),
    Target("serving.plan_cache", "put", "repro.serving.plan_cache", "PlanCache.put"),
    Target("serving.stats_cache", "get_index", "repro.serving.stats_cache", "StatisticsCache.get_index"),
    Target("serving.stats_cache", "get_labeled", "repro.serving.stats_cache", "StatisticsCache.get_labeled"),
    Target("serving.stats_cache", "outcomes_for", "repro.serving.stats_cache", "StatisticsCache.outcomes_for"),
    Target("serving.stats_cache", "stale_labeled", "repro.serving.stats_cache", "StatisticsCache.stale_labeled"),
    Target("serving.stats_cache", "stale_outcome", "repro.serving.stats_cache", "StatisticsCache.stale_outcome"),
    Target("serving.stats_cache", "put_labeled", "repro.serving.stats_cache", "StatisticsCache.put_labeled"),
    Target("serving.stats_cache", "put_outcome", "repro.serving.stats_cache", "StatisticsCache.put_outcome"),
    Target("serving.persistence", "save", "repro.serving.persistence", "save_warm_state"),
    Target("serving.persistence", "restore", "repro.serving.persistence", "restore_warm_state"),
    # core
    Target("core.pipeline", "answer", "repro.core.pipeline", "IntelSample.answer"),
    Target("core.column_selection", "draw_labeled_sample", "repro.core.column_selection", "draw_labeled_sample"),
    Target("core.column_selection", "select_correlated_column", "repro.core.column_selection", "select_correlated_column"),
    Target("core.column_selection", "top_up_labeled_sample", "repro.core.column_selection", "top_up_labeled_sample"),
    Target("sampling.sampler", "sample", "repro.sampling.sampler", "GroupSampler.sample"),
    Target("core.sampling_program", "solve", "repro.core.sampling_program", "solve_with_samples"),
    Target("core.estimated", "solve", "repro.core.estimated", "solve_estimated_selectivity"),
    Target("solvers.convex", "solve", "repro.solvers.convex", "ConvexSolver.solve"),
    Target("core.executor", "execute", "repro.core.executor", "BatchExecutor.execute"),
    Target("core.parallel", "build", "repro.core.parallel", "build_span_tasks"),
    Target("core.parallel", "fold", "repro.core.parallel", "fold_span_outcomes"),
    Target("core.parallel", "merge", "repro.core.parallel", "merge_span_outcomes"),
    Target("core.parallel", "execute", "repro.core.parallel", "ParallelBatchExecutor.execute"),
    Target("core.parallel", "evaluate_rows", "repro.core.parallel", "ParallelBatchExecutor.evaluate_rows"),
    Target("core.procpool", "execute", "repro.core.procpool", "ProcessPoolBatchExecutor.execute"),
    Target("core.procpool", "evaluate_rows", "repro.core.procpool", "ProcessPoolBatchExecutor.evaluate_rows"),
    # db
    Target("db.shm", "export", "repro.db.shm", "export_table_spans"),
    Target("db.shm", "release", "repro.db.shm", "release_exports"),
    Target("db.udf", "evaluate_rows", "repro.db.udf", "UserDefinedFunction.evaluate_rows"),
    Target("db.udf", "evaluate_row", "repro.db.udf", "UserDefinedFunction.evaluate_row"),
    Target("db.udf", "merge_remote", "repro.db.udf", "UserDefinedFunction.merge_remote_evaluations"),
    Target("db.index", "build", "repro.db.index", "GroupIndex.__init__"),
    Target("db.index", "build_merged", "repro.db.index", "MergedGroupIndex.__init__"),
    Target("db.index", "extend", "repro.db.index", "GroupIndex.extended_by"),
    Target("db.index", "extend_merged", "repro.db.index", "MergedGroupIndex.extended_by"),
    Target("db.table", "gather", "repro.db.table", "Table.gather_column"),
    Target("db.sharding", "append", "repro.db.sharding", "ShardedTable.append_columns"),
    Target("db.sharding", "gather", "repro.db.sharding", "ShardedTable.column_array"),
    Target("db.sharding", "group_index", "repro.db.sharding", "ShardedTable.group_index"),
    Target("db.storage", "append", "repro.db.storage.store", "TableStore.append"),
    Target("db.storage", "save", "repro.db.storage.store", "TableStore.save"),
    Target("db.storage", "open", "repro.db.storage.store", "TableStore.open"),
    Target("db.storage", "journal_append", "repro.db.storage.journal", "append_record"),
    Target("db.storage", "write_segment", "repro.db.storage.segments", "write_segment"),
    Target("db.residency", "gather", "repro.db.residency", "LazyShardedTable.gather_column"),
    Target("db.residency", "gather_shard", "repro.db.residency", "LazySegmentTable.gather_column"),
    Target("db.residency", "column_array", "repro.db.residency", "LazySegmentTable.column_array"),
    Target("db.residency", "evict_all", "repro.db.residency", "ResidencyManager.evict_all"),
)

#: name -> unit.  Direction and regression bound of each metric are in
#: ``BENCHMARK.json`` and nowhere else.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "cost_vs_naive": "ratio",
    "guarantee_sat_share": "share",
    "ok_ops_share": "share",
    "peak_rss_mb": "MB",
}

# How a per-layer metric is derived (bench.report.per_layer):
#   ("self", layer)          self time of the layer's spans in timed ops, ms per op
#   ("incl", names...)       inclusive time of the outermost named spans in timed ops, ms per op
#   ("calls", names...)      number of named spans in timed ops, per op
#   ("run_incl", names...)   inclusive time of the named spans over the whole traced pass, ms
#   ("run_calls", names...)  number of named spans over the whole traced pass
#   ("per_op", counter)      counter delta over the timed phase, per op
#   ("value", key)           a number the report computes directly
#: name -> (unit, rule)
PER_LAYER: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "serving.service.self_ms": ("ms", ("self", "serving.service")),
    "serving.service.submit_calls": ("1/op", ("calls", "serving.service.submit")),
    "serving.plan_cache.lookup_ms": ("ms", ("incl", "serving.plan_cache.get")),
    "serving.plan_cache.hit_rate": ("share", ("value", "plan_cache_hit_rate")),
    "serving.stats_cache.lookup_ms": (
        "ms",
        (
            "incl",
            "serving.stats_cache.get_index",
            "serving.stats_cache.get_labeled",
            "serving.stats_cache.outcomes_for",
            "serving.stats_cache.stale_labeled",
            "serving.stats_cache.stale_outcome",
        ),
    ),
    "serving.stats_cache.hit_rate": ("share", ("value", "stats_cache_hit_rate")),
    "serving.service.tail_p99_ms": ("ms", ("value", "tail_p99_ms")),
    "serving.service.tail_max_ms": ("ms", ("value", "tail_max_ms")),
    "serving.service.hit_ms_p50": ("ms", ("value", "hit_ms_p50")),
    "serving.service.miss_ms_p50": ("ms", ("value", "miss_ms_p50")),
    "serving.service.refresh_ms_p50": ("ms", ("value", "refresh_ms_p50")),
    "serving.service.restored_ms_p50": ("ms", ("value", "restored_ms_p50")),
    "serving.frontend.queue_wait_ms_p50": ("ms", ("value", "queue_wait_ms_p50")),
    "serving.frontend.queue_wait_ms_p90": ("ms", ("value", "queue_wait_ms_p90")),
    "serving.frontend.shed": ("1/op", ("per_op", "service.shed")),
    "serving.frontend.coalesced": ("1/op", ("per_op", "service.coalesced")),
    "serving.persistence.save_ms": ("ms", ("incl", "serving.persistence.save")),
    "serving.persistence.restore_ms": ("ms", ("incl", "serving.persistence.restore")),
    "core.pipeline.self_ms": ("ms", ("self", "core.pipeline")),
    "core.pipeline.calls": ("1/op", ("calls", "core.pipeline.answer")),
    "core.column_selection.ms": (
        "ms",
        (
            "incl",
            "core.column_selection.draw_labeled_sample",
            "core.column_selection.select_correlated_column",
            "core.column_selection.top_up_labeled_sample",
        ),
    ),
    "core.column_selection.calls": (
        "1/op",
        (
            "calls",
            "core.column_selection.draw_labeled_sample",
            "core.column_selection.select_correlated_column",
            "core.column_selection.top_up_labeled_sample",
        ),
    ),
    "sampling.sampler.ms": ("ms", ("incl", "sampling.sampler.sample")),
    "sampling.sampler.rows_sampled": ("1/op", ("per_op", "rows_sampled")),
    "core.sampling_program.solve_ms": ("ms", ("incl", "core.sampling_program.solve")),
    "core.sampling_program.solve_calls": ("1/op", ("calls", "core.sampling_program.solve")),
    "solvers.convex.solve_ms": ("ms", ("incl", "solvers.convex.solve")),
    "solvers.convex.calls": ("1/op", ("calls", "solvers.convex.solve")),
    "core.executor.execute_ms": ("ms", ("incl", "core.executor.execute")),
    "core.executor.calls": ("1/op", ("calls", "core.executor.execute")),
    "core.executor.rows_retrieved": ("1/op", ("per_op", "rows_retrieved")),
    "core.executor.rows_evaluated": ("1/op", ("per_op", "rows_evaluated")),
    "core.parallel.build_ms": ("ms", ("incl", "core.parallel.build")),
    "core.parallel.fold_ms": ("ms", ("incl", "core.parallel.fold", "core.parallel.merge")),
    "core.procpool.execute_ms": ("ms", ("incl", "core.procpool.execute")),
    "core.procpool.evaluate_rows_ms": ("ms", ("incl", "core.procpool.evaluate_rows")),
    "core.procpool.calls": ("1/op", ("calls", "core.procpool.execute")),
    "core.procpool.retried_spans": ("1/op", ("per_op", "service.retried_spans")),
    "core.procpool.degraded": ("1/op", ("per_op", "service.degraded")),
    "db.shm.export_ms": ("ms", ("run_incl", "db.shm.export")),
    "db.shm.export_calls": ("count", ("run_calls", "db.shm.export")),
    "db.shm.segments": ("count", ("value", "shm_segments")),
    "db.udf.evaluate_ms": (
        "ms",
        ("incl", "db.udf.evaluate_rows", "db.udf.evaluate_row", "db.udf.merge_remote"),
    ),
    "db.udf.rows_evaluated": ("1/op", ("per_op", "udf.calls")),
    "db.udf.memo_hit_rate": ("share", ("value", "udf_memo_hit_rate")),
    "db.udf.bulk_calls": ("1/op", ("per_op", "udf.bulk_calls")),
    "db.udf.row_calls": ("1/op", ("per_op", "udf.row_calls")),
    "db.index.build_ms": ("ms", ("run_incl", "db.index.build", "db.index.build_merged")),
    "db.index.builds": ("count", ("value", "index_builds")),
    "db.index.extend_ms": ("ms", ("incl", "db.index.extend", "db.index.extend_merged")),
    "db.index.extensions": ("1/op", ("per_op", "index.extensions")),
    "db.sharding.append_ms": ("ms", ("incl", "db.sharding.append")),
    "db.sharding.gather_ms": ("ms", ("incl", "db.sharding.gather")),
    "db.storage.append_ms_p50": ("ms", ("value", "append_ms_p50")),
    "db.storage.append_ms_p90": ("ms", ("value", "append_ms_p90")),
    "db.storage.save_ms": ("ms", ("incl", "db.storage.save")),
    "db.storage.open_ms": ("ms", ("incl", "db.storage.open")),
    "db.storage.bytes_written_per_user_byte": ("ratio", ("value", "bytes_written_per_user_byte")),
    "db.storage.segments_written": ("1/op", ("per_op", "storage.segments_written")),
    "db.storage.journal_replays": ("1/op", ("per_op", "storage.journal_replays")),
    "db.storage.checksum_failures": ("1/op", ("per_op", "storage.checksum_failures")),
    "db.residency.map_ms": ("ms", ("value", "residency_map_ms")),
    "db.residency.maps": ("1/op", ("per_op", "residency.maps")),
    "db.residency.evictions": ("1/op", ("per_op", "residency.evictions")),
    "db.residency.refaults": ("1/op", ("per_op", "residency.refaults")),
    "db.residency.peak_resident_bytes": ("bytes", ("value", "peak_resident_bytes")),
    "bench.trace_overhead_share": ("share", ("value", "trace_overhead_share")),
    "bench.machine_slowdown": ("ratio", ("value", "machine_slowdown")),
    "bench.raw_throughput_ops_s": ("ops/s", ("value", "raw_throughput_ops_s")),
    "bench.raw_query_p50_ms": ("ms", ("value", "raw_query_p50_ms")),
    "bench.raw_query_p90_ms": ("ms", ("value", "raw_query_p90_ms")),
}
