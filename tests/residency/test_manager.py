"""ResidencyManager: budget enforcement, LRU order, pins, pressure levels."""

import numpy as np
import pytest

from repro.db.residency import PRESSURE_LEVELS, ResidencyManager


def _touch(table, column):
    """Map one column's segment (whole-column read, no pin held after)."""
    return table.column_array(column, allow_hidden=True)


def _handle(table, column):
    return table.segment_handle(column)


class TestBudgetEnforcement:
    def test_unbounded_manager_tracks_without_evicting(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table)
        for column in lazy.schema.column_names:
            _touch(lazy, column)
        assert manager.mapped_segments == len(lazy.schema.column_names)
        assert manager.resident_bytes > 0
        assert manager.snapshot()["evictions"] == 0
        assert manager.pressure_level == "ok"

    def test_resident_bytes_charge_actual_nbytes(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table)
        array = _touch(lazy, "amount")
        assert manager.resident_bytes == _handle(lazy, "amount").nbytes
        assert _handle(lazy, "amount").nbytes == array.nbytes

    def test_over_budget_mappings_are_evicted(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=2500)
        for column in lazy.schema.column_names:
            _touch(lazy, column)
        assert manager.resident_bytes <= 2500
        assert manager.snapshot()["evictions"] > 0

    def test_eviction_order_is_lru(self, table, make_lazy):
        # float64 'amount' and int64 'count' are 1920 bytes each at 240
        # rows; a 4000-byte budget holds both, a third map evicts the LRU.
        lazy, manager, _ = make_lazy(table, budget_bytes=4000)
        _touch(lazy, "amount")
        _touch(lazy, "count")
        _touch(lazy, "amount")  # refresh: 'count' is now least recent
        _touch(lazy, "f")       # pickled bool column: forces one eviction
        assert not _handle(lazy, "count").is_resident
        assert _handle(lazy, "amount").is_resident

    def test_evicted_segment_refaults_on_next_touch(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=2000)
        first = _touch(lazy, "amount")
        _touch(lazy, "count")  # evicts 'amount'
        assert not _handle(lazy, "amount").is_resident
        again = _touch(lazy, "amount")
        assert np.array_equal(np.asarray(first), np.asarray(again))
        assert manager.snapshot()["refaults"] >= 1

    def test_arrays_held_by_callers_survive_eviction(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=2000)
        held = _touch(lazy, "amount")
        expected = held.tolist()
        _touch(lazy, "count")  # evicts 'amount'
        assert held.tolist() == expected  # the memmap lives while referenced

    def test_set_budget_shrink_evicts_immediately(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table)
        _touch(lazy, "amount")
        _touch(lazy, "count")
        assert manager.mapped_segments == 2
        manager.set_budget(2000)
        assert manager.resident_bytes <= 2000
        assert manager.mapped_segments == 1

    def test_evict_all_drops_every_unpinned_mapping(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table)
        for column in lazy.schema.column_names:
            _touch(lazy, column)
        dropped = manager.evict_all()
        assert dropped == len(lazy.schema.column_names)
        assert manager.resident_bytes == 0
        assert manager.mapped_segments == 0

    def test_peak_resident_bytes_is_monotonic(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=2000)
        for column in lazy.schema.column_names:
            _touch(lazy, column)
        peak = manager.peak_resident_bytes
        assert peak >= manager.resident_bytes
        manager.evict_all()
        assert manager.peak_resident_bytes == peak


class TestPins:
    def test_pinned_segment_is_never_evicted(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=2000)
        handle = _handle(lazy, "amount")
        with handle.pinned():
            handle.array()
            _touch(lazy, "count")  # over budget, but 'amount' is pinned
            assert handle.is_resident
            assert manager.pinned_segments == 1
        # Unpinning re-enforces the budget.
        assert manager.resident_bytes <= 2000
        assert manager.pinned_segments == 0

    def test_only_pins_left_means_critical_pressure(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=1000)
        handle = _handle(lazy, "amount")  # 1920 bytes > the whole budget
        with handle.pinned():
            handle.array()
            assert manager.resident_bytes > 1000
            assert manager.pressure_level == "critical"
        assert manager.resident_bytes <= 1000
        assert manager.pressure_level == "ok"

    def test_gather_pins_only_for_the_duration(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=2000)
        values = lazy.gather_column("amount", [0, 5, 9])
        assert values.shape == (3,)
        assert manager.pinned_segments == 0


class TestPressureCallbacks:
    def test_levels_are_edge_triggered_in_order(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=4000, watermark=0.9)
        seen = []
        manager.add_pressure_callback(seen.append)
        _touch(lazy, "amount")  # 1920 / 4000: ok
        assert seen == []
        _touch(lazy, "count")  # 3840 >= 3600: high
        assert seen == ["high"]
        manager.evict_all()
        assert seen[-1] == "ok"
        handle = _handle(lazy, "amount")
        with handle.pinned():
            handle.array()
            manager.set_budget(1000)  # 1920 pinned > budget: critical
            assert seen[-1] == "critical"
        # Unpinning lets enforcement reclaim: back to ok.
        assert seen[-1] == "ok"
        assert all(level in PRESSURE_LEVELS for level in seen)

    def test_callback_exceptions_never_break_residency(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=2000)

        def explode(level):
            raise RuntimeError("pressure callback bug")

        manager.add_pressure_callback(explode)
        for column in lazy.schema.column_names:
            _touch(lazy, column)  # crosses levels; must not raise
        assert manager.resident_bytes <= 2000


class TestSnapshotAndValidation:
    def test_snapshot_has_the_stats_contract_keys(self, table, make_lazy):
        lazy, manager, _ = make_lazy(table, budget_bytes=5000)
        _touch(lazy, "amount")
        snapshot = manager.snapshot()
        assert set(snapshot) == {
            "budget_bytes",
            "resident_bytes",
            "peak_resident_bytes",
            "mapped_segments",
            "pinned_segments",
            "pressure_level",
            "maps",
            "evictions",
            "refaults",
            "map_faults",
            "evict_faults",
            "map_seconds_total",
            "tables_materialised",
            "tables_degraded",
        }
        assert snapshot["budget_bytes"] == 5000
        assert snapshot["maps"] == 1
        assert snapshot["map_seconds_total"] >= 0.0

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError):
            ResidencyManager(budget_bytes=budget)
        manager = ResidencyManager()
        with pytest.raises(ValueError):
            manager.set_budget(budget)

    @pytest.mark.parametrize("watermark", [0.0, -0.5, 1.5])
    def test_watermark_must_be_a_fraction(self, watermark):
        with pytest.raises(ValueError):
            ResidencyManager(watermark=watermark)
