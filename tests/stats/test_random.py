"""Tests for the seeded random-state helpers."""

import numpy as np
import pytest

from repro.stats.random import (
    RandomState,
    as_random_state,
    sample_without_replacement,
    skip_uniforms,
    spawn_children,
    stable_hash_seed,
)


class TestRandomState:
    def test_same_seed_same_stream(self):
        a = RandomState(42).random(5)
        b = RandomState(42).random(5)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomState(1).random(100)
        b = RandomState(2).random(100)
        assert not np.allclose(a, b)

    def test_wrapping_a_random_state_shares_the_stream(self):
        base = RandomState(7)
        wrapped = RandomState(base)
        first = base.random()
        second = wrapped.random()
        assert first != second  # the stream advanced, proving it is shared

    def test_bernoulli_respects_probability(self):
        rng = RandomState(0)
        draws = rng.bernoulli(0.2, size=20_000)
        assert 0.17 < draws.mean() < 0.23

    def test_spawn_produces_independent_children(self):
        children = RandomState(3).spawn(2)
        assert not np.allclose(children[0].random(10), children[1].random(10))

    def test_child_is_deterministic_given_parent_seed(self):
        a = RandomState(11).child().random(3)
        b = RandomState(11).child().random(3)
        assert np.allclose(a, b)

    def test_integers_within_bounds(self):
        values = RandomState(5).integers(0, 10, size=100)
        assert values.min() >= 0 and values.max() < 10

    def test_permutation_is_a_permutation(self):
        perm = RandomState(9).permutation(20)
        assert sorted(perm) == list(range(20))


class TestHelpers:
    def test_as_random_state_idempotent(self):
        state = RandomState(1)
        assert as_random_state(state) is state

    def test_spawn_children_count(self):
        assert len(spawn_children(0, 4)) == 4

    def test_sample_without_replacement_distinct(self):
        sample = sample_without_replacement(0, list(range(50)), 10)
        assert len(sample) == 10
        assert len(set(sample)) == 10

    def test_sample_without_replacement_whole_population(self):
        population = [1, 2, 3]
        assert sorted(sample_without_replacement(0, population, 10)) == population

    def test_stable_hash_seed_deterministic(self):
        assert stable_hash_seed("a", 1, 2.5) == stable_hash_seed("a", 1, 2.5)

    def test_stable_hash_seed_varies_with_input(self):
        assert stable_hash_seed("a", 1) != stable_hash_seed("a", 2)

    def test_stable_hash_seed_in_32_bit_range(self):
        seed = stable_hash_seed("dataset", "strategy", 123456789)
        assert 0 <= seed < 2**32


#: The generators :func:`as_random_state` hands out: its own (an int seed gives
#: numpy's default, PCG64) and any numpy ``Generator`` it is given, whose bit
#: generator may have a compatible ``advance`` (PCG64DXSM), an incompatible
#: one (Philox counts blocks of four outputs) or none (MT19937, SFC64).
GENERATORS = {
    "seeded": lambda: as_random_state(41).generator,
    "pcg64dxsm": lambda: as_random_state(np.random.Generator(np.random.PCG64DXSM(41))).generator,
    "philox": lambda: as_random_state(np.random.Generator(np.random.Philox(41))).generator,
    "mt19937": lambda: as_random_state(np.random.Generator(np.random.MT19937(41))).generator,
    "sfc64": lambda: as_random_state(np.random.Generator(np.random.SFC64(41))).generator,
}


def _next_draws(generator):
    """Doubles, then 32-bit draws (which read a buffered half first), then doubles."""
    return (
        generator.random(3).tolist(),
        generator.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
        generator.random(2).tolist(),
    )


class TestSkipUniforms:
    @pytest.mark.parametrize("buffered_half", [False, True], ids=["aligned", "buffered"])
    @pytest.mark.parametrize("count", [0, 1, 7, 1000])
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_skipping_equals_drawing(self, name, count, buffered_half):
        drawn, skipped = GENERATORS[name](), GENERATORS[name]()
        drawn.random(5)
        skipped.random(5)
        if buffered_half:  # a 32-bit draw leaves the other half of its output buffered
            assert drawn.integers(0, 2**32, dtype=np.uint32) == skipped.integers(
                0, 2**32, dtype=np.uint32
            )
        drawn.random(count)
        skip_uniforms(skipped, count)
        assert _next_draws(skipped) == _next_draws(drawn)

    def test_a_bare_advance_drops_the_buffered_half(self):
        """Why the helper puts the half back: ``advance`` alone is not ``random``."""
        drawn, advanced = GENERATORS["seeded"](), GENERATORS["seeded"]()
        for generator in (drawn, advanced):
            generator.integers(0, 2**32, dtype=np.uint32)
        drawn.random(100)
        advanced.bit_generator.advance(100)
        assert _next_draws(advanced) != _next_draws(drawn)

    def test_a_generator_without_advance_draws_and_discards(self):
        generator = GENERATORS["mt19937"]()
        assert not hasattr(generator.bit_generator, "advance")
        skip_uniforms(generator, 64)
        assert generator.random() == GENERATORS["mt19937"]().random(65)[-1]

    def test_a_negative_count_skips_nothing(self):
        skipped = GENERATORS["seeded"]()
        skip_uniforms(skipped, -3)
        assert _next_draws(skipped) == _next_draws(GENERATORS["seeded"]())
