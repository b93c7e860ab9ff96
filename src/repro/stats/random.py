"""Seeded random-number management.

Every stochastic component in the library (samplers, probabilistic executors,
dataset generators, baselines) accepts either an integer seed or a
:class:`RandomState`.  Centralising the conversion in one place keeps the
experiments reproducible and lets a single experiment seed fan out into
independent child streams.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, "RandomState", None]


class RandomState:
    """A thin, picklable wrapper around :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        An integer seed, another ``RandomState`` (shared stream), a numpy
        ``Generator`` (wrapped as-is) or ``None`` for OS entropy.
    """

    def __init__(self, seed: SeedLike = None):
        if isinstance(seed, RandomState):
            self._generator = seed.generator
        elif isinstance(seed, np.random.Generator):
            self._generator = seed
        else:
            self._generator = np.random.default_rng(seed)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._generator

    # -- convenience wrappers -------------------------------------------------
    def random(self, size=None):
        """Uniform floats in ``[0, 1)``."""
        return self._generator.random(size)

    def integers(self, low: int, high: Optional[int] = None, size=None):
        """Uniform integers in ``[low, high)``."""
        return self._generator.integers(low, high, size=size)

    def choice(self, values, size=None, replace: bool = True, p=None):
        """Sample from ``values``."""
        return self._generator.choice(values, size=size, replace=replace, p=p)

    def shuffle(self, values) -> None:
        """Shuffle ``values`` in place."""
        self._generator.shuffle(values)

    def permutation(self, n_or_values):
        """Return a permuted copy."""
        return self._generator.permutation(n_or_values)

    def binomial(self, n, p, size=None):
        """Binomial draws."""
        return self._generator.binomial(n, p, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        """Gaussian draws."""
        return self._generator.normal(loc, scale, size=size)

    def beta(self, a, b, size=None):
        """Beta draws."""
        return self._generator.beta(a, b, size=size)

    def bernoulli(self, p, size=None):
        """Bernoulli draws returned as a boolean array (or scalar)."""
        draws = self._generator.random(size)
        return draws < p

    def spawn(self, count: int) -> List["RandomState"]:
        """Create ``count`` statistically independent child streams."""
        seeds = self._generator.integers(0, 2**31 - 1, size=count)
        return [RandomState(int(s)) for s in seeds]

    def child(self) -> "RandomState":
        """Create a single independent child stream."""
        return self.spawn(1)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomState({self._generator!r})"


def as_random_state(seed: SeedLike) -> RandomState:
    """Coerce ``seed`` into a :class:`RandomState`."""
    if isinstance(seed, RandomState):
        return seed
    return RandomState(seed)


def spawn_children(seed: SeedLike, count: int) -> List[RandomState]:
    """Spawn ``count`` independent random states derived from ``seed``."""
    return as_random_state(seed).spawn(count)


def sample_without_replacement(
    rng: SeedLike, population: Sequence, k: int
) -> List:
    """Draw ``k`` distinct elements from ``population`` uniformly at random."""
    state = as_random_state(rng)
    population = list(population)
    if k >= len(population):
        return population
    indices = state.choice(len(population), size=k, replace=False)
    return [population[int(i)] for i in np.atleast_1d(indices)]


#: Bit generators whose ``advance(n)`` moves exactly ``n`` 64-bit outputs —
#: one per ``random()`` double.  Philox's counts blocks of four, and MT19937
#: and SFC64 have none.
_ADVANCE_BY_OUTPUT = (np.random.PCG64, np.random.PCG64DXSM)


def skip_uniforms(generator: np.random.Generator, count: int) -> None:
    """Move ``generator`` past ``count`` uniforms without drawing them.

    Afterwards every draw is what it would have been after
    ``generator.random(count)``.  A PCG64-family generator jumps there in
    O(log count) (``advance``): 3.5–4 µs whatever ``count``, where drawing
    costs ~4.5 ns a coin.  Any other generator draws and discards.
    ``advance`` also drops the buffered half a 32-bit draw may have left,
    which ``random`` keeps, so that half is put back.
    """
    if count <= 0:
        return
    bit_generator = generator.bit_generator
    if not isinstance(bit_generator, _ADVANCE_BY_OUTPUT):
        generator.random(count)
        return
    before = bit_generator.state
    bit_generator.advance(count)
    if before["has_uint32"]:
        after = bit_generator.state
        after["has_uint32"], after["uinteger"] = before["has_uint32"], before["uinteger"]
        bit_generator.state = after


# ---------------------------------------------------------------------------
# Counter-based (position-addressable) substreams
# ---------------------------------------------------------------------------
#
# Some coins must depend only on *where* they sit, never on what was drawn
# before them: the labelled-sample reservoir's admit / evict coins for the
# rows an append adds, and a fault plan's per-address coins.  Sequential
# generators cannot provide that — consuming a stream couples every draw to
# all earlier draws — so these helpers implement a stateless SplitMix64
# stream: the uniform at position ``p`` of stream ``key`` is a pure function
# of ``(key, p)``, and any contiguous slice of a stream can be generated
# independently.

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


def _mix64(state: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: avalanche a 64-bit state into output bits."""
    with np.errstate(over="ignore"):  # modular 2**64 arithmetic, by design
        z = (state + _SPLITMIX_GAMMA).astype(np.uint64, copy=False)
        z = (z ^ (z >> np.uint64(30))) * _MIX_MULT_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_MULT_2
        return z ^ (z >> np.uint64(31))


def stream_key(*parts: int) -> int:
    """Derive a 64-bit stream key from integer parts (order-sensitive).

    Used to give every coin stream its own key (a reservoir's admit and
    evict phases, a fault site and address); the same parts always produce
    the same key on every platform.
    """
    acc = np.uint64(0x6A09E667F3BCC909)
    for part in parts:
        acc = _mix64(acc ^ np.uint64(int(part) & _U64_MASK))
    return int(acc)


def counter_uniforms(key: int, start: int, count: int) -> np.ndarray:
    """Uniforms in ``[0, 1)`` at positions ``start .. start+count-1`` of a stream.

    ``counter_uniforms(k, 0, n)[i] == counter_uniforms(k, i, 1)[0]`` for every
    ``i`` — slices of one stream agree wherever they overlap, so the coins
    of rows ``start ..`` are the same whether or not the earlier ones were
    ever drawn.
    """
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    positions = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):  # modular 2**64 arithmetic, by design
        state = np.uint64(int(key) & _U64_MASK) + positions * _SPLITMIX_GAMMA
    bits = _mix64(state)
    # Top 53 bits -> float64 in [0, 1), the standard generator construction.
    return (bits >> np.uint64(11)) * np.float64(2.0**-53)


def stable_hash_seed(*parts: Iterable) -> int:
    """Derive a deterministic 32-bit seed from arbitrary hashable parts.

    Useful when an experiment wants per-(dataset, iteration) seeds that do not
    depend on Python's randomised ``hash``.
    """
    acc = 2166136261
    for part in parts:
        for byte in repr(part).encode("utf8"):
            acc ^= byte
            acc = (acc * 16777619) % (2**32)
    return acc
