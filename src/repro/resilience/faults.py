"""Deterministic fault injection for the resilience test suite.

A :class:`FaultPlan` makes the failure paths — worker crashes, hangs,
garbage results, slow UDFs, export write and worker map errors — happen *on
purpose, at chosen points*, so ``tests/resilience`` can assert that every
degraded path still returns the bitwise-serial answer or a typed error.

Determinism follows the PR-4 coin discipline: each potential fault has a
**site** (a string naming the code location) and an **address** (a tuple of
integers naming the occurrence — span index and attempt for worker faults,
a per-site hit counter for the other sites), and whether it fires is either
an explicit address set or a pure function of
``(plan.seed, site, address)`` via the same counter-based SplitMix64
stream used for sampling coins.  The same plan against the same workload
therefore injects the same faults regardless of pool scheduling, worker
count or thread interleaving.

Activation is process-global (:func:`fault_scope`); the process-pool
executor additionally ships the active plan inside worker task payloads and
re-activates it there (spawned workers inherit nothing), so worker-side
sites — ``worker``, ``segment_map`` — fire in the right process.  With no
active plan every hook is a single ``None`` check.

Sites and their addresses
-------------------------

==================  =====================  ====================================
Site                Address                Fires in
==================  =====================  ====================================
``worker``          ``(span, attempt)``    worker process, at span-task entry
``udf_eval``        ``(hit,)``             whichever process evaluates the UDF
``manifest_write``  ``(hit,)``             parent, mid manifest atomic write
``segment_write``   ``(hit,)``             parent, mid segment atomic write
                                           (checkpoints and worker exports)
``journal_append``  ``(hit,)``             parent, mid journal record append
``segment_read``    ``(hit,)``             parent, before segment validation
``segment_map``     ``(hit,)``             before a segment map — parent
                                           first-touch of a lazy segment
                                           (one retry, then typed
                                           ``SegmentMapError``) *and* every
                                           worker attach (``SegmentMapError``;
                                           the span is retried once)
``segment_evict``   ``(hit,)``             parent, inside LRU eviction (the
                                           logical drop still completes —
                                           zero leaked mappings)
==================  =====================  ====================================

``kind`` decides the effect: ``crash`` (``os._exit`` — the pool breaks),
``hang``/``sleep`` (block for ``sleep_s``), ``error`` (raise
:class:`InjectedFault`), ``garbage`` (the call site corrupts its result —
meaningful at the ``worker`` site, and at ``segment_read``, where it models
a payload bit flip that the per-block checksum pass must catch).  The three
``*_write``/``*_append`` storage sites fire *mid-write*, after a partial
prefix is on disk, so ``error`` and ``crash`` rules there model torn writes.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple

from repro.stats.random import counter_uniforms, stable_hash_seed, stream_key

#: Fault kinds.
CRASH = "crash"
HANG = "hang"
GARBAGE = "garbage"
ERROR = "error"
SLEEP = "sleep"

_KINDS = (CRASH, HANG, GARBAGE, ERROR, SLEEP)


class InjectedFault(Exception):
    """The error an ``error``-kind fault raises.

    Deliberately *not* a :class:`~repro.db.errors.DatabaseError`: it stands
    in for infrastructure failures (a segment that cannot be attached, a
    worker dying mid-task), which the executors must classify as transient
    and survive — exactly as they would an :class:`OSError`.
    """

    def __init__(self, site: str, address: Tuple[int, ...]):
        self.site = site
        self.address = address
        super().__init__(f"injected fault at site {site!r}, address {address}")

    def __reduce__(self):
        # Default exception pickling ships ``args`` (the message) and would
        # fail to reconstruct in the parent's pool result thread — turning a
        # classifiable transient fault into a broken pool.
        return (InjectedFault, (self.site, self.address))


@dataclass(frozen=True)
class FaultRule:
    """When (and how) one site misbehaves.

    Exactly one of ``addresses`` / ``probability`` selects occurrences:
    an explicit address set is fully deterministic ("span 1, first attempt
    only"); a probability draws the seeded per-address coin.
    """

    kind: str
    addresses: Optional[FrozenSet[Tuple[int, ...]]] = None
    probability: Optional[float] = None
    sleep_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if (self.addresses is None) == (self.probability is None):
            raise ValueError(
                "exactly one of addresses/probability must be given "
                f"(got addresses={self.addresses!r}, "
                f"probability={self.probability!r})"
            )
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.sleep_s < 0:
            raise ValueError(f"sleep_s must be non-negative, got {self.sleep_s}")
        if self.addresses is not None:
            object.__setattr__(
                self,
                "addresses",
                frozenset(tuple(int(part) for part in addr) for addr in self.addresses),
            )


@dataclass
class FaultPlan:
    """A seeded, counter-addressed schedule of injected faults.

    Picklable (the process executor ships it into worker task payloads);
    the per-site hit counters and the fired-fault log are process-local —
    the parent's log records parent-side fires only, worker-side effects
    are observed through their consequences (a broken pool, a raised
    :class:`InjectedFault`).
    """

    seed: int
    rules: Mapping[str, FaultRule]
    _counts: Dict[str, int] = field(default_factory=dict, repr=False)
    _fired: List[Tuple[str, Tuple[int, ...], str]] = field(
        default_factory=list, repr=False
    )
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __getstate__(self):
        return {"seed": self.seed, "rules": dict(self.rules)}

    def __setstate__(self, state):
        self.seed = state["seed"]
        self.rules = state["rules"]
        self._counts = {}
        self._fired = []
        self._lock = threading.Lock()

    def next_address(self, site: str) -> int:
        """This process's next hit index for a counter-addressed site."""
        with self._lock:
            position = self._counts.get(site, 0)
            self._counts[site] = position + 1
            return position

    def should_fire(self, site: str, *address: int) -> Optional[FaultRule]:
        """The rule firing at ``(site, address)``, or ``None``.

        Coin-selected rules use the position-addressable stream
        ``stream_key(seed, site, *address)`` — the same discipline that
        makes sampling coins independent of execution order.
        """
        rule = self.rules.get(site)
        if rule is None:
            return None
        addr = tuple(int(part) for part in address)
        if rule.addresses is not None:
            fire = addr in rule.addresses
        else:
            coin = counter_uniforms(
                stream_key(self.seed, stable_hash_seed(site), *addr), 0, 1
            )[0]
            fire = bool(coin < rule.probability)
        if fire:
            with self._lock:
                self._fired.append((site, addr, rule.kind))
            return rule
        return None

    def fired(self) -> List[Tuple[str, Tuple[int, ...], str]]:
        """Faults fired *in this process* (site, address, kind), in order."""
        with self._lock:
            return list(self._fired)


#: The process-globally active plan.  A module global, not a ContextVar:
#: faults must be visible to every thread (the async front-end pool, the
#: span workers) without context plumbing, and tests activate exactly one
#: plan at a time.
_ACTIVE: Optional[FaultPlan] = None
_ACTIVE_LOCK = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    """The currently active plan (``None`` outside :func:`fault_scope`)."""
    return _ACTIVE


@contextmanager
def fault_scope(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Activate ``plan`` process-wide for the ``with`` body (re-entrant)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = plan
    try:
        yield plan
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous


def maybe_fire(
    plan: Optional[FaultPlan], site: str, *address: int
) -> Optional[str]:
    """Fire the configured fault for ``(site, address)``, if any.

    With no explicit address the site's per-process hit counter supplies
    one — but only when the plan actually has a rule for the site, so
    unrelated sites never perturb each other's counters.

    Side effects by kind: ``crash`` terminates the process (``os._exit``,
    bypassing ``finally`` blocks — exactly what an OOM kill looks like to
    the parent); ``hang``/``sleep`` block for ``sleep_s``; ``error`` raises
    :class:`InjectedFault`.  Returns the fired kind (``garbage`` is acted
    on by the caller), or ``None``.
    """
    if plan is None or site not in plan.rules:
        return None
    addr = address if address else (plan.next_address(site),)
    rule = plan.should_fire(site, *addr)
    if rule is None:
        return None
    if rule.kind == CRASH:
        os._exit(1)
    if rule.kind in (HANG, SLEEP):
        time.sleep(rule.sleep_s)
        return rule.kind
    if rule.kind == ERROR:
        raise InjectedFault(site, tuple(addr))
    return rule.kind
