"""Property: a tick of ``submit_async`` calls equals its twin's sequential ``submit``.

``submit_async`` hands the front-end pool the live hits of one event-loop
iteration as **one** task and lands their results together; flight leaders,
re-dispatching followers and everything else travel alone.  None of that may
show in an answer: on the twin-service harness of ``test_frame_sequences.py``
one durable service lives through a drawn sequence of {append, restart, **a
tick** — ``asyncio.gather`` of 1..6 ``submit_async`` calls with mixed
signatures and distinct seeds, where a signature may be cold (the third one is
never planned up front) or refreshable (right after an append), so a flight
opens beside the batch} next to a twin that is fed the same history and
answers the tick's requests with sequential ``submit`` calls, same seeds, in
arrival order.  Per request the rows, the ledger counts and the ``plan_cache``
path must be the twin's, bitwise; and the evidence behind every cached plan
too.

What makes the comparison well defined: both services charge the paper's way
(``free_memoized=False`` — the ledger of a hit then does not depend on what
other requests memoised first), seeds are distinct (an equal-seed follower
*shares* its leader's result, path and all), and with two pool threads a tick
keeps only the first signature that is not live — two refreshes of one
``(table, predicate)`` top up the same statistics, so their charges depend on
which runs first, which a pool of one fixes (arrival order) and a pool of two
does not.

Run as a script, the module plays two fixed sequences and prints the answers:
``test_a_tick_equals_its_twin_under_both_hash_seeds`` does that under
``PYTHONHASHSEED`` 0 and 1 and compares the output.
"""

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_frame_sequences import _GROUPS, _Served, _assert_same_answer, _columns

#: Two services, several loops and a pool per example: a third of the profile's budget.
_EXAMPLES = max(8, settings.default.max_examples // 3)

_REQUESTS = st.lists(
    st.tuples(st.sampled_from([0, 1, 2]), st.integers(0, 2**31)),
    min_size=1,
    max_size=6,
    unique_by=lambda request: request[1],
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(20, 160)),
        st.tuples(st.just("tick"), _REQUESTS),
        st.tuples(st.just("tick"), _REQUESTS),
        st.tuples(st.just("restart"), st.just(0)),
    ),
    min_size=1,
    max_size=8,
)


def _tick(served, requests):
    async def gathered():
        return await asyncio.gather(
            *[served.service.submit_async(served.select(w), seed=s) for w, s in requests]
        )

    return asyncio.run(gathered())


def _digest(result):
    ledger = result.ledger
    return [
        result.metadata["plan_cache"],
        result.row_ids.tolist(),
        [ledger.retrieved_count, ledger.evaluated_count, ledger.total_cost],
    ]


def play(sharded, pool, steps, delta_seed):
    """Walk ``steps`` on a served service and its twin; the served answers."""
    served = _Served(sharded, free_memoized=False, max_concurrency=pool)
    twin = _Served(sharded, free_memoized=False)
    rng = np.random.default_rng(delta_seed)
    live, answers = {0, 1}, []
    try:
        for which, seed in ((0, 1), (1, 2)):  # two of the three signatures planned cold
            _assert_same_answer(served.query(which, seed), twin.query(which, seed))
        for step, argument in steps:
            if step == "append":
                delta = _columns(rng, argument, _GROUPS)
                served.append(delta)
                twin.append(delta)
                live.clear()
            elif step == "restart":
                served.restart()
                twin.restart()
            else:
                stale = [which for which, _seed in argument if which not in live]
                requests = [
                    (which, seed)
                    for which, seed in argument
                    if pool == 1 or which in live or which == stale[0]
                ]
                ours = _tick(served, requests)
                theirs = [twin.query(which, seed) for which, seed in requests]
                for mine, other in zip(ours, theirs):
                    _assert_same_answer(mine, other)
                    assert "coalesced" not in mine.metadata
                live.update(which for which, _seed in requests)
                answers.append([_digest(result) for result in ours])
            plans = dict(served.service.plan_cache._cache.items())
            twin_plans = dict(twin.service.plan_cache._cache.items())
            assert plans.keys() == twin_plans.keys()
            for signature, entry in plans.items():
                assert entry.sample_outcome == twin_plans[signature].sample_outcome
        frontend = served.service.stats().frontend
        assert frontend["pending"].get("approximate", 0) == 0
        assert frontend["open_flights"] == 0 and not served.service._ticks
        return answers
    finally:
        served.close()
        twin.close()


@settings(max_examples=_EXAMPLES, deadline=None)
@given(
    sharded=st.booleans(),
    pool=st.sampled_from([1, 2]),
    steps=_STEPS,
    delta_seed=st.integers(0, 2**16),
)
def test_a_tick_equals_sequential_submits_on_its_twin(sharded, pool, steps, delta_seed):
    play(sharded, pool, steps, delta_seed)


#: Hits around a cold flight, a tick of refreshes, a restored tick, one request alone.
_FIXED = [
    ("tick", [(0, 11), (2, 12), (1, 13), (0, 14), (2, 15)]),
    ("append", 90),
    ("tick", [(1, 21), (0, 22), (1, 23), (2, 24)]),
    ("tick", [(0, 31), (1, 32), (0, 33), (2, 34), (1, 35), (0, 36)]),
    ("restart", 0),
    ("tick", [(2, 41), (2, 42), (0, 43)]),
    ("append", 40),
    ("tick", [(1, 51)]),
]


def test_a_tick_equals_its_twin_under_both_hash_seeds():
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
    paths = {request[0] for tick in outputs[0]["sharded"] for request in tick}
    assert paths == {"miss", "hit", "refresh", "restored"}


if __name__ == "__main__":
    print(
        json.dumps(
            {"sharded": play(True, 1, _FIXED, 7), "plain, two threads": play(False, 2, _FIXED, 7)}
        )
    )
