"""Answers at a fixed seed do not depend on ``PYTHONHASHSEED``.

Group keys are often strings, and string hashes change from process to
process.  ``SampleOutcome.merge`` used to walk ``set(left) | set(right)``, so
the merged outcome's group order — and with it the order of the sampled
positives at the head of ``row_ids`` — followed the hash seed: same rows,
different order, different bytes.  Each query below runs in two processes
with different hash seeds and must print the same ``row_ids`` list — on the
serial executor over a plain table, and on the thread executor over a
sharded one (span tasks, per-group coin streams keyed by group *code* and a
merge by code: nothing there may follow a hash either).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
import numpy as np
from repro import Catalog, Engine, QueryService, SelectQuery, ServiceConfig, UdfPredicate
from repro.db import ShardedTable, Table, UserDefinedFunction

rng = np.random.default_rng(5)
rows = 4000
grade = rng.integers(0, 7, rows)
label = rng.random(rows) < np.array([0.9, 0.8, 0.6, 0.5, 0.3, 0.2, 0.1])[grade]
table = Table.from_columns(
    "loans",
    {
        "grade": [f"grade-{code}" for code in grade],
        "region": [f"region-{code}" for code in rng.integers(0, 5, rows)],
        "is_good": label.tolist(),
    },
    hidden_columns=["is_good"],
)
if EXECUTOR == "thread":
    table = ShardedTable.from_table(table, num_shards=4)
udf = UserDefinedFunction.from_label_column("label", "is_good")
catalog = Catalog()
catalog.register_table(table)
catalog.register_udf(udf)
service = QueryService(
    Engine(catalog), config=ServiceConfig(executor=EXECUTOR, max_workers=3)
)
query = SelectQuery(
    table="loans", predicate=UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8,
    correlated_column=None,  # automatic selection: labelled sample merged with group samples
)
cold = service.submit(query, seed=11)
warm = service.submit(query, seed=12)
service.close()
print(json.dumps({
    "cold": [cold.metadata["plan_cache"], [int(row) for row in cold.row_ids]],
    "warm": [warm.metadata["plan_cache"], [int(row) for row in warm.row_ids]],
}))
"""


def _answers(hash_seed: str, executor: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    script = f"EXECUTOR = {executor!r}\n" + SCRIPT
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_hash_seed_independent(executor: str) -> None:
    first, second = _answers("1", executor), _answers("2", executor)
    assert first["cold"][0] == "miss" and first["warm"][0] == "hit"
    assert len(first["cold"][1]) > 100 and len(first["warm"][1]) > 100
    assert first["cold"] == second["cold"]  # a cold, automatic-column query
    assert first["warm"] == second["warm"]  # a warm hit on its plan


def test_row_ids_are_identical_across_hash_seeds():
    _assert_hash_seed_independent("serial")


def test_row_ids_are_identical_across_hash_seeds_on_a_sharded_thread_executor():
    _assert_hash_seed_independent("thread")
