"""Answers at a fixed seed do not depend on ``PYTHONHASHSEED``.

Group keys are often strings, and string hashes change from process to
process.  ``SampleOutcome.merge`` used to walk ``set(left) | set(right)``, so
the merged outcome's group order — and with it the order of the sampled
positives at the head of ``row_ids`` — followed the hash seed: same rows,
different order, different bytes.  Each query below runs in two processes
with different hash seeds and must print the same ``row_ids`` list — on the
serial executor over a plain table, and on the process executor over a
sharded one (span tasks shipped to worker processes, per-group coin streams
keyed by group *code* and a merge by code: nothing there may follow a hash
either).

The same script then walks the stateful path in miniature — append (a new
string-keyed group arrives in the delta) → refresh query → ``save_warm_state``
→ reopen from the store → restored query — and prints the evidence the
restored plan carries next to the answers: the top-up, the re-expression
against the grown index, the merge and the warm blob may not follow a hash
either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
import tempfile
import numpy as np
from repro import Catalog, Engine, QueryService, SelectQuery, ServiceConfig, UdfPredicate
from repro.db import ShardedTable, Table, UserDefinedFunction
from repro.db.storage import CatalogStore

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
if EXECUTOR == "process":
    table = ShardedTable.from_table(table, num_shards=4)


def serve(catalog, directory):
    udf = UserDefinedFunction.from_label_column("label", "is_good")
    catalog.register_udf(udf)
    config = ServiceConfig(executor=EXECUTOR, max_workers=2, storage_dir=directory)
    query = SelectQuery(
        table="loans", predicate=UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8,
        correlated_column=None,  # automatic selection: labelled sample merged with group samples
    )
    return QueryService(Engine(catalog), config=config), query


def answer(result):
    return [result.metadata["plan_cache"], [int(row) for row in result.row_ids]]


with tempfile.TemporaryDirectory() as directory:
    catalog = Catalog()
    catalog.register_table(table)
    service, query = serve(catalog, directory)
    out = {"cold": answer(service.submit(query, seed=11))}
    out["warm"] = answer(service.submit(query, seed=12))
    delta_grade = rng.integers(0, 8, 400)  # grade-7 first appears here
    table.append_columns({
        "grade": [f"grade-{code}" for code in delta_grade],
        "region": [f"region-{code}" for code in rng.integers(0, 5, 400)],
        "is_good": (rng.random(400) < 0.5).tolist(),
    })
    out["refresh"] = answer(service.submit(query, seed=13))
    service.save_warm_state()
    service.close()
    del service, catalog, table

    catalog, _reports = CatalogStore(directory).open()
    service, query = serve(catalog, directory)
    out["restored"] = answer(service.submit(query, seed=14))
    (plan,) = [entry for _signature, entry in service.plan_cache._cache.items()]
    out["evidence"] = [plan.sample_outcome.row_ids.tolist(), plan.sample_outcome.flags.tolist()]
    out["restore_errors"] = service.stats().storage["restore_errors"]
    service.close()
print(json.dumps(out))
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
    first, second = _answers("0", executor), _answers("1", executor)
    paths = {step: first[step][0] for step in ("cold", "warm", "refresh", "restored")}
    assert paths == {"cold": "miss", "warm": "hit", "refresh": "refresh", "restored": "restored"}
    assert first["restore_errors"] == 0
    assert all(len(first[step][1]) > 100 for step in paths)
    assert max(first["evidence"][0]) >= 4000  # the refresh sampled the delta
    assert first["cold"] == second["cold"]  # a cold, automatic-column query
    assert first["warm"] == second["warm"]  # a warm hit on its plan
    assert first["refresh"] == second["refresh"]  # top-up, re-expression, merge, re-solve
    assert first["restored"] == second["restored"]  # through the warm blob and back
    assert first["evidence"] == second["evidence"]


def test_row_ids_are_identical_across_hash_seeds():
    _assert_hash_seed_independent("serial")


def test_row_ids_are_identical_across_hash_seeds_on_a_sharded_process_executor():
    _assert_hash_seed_independent("process")
