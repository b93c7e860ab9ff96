"""The counter coin discipline, one tuple at a time — the span path's oracle.

``core/parallel.py`` executes a plan as spans of candidate-frame slices,
vectorised, possibly on pool threads or in worker processes.  Its module
docstring *defines* what must come out, independently of all that:

* the execution draws one root key from its seeded random state;
* the candidates of group ``a`` (code = its position in ``index.values``)
  are its rows, ascending, minus the rows the sample outcome holds;
* candidate ``p`` is retrieved iff the phase-0 coin at position ``p`` of
  stream ``(root, code)`` is ``< R_a``, and a retrieved candidate is
  evaluated iff the phase-1 coin at the same ``p`` is ``< E_a / R_a``
  (coins lie in ``[0, 1)``, so 0 and 1 need no special case);
* an evaluated tuple is returned iff the UDF passes, an unevaluated
  retrieved one unconditionally; the sampled positives come first (groups
  in index order, draw order within a group), then the groups in index
  order, rows ascending.

This file is that definition and nothing else: python loops, one coin at a
time through the public :func:`counter_uniforms`, per-row UDF calls, a
``set`` for exclusion.  It shares no code with the span path — no frame, no
span tasks, no fold — which is what makes agreement with it evidence.
"""

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.executor import GroupExecutionCounts
from repro.core.plan import ExecutionPlan
from repro.db.index import GroupIndex
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.sampling.sampler import SampleOutcome
from repro.stats.random import as_random_state, counter_uniforms, stream_key


def _coin(root: int, code: int, phase: int, position: int) -> float:
    return float(counter_uniforms(stream_key(root, code, phase), position, 1)[0])


def oracle_execute(
    table: Table,
    index: GroupIndex,
    udf: UserDefinedFunction,
    plan: ExecutionPlan,
    ledger: CostLedger,
    seed: int,
    sample_outcome: Optional[SampleOutcome] = None,
    free_memoized: bool = False,
) -> Tuple[List[int], Dict[Hashable, GroupExecutionCounts]]:
    """``(returned row ids, per-group counts)``; charges ``ledger`` tuple by tuple."""
    root = int(as_random_state(seed).integers(0, 2**63))
    column = list(table.column_array(index.column, allow_hidden=True))
    returned: List[int] = []
    sampled: set = set()
    if sample_outcome is not None:
        # Paid-for rows: excluded everywhere, their positives returned first —
        # group by group in the index's order, draw order within a group.
        # An id outside the table belongs to no group: it is nobody's answer.
        paid = [
            (row, passed)
            for row, passed in zip(
                sample_outcome.row_ids.tolist(), sample_outcome.flags.tolist()
            )
            if 0 <= row < len(column)
        ]
        sampled = {row for row, _passed in paid}
        for key in index.values:
            returned.extend(row for row, passed in paid if passed and column[row] == key)

    group_counts: Dict[Hashable, GroupExecutionCounts] = {}
    for code, key in enumerate(index.values):
        counts = group_counts[key] = GroupExecutionCounts()
        decision = plan.decision(key)
        candidates = [
            row for row, value in enumerate(column) if value == key and row not in sampled
        ]
        for position, row in enumerate(candidates):
            if not _coin(root, code, 0, position) < decision.retrieve_probability:
                continue
            ledger.charge_retrieval()
            if not _coin(root, code, 1, position) < decision.conditional_evaluate_probability:
                counts.returned += 1
                returned.append(row)
                continue
            if not (free_memoized and udf.is_memoized(row)):
                ledger.charge_evaluation()
            if udf.evaluate_row(table, row):
                counts.evaluated_correct += 1
                counts.retrieved_correct += 1
                counts.returned += 1
                returned.append(row)
            else:
                counts.evaluated_incorrect += 1
                counts.retrieved_incorrect += 1
    return returned, group_counts
