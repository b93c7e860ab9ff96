"""Open rows — a group's rows minus the rows already paid for — computed
by every reader for itself: the parent commit's code, kept as the oracle.

Until the sampler read its open rows from the executor's candidate frame,
both computed them for themselves: ``GroupSampler.sample`` regrouped the
evidence and ran ``drop_members`` over *every* group before it knew whether
anything would be drawn, ``build_candidate_frame`` did the same again over
the merged outcome, ``drop_members`` probed the members unsorted and copied
through a boolean mask, and ``SampleOutcome.merge`` allocated a new outcome
even when one side was empty (so the frame memo, keyed on identity, missed).

That code lives on here as the reference the shared frame is held to: same
draws from the same stream, same frames array for array, same answers and
ledgers.  The statements inside the functions are the parent commit's,
verbatim (``sampling/sampler.py``, ``core/executor.py``); ``by_group`` is a
function of the evidence instead of a method, the parent's sampler is
:func:`draw`, which returns the fresh rows only — :func:`sample` merges the
prior on return, with this module's ``merge_shards``, as the sampler now
does — and :func:`parent_exclusion`
— which swaps them in for the duration of a ``with`` block, so that a twin
``QueryService`` stepped inside it runs on them — is new.  One statement
follows the sampler rather than the parent: :func:`draw` charges its
evaluations through the bulk call (``ledger=``), as every sampler does since
serving accounting covers a refresh's draws, so the twins' ledgers agree.
"""

from contextlib import ExitStack, contextmanager
from typing import Callable, Hashable, Mapping, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.db.index import GroupIndex, group_order
from repro.db.table import Table, as_row_ids
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.resilience.deadline import check_deadline
from repro.sampling import sampler as sampler_module
from repro.sampling.sampler import CandidateFrame, Evidence, GroupSampler, SampleOutcome


def drop_members(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    if not members.size:
        return rows
    keep = np.ones(rows.size, dtype=bool)
    keep[np.searchsorted(rows, members)] = False
    return rows[keep]


def by_group(evidence: Evidence, index: GroupIndex) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    inside = evidence.inside(index)
    row_ids, flags = evidence.row_ids[inside], evidence.flags[inside]
    order, bounds = group_order(index.codes_for_rows(row_ids), index.num_groups)
    return row_ids[order], flags[order], bounds


def merge_shards(cls, outcomes: Sequence[SampleOutcome]) -> SampleOutcome:
    if not outcomes:
        return cls()
    return cls(
        np.concatenate([outcome.row_ids for outcome in outcomes]),
        np.concatenate([outcome.flags for outcome in outcomes]),
    )


def build_candidate_frame(
    index: GroupIndex, sample_outcome: Optional[SampleOutcome]
) -> CandidateFrame:
    outcome = sample_outcome if sample_outcome is not None else SampleOutcome()
    sampled, flags, bounds = by_group(outcome, index)
    candidates = []
    for code, (_, rows) in enumerate(index.items()):
        rows = drop_members(rows, sampled[bounds[code] : bounds[code + 1]])
        rows.setflags(write=False)  # shared by every hit, like the index's
        candidates.append(rows)
    return CandidateFrame(
        candidates=tuple(candidates), free_positives=as_row_ids(sampled[flags])
    )


def sample(self, table, index, udf, allocation, ledger, already_sampled=None, bulk_evaluator=None):
    fresh = draw(self, table, index, udf, allocation, ledger, already_sampled, bulk_evaluator)
    return fresh if already_sampled is None else merge_shards(SampleOutcome, (already_sampled, fresh))


def draw(
    self,
    table: Table,
    index: GroupIndex,
    udf: UserDefinedFunction,
    allocation: Mapping[Hashable, int],
    ledger: CostLedger,
    already_sampled: Optional[SampleOutcome] = None,
    bulk_evaluator: Optional[Callable[..., np.ndarray]] = None,
) -> SampleOutcome:
    check_deadline("sampling")
    paid_ids = bounds = None
    if already_sampled is not None:
        paid_ids, _, bounds = by_group(already_sampled, index)
    chosen_per_group = []
    for code, (group_key, row_ids) in enumerate(index.items()):
        available = row_ids
        if paid_ids is not None:
            available = drop_members(row_ids, paid_ids[bounds[code] : bounds[code + 1]])
        count = min(int(allocation.get(group_key, 0)), int(available.size))
        if count > 0:
            positions = self.random_state.choice(
                int(available.size), size=count, replace=False
            )
            chosen_per_group.append(available[np.atleast_1d(positions)])

    if not chosen_per_group:
        return SampleOutcome()
    all_chosen = np.concatenate(chosen_per_group)
    check_deadline("sampling-charge")
    ledger.charge_retrieval(int(all_chosen.size))
    evaluate = bulk_evaluator if bulk_evaluator is not None else udf.evaluate_rows
    return SampleOutcome(all_chosen, evaluate(table, all_chosen, ledger=ledger))


@contextmanager
def parent_exclusion():
    """Inside the block, sampling, merging and frame building are the parent's.

    ``candidate_frame`` (whichever module imported it) looks its builder up in
    ``sampling.sampler`` at call time, and frames are memoised per index, so a
    twin service with its own tables keeps the two implementations apart.
    """
    with ExitStack() as swaps:
        for owner, name, parents in (
            (sampler_module, "build_candidate_frame", build_candidate_frame),
            (GroupSampler, "sample", sample),
            (SampleOutcome, "merge_shards", classmethod(merge_shards)),
        ):
            swaps.enter_context(mock.patch.object(owner, name, parents))
        yield
