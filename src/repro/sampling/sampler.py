"""Stratified group sampler with cost accounting.

The sampler draws the allocated number of tuples from each group, retrieves
and evaluates them (charging ``o_r + o_e`` each to the ledger), and records
which rows it paid for and which passed (``F_a``, ``F_a^+``) as one
:class:`Evidence` array pair.  Two facts from Section 4.2 matter downstream:

* sampled tuples that evaluated to true can be returned as part of the query
  result without re-evaluation, and
* sampled tuples are *sunk cost*: the optimizer's decision variables apply to
  the remaining ``t_a - F_a`` tuples only.

Both read "a group's rows minus the rows already paid for", and it is
computed in one place: :func:`build_candidate_frame` (:func:`drop_members`
over :meth:`Evidence.by_group`, once per group), memoised by
:func:`candidate_frame` on the index under the evidence's identity.  This
module owns the frame because both readers can reach it here — the sampler
topping up an earlier outcome asks for ``candidate_frame(index, prior)`` (and
only when some group's requested count is positive: a top-up that draws
nothing excludes nothing), and ``core.executor``, which imports this module,
flips its coins over the same arrays.

The identity rule that keeps the memo warm: :meth:`SampleOutcome.merge`
returns its operand *as is* when the other side is empty.  Evidence is
immutable (read-only arrays in a frozen dataclass), so sharing one object
between the statistics cache, several plans and a frame filed under it is
safe — nobody can edit it under anybody else — and a refresh whose evidence
did not move keeps the outcome it started with, and with it the frame.
Evidence that did move is a new object, which no older frame is filed under.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.db.index import GroupIndex, group_order
from repro.db.table import Table, as_row_ids, narrowed_ids
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.resilience.deadline import check_deadline
from repro.stats.random import RandomState, SeedLike, as_random_state


def member_mask(ordered: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Which of ``ids`` occur in ascending ``ordered`` — one binary search each."""
    if not ordered.size:
        return np.zeros(ids.size, dtype=bool)
    positions = np.searchsorted(ordered, ids)
    return ordered[np.minimum(positions, ordered.size - 1)] == ids


def drop_members(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Ascending ``rows`` without ``members`` — one binary search per member.

    Every member must occur in ``rows`` (any order, repeats allowed): a
    group's rows and its slice of :meth:`Evidence.by_group`.  The members
    are sorted before the probe: neighbouring searches then walk the same
    cache lines of ``rows`` (0.038 → 0.010 ms at 39k rows × 600 members,
    the sort itself 0.003), which is most of what the exclusion costs.
    """
    if not members.size:
        return rows
    keep = np.ones(rows.size, dtype=bool)
    keep[np.searchsorted(rows, np.sort(members))] = False
    return rows[keep]


@dataclass(frozen=True, eq=False)
class Evidence:
    """Rows whose UDF value has been paid for, and what it was.

    One immutable array pair, the same from the draw to the warm blob:
    ``row_ids`` (``intp``, in **draw order** — the order rows were paid for,
    not sorted) and ``flags`` (``bool``, ``flags[i]`` is the UDF's answer for
    ``row_ids[i]``).  Both are read-only under
    :func:`~repro.db.table.as_row_ids`'s rule: an array handed in is given
    away.  Nothing per group is stored — group sizes, counts and order are
    read from whichever :class:`~repro.db.index.GroupIndex` the evidence is
    used against (:meth:`GroupIndex.label_counts
    <repro.db.index.GroupIndex.label_counts>`, :meth:`by_group`), so
    combining evidence is concatenation and a group's rows keep their draw
    order under every index.

    The two subclasses name the sampling design and add nothing else:
    :class:`~repro.core.column_selection.LabeledSample` is a uniform draw,
    :class:`SampleOutcome` a stratified one.
    """

    row_ids: npt.NDArray[np.intp] = ()  # type: ignore[assignment]
    flags: npt.NDArray[np.bool_] = ()  # type: ignore[assignment]

    def __post_init__(self) -> None:
        ids = as_row_ids(self.row_ids)
        flags = np.asarray(self.flags, dtype=bool)
        if flags.shape != ids.shape:
            raise ValueError(
                f"{ids.size} row ids need as many flags, got shape {flags.shape}"
            )
        flags.setflags(write=False)
        object.__setattr__(self, "row_ids", ids)
        object.__setattr__(self, "flags", flags)

    def __getstate__(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pickled small: ids in the narrowest unsigned dtype that holds them
        (widened back to ``intp`` on load), flags as bits."""
        return narrowed_ids(self.row_ids), np.packbits(self.flags)

    def __setstate__(self, state: Tuple[np.ndarray, np.ndarray]) -> None:
        ids, bits = state
        self.__init__(ids, np.unpackbits(bits, count=ids.size))  # type: ignore[misc]

    def __eq__(self, other: object) -> bool:
        """Same design, same rows in the same order, same answers."""
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.row_ids, other.row_ids) and np.array_equal(
            self.flags, other.flags
        )

    @property
    def size(self) -> int:
        """Number of evaluated rows (``F``)."""
        return int(self.row_ids.size)

    @property
    def positives(self) -> npt.NDArray[np.intp]:
        """The rows that satisfied the predicate (free query output), in draw order."""
        return self.row_ids[self.flags]

    def excluding(self, other: "Evidence") -> "Evidence":
        """This evidence without the rows ``other`` already holds."""
        keep = ~member_mask(np.sort(other.row_ids), self.row_ids)
        return type(self)(self.row_ids[keep], self.flags[keep])

    def inside(self, index: GroupIndex) -> npt.NDArray[np.bool_]:
        """Which rows lie inside ``index``'s table — the mask
        :meth:`GroupIndex.label_counts <repro.db.index.GroupIndex.label_counts>`
        counts under, so every reader of one evidence sees the same rows."""
        return (self.row_ids >= 0) & (self.row_ids < index.total_rows())

    def by_group(self, index: GroupIndex) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row_ids, flags, bounds)`` regrouped in ``index``'s group order.

        One stable sort over the rows' group codes: group ``code``'s evidence
        is the slice ``bounds[code]:bounds[code + 1]``, rows within a group
        keep their draw order, and groups follow the index's
        first-appearance order — never a container's.  That order is the
        order of the free positives at the head of every answer.  Rows
        outside ``index``'s table (evidence drawn over a larger table, ids a
        caller made up) belong to no group and are left out, so each slice
        is a subset of its group's rows.
        """
        inside = self.inside(index)
        row_ids, flags = self.row_ids[inside], self.flags[inside]
        order, bounds = group_order(index.codes_for_rows(row_ids), index.num_groups)
        return row_ids[order], flags[order], bounds


class SampleOutcome(Evidence):
    """Stratified evidence: what :class:`GroupSampler` drew, group after group."""

    @property
    def total_sampled(self) -> int:
        """Total number of evaluated tuples across groups."""
        return self.size

    @property
    def total_positives(self) -> int:
        """Total number of sampled tuples satisfying the predicate."""
        return int(self.flags.sum())

    def merge(self, other: "SampleOutcome") -> "SampleOutcome":
        """This outcome's rows, then ``other``'s — :meth:`merge_shards` of the two."""
        return self.merge_shards((self, other))

    @classmethod
    def merge_shards(cls, outcomes: Sequence["SampleOutcome"]) -> "SampleOutcome":
        """The outcomes' rows concatenated, in the order given.

        No group order is stored, so none can depend on string hashing:
        every reader regroups against its index (:meth:`Evidence.by_group`),
        where groups come in the index's order and each group's rows in this
        order — the first outcome's first.  For per-shard outcomes (disjoint
        row ranges in global row-id space) that is exactly sampling the
        unsharded table with the same draws; the property tests pin it.

        Empty operands add nothing and are skipped, and when a single
        operand of this class is all that is left it is returned *as is*:
        evidence is immutable, so handing the same object on is as good as a
        copy — and everything memoised under its identity
        (:func:`candidate_frame`) stays valid through a merge that added no
        row, which is what a refresh that draws nothing performs.
        """
        live = [outcome for outcome in outcomes if outcome.size]
        if not live:
            return cls()
        if len(live) == 1 and type(live[0]) is cls:
            return live[0]
        return cls(
            np.concatenate([outcome.row_ids for outcome in live]),
            np.concatenate([outcome.flags for outcome in live]),
        )


@dataclass(frozen=True)
class CandidateFrame:
    """A group index's rows split by one body of evidence, per group.

    ``candidates[code]`` are the rows of group ``index.values[code]`` that
    are *not* paid for — the rows a top-up may still draw and the rows
    execution flips coins over (ascending; the index's own array when the
    group has no sampled member); ``free_positives`` the sampled rows that
    passed the predicate, in the index's group order and, within a group, the
    evidence's draw order.
    """

    candidates: Tuple[np.ndarray, ...]
    free_positives: np.ndarray


def build_candidate_frame(
    index: GroupIndex, sample_outcome: Optional[SampleOutcome]
) -> CandidateFrame:
    """The frame from scratch — a pure function of its two arguments."""
    outcome = sample_outcome if sample_outcome is not None else SampleOutcome()
    sampled, flags, bounds = outcome.by_group(index)
    candidates = []
    for code, (_, rows) in enumerate(index.items()):
        rows = drop_members(rows, sampled[bounds[code] : bounds[code + 1]])
        rows.setflags(write=False)  # shared by every hit, like the index's
        candidates.append(rows)
    return CandidateFrame(
        candidates=tuple(candidates), free_positives=as_row_ids(sampled[flags])
    )


def candidate_frame(
    index: GroupIndex, sample_outcome: Optional[SampleOutcome]
) -> CandidateFrame:
    """The frame, built at most once while ``index`` and the outcome both live."""
    if sample_outcome is None:
        return build_candidate_frame(index, None)
    return index.derived(
        sample_outcome, lambda: build_candidate_frame(index, sample_outcome)
    )


class GroupSampler:
    """Draws and evaluates stratified samples over a group index."""

    def __init__(self, random_state: SeedLike = None):
        self.random_state: RandomState = as_random_state(random_state)

    def sample(
        self,
        table: Table,
        index: GroupIndex,
        udf: UserDefinedFunction,
        allocation: Mapping[Hashable, int],
        ledger: CostLedger,
        already_sampled: Optional[SampleOutcome] = None,
        bulk_evaluator: Optional[Callable[[Table, np.ndarray], np.ndarray]] = None,
    ) -> SampleOutcome:
        """Sample according to ``allocation``, charging ``ledger``.

        ``already_sampled`` lets adaptive callers top up an earlier outcome
        without re-evaluating rows they already paid for; the returned outcome
        contains only the *new* rows (merge with the old outcome if needed).

        The per-group draws happen first (one vectorised ``choice`` per
        group, in index order, so the random stream matches the historical
        per-group sampler); the chosen rows are then retrieved, charged and
        evaluated in a single batched UDF call across all groups.

        ``bulk_evaluator`` optionally replaces ``udf.evaluate_rows`` for that
        batched call — the process executor passes its worker fan-out here.
        Row *selection* stays on this sampler's sequential stream either way,
        so the drawn sample (and therefore every downstream statistic) is
        identical whether or not the evaluation is fanned.
        """
        check_deadline("sampling")
        requested = [int(allocation.get(group_key, 0)) for group_key in index]
        candidates: Sequence[np.ndarray] = [rows for _, rows in index.items()]
        if already_sampled is not None and any(count > 0 for count in requested):
            candidates = candidate_frame(index, already_sampled).candidates
        chosen_per_group = []
        for available, count in zip(candidates, requested):
            count = min(count, int(available.size))
            if count > 0:
                positions = self.random_state.choice(
                    int(available.size), size=count, replace=False
                )
                chosen_per_group.append(available[np.atleast_1d(positions)])

        if not chosen_per_group:
            return SampleOutcome()
        all_chosen = np.concatenate(chosen_per_group)
        # Bulk charge before the bulk evaluation (same totals as the
        # historical per-row loop; a hard budget now stops the whole
        # batch before any UDF work instead of mid-stratum).  The
        # deadline check sits in the same place for the same reason: an
        # expired request must not pay for the batch it will not use.
        check_deadline("sampling-charge")
        ledger.charge_retrieval(int(all_chosen.size))
        ledger.charge_evaluation(int(all_chosen.size))
        evaluate = bulk_evaluator if bulk_evaluator is not None else udf.evaluate_rows
        return SampleOutcome(all_chosen, evaluate(table, all_chosen))
