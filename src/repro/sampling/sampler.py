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
computed in one place: :func:`candidate_frame`, memoised on the index under
the evidence's identity.  From scratch that is :func:`build_candidate_frame`
(:func:`drop_members` over :meth:`Evidence.by_group`, once per group); after
an append the extended index grows the frame it inherited by the appended
rows.  Evidence grows in one place too: :meth:`GroupSampler.sample` returns
the earlier outcome merged with the fresh draw and files that evidence's
frame on the index as it draws — the frame the rows were drawn from, minus
the drawn rows, in the groups they came from.  This module owns the frame
because both readers can reach it here: the sampler draws from it, and
``core.executor``, which imports this module, flips its coins over the same
arrays.

The identity rule that keeps the memo warm: :meth:`SampleOutcome.merge`
returns its operand *as is* when the other side is empty, and a draw that
takes no row returns the earlier outcome itself.  Evidence is immutable
(read-only arrays in a frozen dataclass), so sharing one object between the
statistics cache, several plans and a frame filed under it is safe — nobody
can edit it under anybody else — and a refresh whose evidence did not move
keeps the outcome it started with, and with it the frame.  Evidence that
did move is a new object, and its frame was filed by the draw that made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.db.index import GroupIndex, group_order
from repro.db.table import Table, as_row_ids
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.obs import trace as _trace
from repro.resilience.deadline import check_deadline
from repro.stats.random import RandomState, SeedLike, as_random_state


def pay_for_rows(
    executor: Any, table: Table, udf: UserDefinedFunction, ids: np.ndarray, ledger: CostLedger
) -> np.ndarray:
    """Retrieve and evaluate every one of ``ids`` on ``executor``'s placement.

    The one way sampling and labelling pay for the rows they draw: one
    retrieval charge for all of them, then one bulk evaluation, which
    charges the evaluations under the ledger's accounting.  ``executor`` is
    any object with ``evaluate_rows(table, udf, row_ids, ledger)``
    (duck-typed, so this package imports nothing from :mod:`repro.core`),
    or ``None`` for the inline call itself.
    """
    ledger.charge_retrieval(int(ids.size))
    if executor is None:
        return udf.evaluate_rows(table, ids, None, ledger)
    return executor.evaluate_rows(table, udf, ids, ledger)


def member_mask(ordered: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Which of ``ids`` occur in ascending ``ordered`` — one binary search each."""
    if not ordered.size:
        return np.zeros(ids.size, dtype=bool)
    positions = np.searchsorted(ordered, ids)
    return ordered[np.minimum(positions, ordered.size - 1)] == ids


def drop_members(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Ascending ``rows`` without ``members`` — one binary search per member.

    Every member must occur in ``rows`` (any order, repeats allowed): a
    group's rows and its slice of :meth:`Evidence.by_group`, or a group's
    candidates and the rows a draw took from them.  The members are sorted
    before the probe: neighbouring searches then walk the same cache lines
    of ``rows`` (0.038 → 0.010 ms at 39k rows × 600 members, the sort
    itself 0.003), which is most of what the exclusion costs.
    """
    if not members.size:
        return rows
    keep = np.ones(rows.size, dtype=bool)
    keep[np.searchsorted(rows, np.sort(members))] = False
    return rows[keep]


@dataclass(frozen=True, eq=False)
class Evidence:
    """Rows whose UDF value has been paid for, and what it was.

    One immutable array pair, the same from the draw to the warm-state
    segments (:mod:`repro.serving.persistence`, one pair per object):
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


def _grown_frame(
    index: GroupIndex, frame: CandidateFrame, covered: int
) -> CandidateFrame:
    """``frame`` over the first ``covered`` rows, grown to all of ``index``'s.

    For evidence that holds no row past ``covered``: no appended row is paid
    for and no free positive moves, so each group the append reached gets
    its rows past ``covered`` (ascending, after every older row) in one
    concatenation, and a group that first appears in the append takes its
    own row array.  A group none of whose rows is paid for is its row array,
    as in :func:`build_candidate_frame`.
    """
    candidates = list(frame.candidates)
    for code, (_, rows) in enumerate(index.items()):
        if code >= len(candidates):
            candidates.append(rows)
            continue
        kept = candidates[code]
        start = int(np.searchsorted(rows, covered))
        if start == rows.size:
            continue
        if kept.size == start:
            candidates[code] = rows
            continue
        grown = np.concatenate([kept, rows[start:]])
        grown.setflags(write=False)
        candidates[code] = grown
    return CandidateFrame(tuple(candidates), frame.free_positives)


def candidate_frame(
    index: GroupIndex, sample_outcome: Optional[SampleOutcome]
) -> CandidateFrame:
    """The frame, computed at most once while ``index`` and the outcome both live.

    It is found in the index's memo (where :meth:`GroupSampler.sample` files
    the frame of the evidence it returns), grown from the frame the index
    inherited over fewer rows, or built; the current trace span records
    which as ``frame``.
    """
    how = "memo"

    def build() -> CandidateFrame:
        nonlocal how
        how = "built"
        return build_candidate_frame(index, sample_outcome)

    def grow(frame: CandidateFrame, covered: int) -> CandidateFrame:
        nonlocal how
        if sample_outcome.size and int(sample_outcome.row_ids.max()) >= covered:
            return build()  # evidence the old frame did not exclude
        how = "grown"
        return _grown_frame(index, frame, covered)

    if sample_outcome is None:
        frame = build()
    else:
        frame = index.derived(sample_outcome, build, grow)
    _annotate_frame(how)
    return frame


def _annotate_frame(how: str) -> None:
    active = _trace.current_span()
    if active is not None:
        active.annotate("frame", how)


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
        executor: Any = None,
    ) -> SampleOutcome:
        """Sample according to ``allocation``, charging ``ledger``.

        Returns the evidence after the draw: ``already_sampled.merge(fresh)``
        — the earlier outcome's rows, then the new ones — or the fresh rows
        alone when there is no earlier outcome.  Rows already paid for are
        never drawn again, and when nothing is drawn (an all-zero or
        unsatisfiable allocation) ``already_sampled`` itself comes back, so
        whatever is memoised under its identity stays valid.  The returned
        evidence's candidate frame is filed on ``index`` here, while the
        drawn positions are at hand: each drawn group's candidates minus the
        chosen rows, every other group's array unchanged (the current trace
        span records ``frame: drawn`` when no earlier frame was read).

        The per-group draws happen first (one vectorised ``choice`` per
        group, in index order, so the random stream matches the historical
        per-group sampler); the chosen rows are then charged as retrievals
        and evaluated in a single batched UDF call across all groups, which
        charges the evaluations to ``ledger`` under its accounting (serving
        accounting skips the rows the memo already knows).

        ``executor`` is the request's placement (any object with
        ``evaluate_rows(table, udf, row_ids, ledger)``, such as a
        :class:`~repro.core.executor.ExecutorBackend`); it runs that batched
        call — the process executor fans it across its workers and charges
        when it settles.  Without one the call is
        ``udf.evaluate_rows(table, ids, None, ledger)``, which is what the
        inline placements run.  Row *selection* stays on this sampler's
        sequential stream either way, so the drawn sample (and therefore
        every downstream statistic) is identical wherever it is evaluated.
        """
        check_deadline("sampling")
        prior = already_sampled
        requested = [int(allocation.get(group_key, 0)) for group_key in index]
        if prior is not None and not any(count > 0 for count in requested):
            return prior
        if prior is None:
            nothing = np.empty(0, dtype=np.intp)
            frame = CandidateFrame(tuple(rows for _, rows in index.items()), nothing)
        else:
            frame = candidate_frame(index, prior)
        candidates = list(frame.candidates)
        drawn = []
        for code, (available, count) in enumerate(zip(candidates, requested)):
            count = min(count, int(available.size))
            if count > 0:
                positions = self.random_state.choice(
                    int(available.size), size=count, replace=False
                )
                drawn.append((code, np.atleast_1d(positions)))

        if not drawn:
            return prior if prior is not None else SampleOutcome()
        all_chosen = np.concatenate(
            [candidates[code][positions] for code, positions in drawn]
        )
        # Bulk charge before the bulk evaluation (same totals as the
        # historical per-row loop; a hard budget stops the whole batch
        # before its memo or counters move instead of mid-stratum).  The
        # deadline check sits in the same place for the same reason: an
        # expired request must not pay for the batch it will not use.
        check_deadline("sampling-charge")
        fresh = SampleOutcome(all_chosen, pay_for_rows(executor, table, udf, all_chosen, ledger))
        outcome = fresh if prior is None else prior.merge(fresh)

        for code, positions in drawn:
            rest = np.delete(candidates[code], positions)
            rest.setflags(write=False)
            candidates[code] = rest
        # Both runs are in group order: a stable sort by group interleaves
        # them, the earlier positives first within a group, as a rebuild would.
        positives = np.concatenate([frame.free_positives, fresh.positives])
        order, _ = group_order(index.codes_for_rows(positives), index.num_groups)
        index.remember(outcome, CandidateFrame(tuple(candidates), as_row_ids(positives[order])))
        if prior is None:
            _annotate_frame("drawn")
        return outcome
