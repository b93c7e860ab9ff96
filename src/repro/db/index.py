"""Hash index on the correlated attribute.

The paper's cost model "implies we have some type of index on A so we can
reach the examined tuples with constant cost independent of the discarded
tuples" (Section 2).  :class:`GroupIndex` is that index: it maps each distinct
value of a categorical column to the row ids carrying it.

The index is *array-native*: construction factorises the column into an
integer ``codes`` array (one group code per row, in first-appearance order of
the distinct values) plus one read-only row-id array per group.  Group
membership lookups, per-group gathers and label aggregation are then O(1)
vectorised operations instead of per-tuple dict walks, and the same index
object is shared between the engine, the pipeline and the serving layer via
:meth:`repro.db.table.Table.group_index` instead of being rebuilt per query.

One index per (table, column), whatever the table's layout: a sharded
table's :class:`MergedGroupIndex` is that same index over global row ids,
built shard by shard and carrying the shard boundaries as its spans.  The
shards hold no indexes of their own.
"""

from __future__ import annotations

import copy
import weakref
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.db.errors import ColumnNotFoundError
from repro.db.table import Table

_T = TypeVar("_T")


def _dict_factorise(cells: Sequence[Any]) -> Tuple[List[Any], np.ndarray]:
    """Reference dict-based factorisation over a column's python values.

    Byte-for-byte the grouping of :meth:`Table.group_row_ids` — used when
    numpy's ``unique`` would change semantics (unsortable mixed-type cells,
    or NaNs, which ``np.unique`` collapses while dict grouping keys each
    occurrence by object equality/identity).
    """
    lookup: Dict[Any, int] = {}
    codes = np.empty(len(cells), dtype=np.intp)
    values: List[Any] = []
    for position, value in enumerate(cells):
        code = lookup.get(value)
        if code is None:
            code = len(values)
            lookup[value] = code
            values.append(value)
        codes[position] = code
    return values, codes


def _factorise(array: np.ndarray) -> Tuple[List[Any], np.ndarray]:
    """Factorise a column into first-appearance-ordered values + codes.

    Returns ``(values, codes)`` where ``values[codes[i]] == array[i]`` and
    ``values`` preserves the order in which distinct values first appear —
    the same order the historical dict-based grouping produced.  Where numpy
    cannot reproduce dict semantics the reference fallback groups
    ``array.tolist()`` — the python values every reader of the column sees,
    so a NaN cell is its own group however the column was built.
    """
    if array.dtype.kind == "f" and bool(np.isnan(array).any()):
        # np.unique merges NaNs into one group; the dict reference does not.
        return _dict_factorise(array.tolist())
    try:
        uniques, first_index, inverse = np.unique(
            array, return_index=True, return_inverse=True
        )
    except TypeError:  # unsortable mixed-type object cells
        return _dict_factorise(array.tolist())
    # np.unique sorts; remap sorted codes to first-appearance order.
    appearance_order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(uniques), dtype=np.intp)
    rank[appearance_order] = np.arange(len(uniques), dtype=np.intp)
    codes = rank[inverse.reshape(-1)]
    values = [
        value.item() if isinstance(value, np.generic) else value
        for value in (uniques[i] for i in appearance_order)
    ]
    return values, codes


def _stable_code_order(codes: np.ndarray, num_groups: int) -> np.ndarray:
    """``np.argsort(codes, kind="stable")``, sorted over the narrowest keys.

    Codes lie in ``[0, num_groups)``, so they fit the narrowest unsigned
    dtype that holds ``num_groups - 1`` — and NumPy's stable sort is a radix
    sort for keys of 16 bits or fewer (7.0 → 0.9 ms at 200k rows and 8
    groups).  The order is the same permutation either way; more than 65 536
    groups fall through to the codes as they are.
    """
    if num_groups <= 1 << 8:
        codes = codes.astype(np.uint8)
    elif num_groups <= 1 << 16:
        codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


def group_order(codes: np.ndarray, num_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``: the stable permutation that sorts ``codes``, and
    where each group starts in it — group ``c`` is ``order[bounds[c]:bounds[c + 1]]``,
    its members in their original order."""
    order = _stable_code_order(codes, num_groups)
    return order, np.searchsorted(codes[order], np.arange(num_groups + 1))


def _fold_codes(
    values: List[Any],
    code_by_value: Dict[Any, int],
    run_values: List[Any],
    run_codes: np.ndarray,
) -> np.ndarray:
    """A factorised run of rows, re-expressed in a running code table.

    The one remap rule behind both ways an index grows — shard after shard
    at a build, delta after delta at an append: a value of the run the
    table has not seen is appended to ``values`` / ``code_by_value`` (both
    mutated in place) in the run's first-appearance order, which is exactly
    where a from-scratch factorisation of all the rows so far plus the run
    would put it.  Returns the run's codes in the table's numbering.
    """
    remap = np.empty(len(run_values), dtype=np.intp)
    for run_code, value in enumerate(run_values):
        code = code_by_value.get(value)
        if code is None:
            code = len(values)
            code_by_value[value] = code
            values.append(value)
        remap[run_code] = code
    return remap[run_codes] if run_codes.size else run_codes


class GroupIndex:
    """Value → row-id index over one categorical column of a table.

    Prefer :meth:`repro.db.table.Table.group_index` over direct construction:
    the table keeps one cached index per column, shared by every caller, so
    repeated queries never re-group the same data.
    """

    #: Total number of index constructions since process start.  Tests read
    #: this to prove the shared cache amortises index builds (a
    #: wall-clock-independent counter).
    builds_total: int = 0

    #: Total number of *incremental* extensions (see :meth:`extended_by`)
    #: since process start.  Extensions deliberately do not count as builds:
    #: the refresh tests hold ``builds_total`` still across an append and the
    #: next query, proving appends never trigger a from-scratch
    #: refactorisation of a warm column.
    extensions_total: int = 0

    def __init__(self, table: Table, column: str, allow_hidden: bool = False):
        if not table.schema.has_column(column):
            raise ColumnNotFoundError(column, table.schema.column_names)
        self.table = table
        self.column = column
        self._install(*_factorise(table.column_array(column, allow_hidden=allow_hidden)))

    def _install(
        self,
        values: List[Any],
        codes: np.ndarray,
        row_id_arrays: Optional[List[np.ndarray]] = None,
        count_build: bool = True,
    ) -> None:
        """Finish construction from factorised parts.

        ``row_id_arrays`` (per-group ascending row ids) may be supplied by a
        caller that already knows the grouping — :meth:`extended_by` reuses
        the arrays of every group an append did not touch — otherwise they
        are derived from ``codes`` with one stable argsort.
        ``count_build=False`` keeps :attr:`builds_total` untouched (the
        incremental-extension path advances :attr:`extensions_total` instead).
        """
        codes.setflags(write=False)
        self._values: List[Any] = values
        self._codes: np.ndarray = codes
        self._code_by_value: Dict[Any, int] = {
            value: code for code, value in enumerate(values)
        }
        if row_id_arrays is None:
            # One read-only row-id array per group, each ascending in row order
            # (stable sort over row position), sliced out of a single argsort.
            order, boundaries = group_order(codes, len(values))
            row_id_arrays = []
            for code in range(len(values)):
                rows = np.ascontiguousarray(
                    order[boundaries[code] : boundaries[code + 1]]
                )
                rows.setflags(write=False)
                row_id_arrays.append(rows)
        self._row_id_arrays: List[np.ndarray] = row_id_arrays
        self._sizes: List[int] = [int(rows.size) for rows in self._row_id_arrays]
        self._empty: np.ndarray = np.empty(0, dtype=np.intp)
        self._empty.setflags(write=False)
        self._derived: Dict[int, Tuple[weakref.ref, Any, Optional[int]]] = {}
        if count_build:
            GroupIndex.builds_total += 1

    @property
    def table(self) -> Optional[Table]:
        """The indexed table, held weakly (``None`` once it is gone).

        The table owns its indexes (:meth:`Table.group_index`); a strong
        reference back would make every dropped table a reference cycle, and
        its column arrays, this index's row arrays and everything derived
        from them would wait for a full collector pass instead of being
        freed with the last reference to the table.
        """
        return self._table_ref()

    @table.setter
    def table(self, table: Table) -> None:
        self._table_ref = weakref.ref(table)

    # -- lookup -----------------------------------------------------------------
    @property
    def values(self) -> List[Any]:
        """Distinct indexed values (group keys), in first-appearance order."""
        return list(self._values)

    @property
    def num_groups(self) -> int:
        """Number of distinct groups."""
        return len(self._values)

    @property
    def codes(self) -> np.ndarray:
        """Read-only per-row group codes (``values[codes[i]]`` is row i's key).

        The codes array is what makes shared statistics cheap: labelling a
        sample for *all* candidate columns at once is one fancy-index per
        column instead of one dict walk per (column, row) pair.
        """
        return self._codes

    def code_of(self, value: Any) -> int:
        """The integer group code for ``value`` (-1 when absent)."""
        return self._code_by_value.get(value, -1)

    def codes_for_rows(self, row_ids: Sequence[int]) -> np.ndarray:
        """Group codes of ``row_ids`` in one vectorised gather."""
        return self._codes[np.asarray(row_ids, dtype=np.intp)]

    def row_ids(self, value: Any) -> np.ndarray:
        """Row ids in the group for ``value`` as a cached, read-only array.

        The array is built once at construction and shared by every caller
        (empty when the value is absent); callers must not write to it.
        """
        code = self._code_by_value.get(value)
        if code is None:
            return self._empty
        return self._row_id_arrays[code]

    def group_size(self, value: Any) -> int:
        """Number of tuples in the group for ``value`` (``t_a``)."""
        code = self._code_by_value.get(value)
        return 0 if code is None else self._sizes[code]

    def group_sizes(self) -> Dict[Any, int]:
        """All group sizes keyed by value."""
        return dict(zip(self._values, self._sizes))

    def size_array(self) -> np.ndarray:
        """Group sizes as an array aligned with :attr:`values` order."""
        return np.asarray(self._sizes, dtype=np.intp)

    def __contains__(self, value: object) -> bool:
        return value in self._code_by_value

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def items(self) -> Iterator[Tuple[Any, np.ndarray]]:
        """Iterate ``(value, row_ids)`` pairs over cached read-only arrays."""
        return zip(self._values, self._row_id_arrays)

    def total_rows(self) -> int:
        """Total number of indexed rows."""
        return int(self._codes.size)

    def span_boundaries(self) -> Tuple[int, ...]:
        """Contiguous row-id spans the index naturally decomposes into.

        A monolithic index is one span ``(0, total_rows)``; a
        :class:`MergedGroupIndex` reports its shard boundaries.  The span
        executors partition work along these spans — the coins are flipped
        before the cut, so the partition never changes the result, only
        where the work runs.
        """
        return (0, self.total_rows())

    # -- derived-value memo ------------------------------------------------------
    def derived(
        self,
        source: object,
        build: Callable[[], _T],
        grow: Callable[[_T, int], _T],
    ) -> _T:
        """``build()``, kept for as long as this index and ``source`` both live.

        For values that are a pure function of this index and one other
        immutable-by-convention object (the executor's candidate frame over a
        sample outcome).  The memo is keyed on the *identity* of ``source``
        and owned by this index; the entry is dropped when ``source`` is
        collected, and neither the memo nor the weak reference keeps
        ``source`` (or this index) alive.

        An entry may hold a *basis* instead of the value: the value for the
        fewer rows an extended index's parent held (:meth:`extended_by`),
        with the row count it covers as its step.  The first call then
        returns ``grow(basis, step)`` and keeps it.  ``build`` and ``grow`` may
        run more than once under concurrent first calls; the results are
        interchangeable.
        """
        key = id(source)
        entry = self._derived.get(key)
        if entry is not None and entry[0]() is source:
            reference, basis, step = entry
            if step is None:
                return basis
            value = grow(basis, step)
            self._derived[key] = (reference, value, None)
            return value
        value = build()
        self.remember(source, value)
        return value

    def remember(self, source: object, value: Any, step: Optional[int] = None) -> None:
        """File ``value`` as :meth:`derived`'s for ``source`` — a basis
        covering ``step`` rows when ``step`` is given."""
        key = id(source)
        owner = weakref.ref(self)

        def forget(_reference: weakref.ref) -> None:
            # Runs as ``source`` dies, before its id can name another object.
            index = owner()
            if index is not None:
                index._derived.pop(key, None)

        self._derived[key] = (weakref.ref(source, forget), value, step)

    def _inherit(self, parent: "GroupIndex", covered: Optional[int]) -> None:
        """Take over ``parent``'s memo without keeping ``parent`` alive.

        ``covered`` is the row count ``parent`` indexes when this index holds
        more rows: only its current values are taken, as bases covering that
        many rows.  An entry nobody read since the previous append is left
        behind with ``parent``, so an append keeps alive no more than the
        previous one did.  ``None`` (the same rows over new spans) takes
        every entry as it is.
        """
        for reference, value, step in list(parent._derived.values()):
            source = reference()
            if source is None or (covered is not None and step is not None):
                continue
            self.remember(source, value, step if covered is None else covered)

    # -- incremental maintenance -------------------------------------------------
    def _extended_parts(
        self, delta_array: np.ndarray
    ) -> Tuple[List[Any], np.ndarray, List[np.ndarray]]:
        """Factorise only the appended rows and merge against the code table.

        Returns the ``(values, codes, row_id_arrays)`` of the index covering
        the old rows plus the delta.  Work is proportional to the delta (plus
        one O(n) code-array concatenation): unseen delta values are appended
        to the value list in their delta first-appearance order — exactly
        where a from-scratch factorisation of the concatenated column would
        put them — and only groups touched by the delta get a new row-id
        array; untouched groups keep sharing their existing (read-only)
        arrays.
        """
        old_total = int(self._codes.size)
        values = list(self._values)
        delta_codes = _fold_codes(
            values,
            dict(self._code_by_value),
            *_factorise(delta_array),
        )
        codes = np.concatenate([self._codes, delta_codes])

        row_id_arrays = list(self._row_id_arrays)
        row_id_arrays.extend(self._empty for _ in range(len(values) - len(row_id_arrays)))
        if delta_codes.size:
            order, boundaries = group_order(delta_codes, len(values))
            for code in range(len(values)):
                lo, hi = int(boundaries[code]), int(boundaries[code + 1])
                if hi <= lo:
                    continue
                addition = order[lo:hi] + old_total
                base = row_id_arrays[code]
                rows = (
                    np.concatenate([base, addition])
                    if base.size
                    else np.ascontiguousarray(addition)
                )
                rows.setflags(write=False)
                row_id_arrays[code] = rows
        return values, codes, row_id_arrays

    def extended_by(self, delta_array: np.ndarray) -> "GroupIndex":
        """A new index covering the indexed rows plus an appended delta.

        The extension is *exactly* equivalent to rebuilding the index over
        the concatenated column (pinned by Hypothesis property tests) but
        factorises only the delta; the original index object is untouched,
        so concurrent readers holding it keep a consistent (pre-append)
        view.  Does not advance :attr:`builds_total` — incremental work is
        counted on :attr:`extensions_total`.

        The new index inherits the memo (:meth:`derived`) lazily: each value
        becomes a basis covering the old rows, grown on its first use by
        whoever reads it, so an append pays nothing for values never read
        again.  The original index is not kept alive by its extension.
        """
        extended = type(self).__new__(type(self))
        extended._table_ref = self._table_ref
        extended.column = self.column
        extended._install(
            *self._extended_parts(delta_array),
            count_build=False,
        )
        extended._inherit(self, self.total_rows())
        GroupIndex.extensions_total += 1
        return extended

    def label_counts(
        self, row_ids: Sequence[int], labels: Optional[Sequence[bool]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-group ``(totals, positives)`` for a labelled subset of rows.

        ``row_ids`` are the labelled rows and ``labels`` their boolean UDF
        outcomes (``None`` counts every row as positive).  Both returned
        arrays align with :attr:`values` order.  One ``bincount`` per array —
        this is the factorised aggregation that lets every candidate column
        share a single labelled sample during column selection.  Row ids
        outside the indexed table are ignored (matching the historical
        membership-dict grouping, which skipped unknown rows).
        """
        ids = np.asarray(row_ids, dtype=np.intp)
        in_range = (ids >= 0) & (ids < self._codes.size)
        if not in_range.all():
            ids = ids[in_range]
            if labels is not None:
                labels = np.asarray(labels, dtype=bool)[in_range]
        codes = self.codes_for_rows(ids)
        totals = np.bincount(codes, minlength=self.num_groups)
        if labels is None:
            positives = totals.copy()
        else:
            positives = np.bincount(
                codes,
                weights=np.asarray(labels, dtype=float),
                minlength=self.num_groups,
            ).astype(np.intp)
        return totals, positives

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupIndex(table={getattr(self.table, 'name', None)!r}, column={self.column!r}, "
            f"groups={self.num_groups})"
        )


class MergedGroupIndex(GroupIndex):
    """*The* group index of a :class:`~repro.db.sharding.ShardedTable`.

    A :class:`GroupIndex` over global row ids — the same values, codes and
    per-group row-id arrays as the index of the monolithic table holding the
    same rows (pinned by property tests), so optimizers and executors cannot
    tell a sharded table apart from an unsharded one — plus the shard
    boundaries it reports as :meth:`span_boundaries`.  It is the only group
    index a sharded table has: no shard keeps one of its own.
    """

    def __init__(self, table: Table, column: str, allow_hidden: bool = False):
        """Factorise ``column`` one shard at a time, in row order.

        Each shard's column is read through the shard's own ``column_array``
        — a lazily opened table maps one segment at a time, and no
        whole-column array is cached on the sharded table — and folded into
        one running code table (:func:`_fold_codes`), so group keys come out
        in global first-appearance order.
        """
        if not table.schema.has_column(column):
            raise ColumnNotFoundError(column, table.schema.column_names)
        self.table = table
        self.column = column
        self._offsets: Tuple[int, ...] = tuple(table.shard_offsets)
        values: List[Any] = []
        code_by_value: Dict[Any, int] = {}
        codes: List[np.ndarray] = []
        for shard in table.shards:
            run = _factorise(shard.column_array(column, allow_hidden=allow_hidden))
            codes.append(_fold_codes(values, code_by_value, *run))
        self._install(values, np.concatenate(codes).astype(np.intp, copy=False))

    def span_boundaries(self) -> Tuple[int, ...]:
        """The shard boundaries of the indexed table."""
        return self._offsets

    # -- incremental maintenance -------------------------------------------------
    def extended_by(self, delta_array: np.ndarray) -> "MergedGroupIndex":
        """:meth:`GroupIndex.extended_by` for rows appended to the *tail*
        shard: the last span boundary grows by the delta."""
        extended = super().extended_by(delta_array)
        extended._offsets = (*self._offsets[:-1], extended.total_rows())
        return extended

    def resharded(self, offsets: Sequence[int]) -> "MergedGroupIndex":
        """The same index data over a new span decomposition.

        Used after a tail seal/re-chunk: re-chunking never reorders rows, so
        values, codes and per-group row arrays are shared as-is; only the
        span boundaries change.  No memoised value depends on them, so the
        memo is carried over as it is (:meth:`derived`).
        """
        bounds = tuple(int(o) for o in offsets)
        if bounds[-1] != self.total_rows():
            raise ValueError(
                f"new offsets cover {bounds[-1]} rows but the index holds "
                f"{self.total_rows()}"
            )
        clone = copy.copy(self)
        clone._offsets = bounds
        clone._derived = {}
        clone._inherit(self, None)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MergedGroupIndex(table={getattr(self.table, 'name', None)!r}, "
            f"column={self.column!r}, "
            f"groups={self.num_groups}, shards={len(self._offsets) - 1})"
        )
