"""Table schemas."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence

from repro.db.column import Column, ColumnType, infer_column_type
from repro.db.errors import ColumnNotFoundError, SchemaMismatchError


class Schema:
    """An ordered collection of :class:`~repro.db.column.Column` definitions."""

    def __init__(self, columns: Iterable[Column]):
        self._columns: List[Column] = list(columns)
        names = [c.name for c in self._columns]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaMismatchError(
                f"duplicate column names in schema: {sorted(duplicates)}"
            )
        self._by_name: Dict[str, Column] = {c.name: c for c in self._columns}
        # Read once per row by Table.row; the properties below hand out copies.
        self._names = tuple(names)
        self._visible_names = tuple(c.name for c in self._columns if not c.hidden)

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_types(cls, **column_types: ColumnType | str) -> "Schema":
        """Build a schema from ``name=type`` keyword pairs."""
        return cls(
            Column(name=name, column_type=ColumnType(ctype))
            for name, ctype in column_types.items()
        )

    @classmethod
    def infer(cls, rows: Sequence[Mapping[str, Any]]) -> "Schema":
        """Infer a schema from a non-empty sequence of dict rows."""
        if not rows:
            raise SchemaMismatchError("cannot infer a schema from zero rows")
        names = list(rows[0].keys())
        columns = []
        for name in names:
            values = [row.get(name) for row in rows[: min(len(rows), 100)]]
            columns.append(Column(name=name, column_type=infer_column_type(values)))
        return cls(columns)

    # -- lookup ----------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        """Names of all columns, in schema order."""
        return list(self._names)

    @property
    def columns(self) -> List[Column]:
        """All column definitions, in schema order."""
        return list(self._columns)

    @property
    def visible_column_names(self) -> List[str]:
        """Names of columns not marked hidden."""
        return list(self._visible_names)

    def column(self, name: str) -> Column:
        """Look up a column by name, raising :class:`ColumnNotFoundError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ColumnNotFoundError(name, self.column_names) from None

    def has_column(self, name: str) -> bool:
        """Whether ``name`` is a column of this schema."""
        return name in self._by_name

    def categorical_columns(self, include_hidden: bool = False) -> List[Column]:
        """Columns eligible to act as the correlated attribute ``A``."""
        return [
            c
            for c in self._columns
            if c.is_categorical and (include_hidden or not c.hidden)
        ]

    def numeric_columns(self, include_hidden: bool = False) -> List[Column]:
        """Columns eligible to act as logistic-regression features."""
        return [
            c
            for c in self._columns
            if c.is_numeric and (include_hidden or not c.hidden)
        ]

    # -- validation --------------------------------------------------------------
    def validate_row(self, row: Mapping[str, Any]) -> None:
        """Check a dict row against the schema."""
        missing = [n for n in self.column_names if n not in row]
        if missing:
            raise SchemaMismatchError(f"row is missing columns {missing}")
        extra = [n for n in row if n not in self._by_name]
        if extra:
            raise SchemaMismatchError(f"row has unknown columns {extra}")
        for name, value in row.items():
            self._by_name[name].validate_value(value)

    def validate_rows(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Check many dict rows against the schema in one pass.

        Equivalent to calling :meth:`validate_row` on every row but
        restructured column-wise: key sets are compared once per row, and
        value validation only visits columns whose type actually constrains
        values (numeric/boolean) — categorical and text columns accept
        anything, so they are skipped entirely instead of per cell.
        """
        expected = set(self.column_names)
        for row in rows:
            if set(row.keys()) != expected:
                # Re-raise through the per-row path for its precise message.
                self.validate_row(row)
        for column in self._columns:
            if column.column_type in (ColumnType.NUMERIC, ColumnType.BOOLEAN):
                name = column.name
                validate = column.validate_value
                for row in rows:
                    validate(row[name])

    # -- dunder ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return [
            (c.name, c.column_type, c.hidden) for c in self._columns
        ] == [(c.name, c.column_type, c.hidden) for c in other._columns]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{c.name}:{c.column_type}" for c in self._columns)
        return f"Schema({cols})"
