"""Typed columns for the in-memory column store."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, List, Sequence

import numpy as np


class ColumnType(str, Enum):
    """Supported logical column types.

    ``CATEGORICAL`` columns are the candidates for the paper's correlated
    attribute ``A``; ``NUMERIC`` columns feed the logistic-regression virtual
    column; ``BOOLEAN`` columns typically hold hidden ground-truth labels.
    """

    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    BOOLEAN = "boolean"
    TEXT = "text"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def infer_column_type(values: Sequence[Any]) -> ColumnType:
    """Guess a :class:`ColumnType` from example values.

    Booleans map to ``BOOLEAN``, ints/floats to ``NUMERIC``, everything else
    to ``CATEGORICAL`` (strings with many distinct values are still treated as
    categorical; the column-selection logic applies its own distinct-value
    cap).
    """
    saw_numeric = False
    for value in values:
        if isinstance(value, (bool, np.bool_)):
            return ColumnType.BOOLEAN
        if isinstance(value, (int, float, np.integer, np.floating)):
            saw_numeric = True
        else:
            return ColumnType.CATEGORICAL
    return ColumnType.NUMERIC if saw_numeric else ColumnType.CATEGORICAL


@dataclass
class Column:
    """A named, typed column definition.

    Attributes
    ----------
    name:
        Column name, unique within a schema.
    column_type:
        Logical type of the values.
    hidden:
        Hidden columns hold ground-truth labels: the query layer refuses to
        read them except through a registered UDF, mirroring the paper's
        evaluation protocol.
    description:
        Optional human-readable description (used by dataset generators).
    """

    name: str
    column_type: ColumnType = ColumnType.CATEGORICAL
    hidden: bool = False
    description: str = ""
    _metadata: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"column name must be a non-empty string, got {self.name!r}")
        if isinstance(self.column_type, str):
            self.column_type = ColumnType(self.column_type)

    @property
    def is_categorical(self) -> bool:
        """Whether this column can serve as a grouping attribute."""
        return self.column_type in (ColumnType.CATEGORICAL, ColumnType.BOOLEAN)

    @property
    def is_numeric(self) -> bool:
        """Whether this column can feed a numeric feature to the ML layer."""
        return self.column_type == ColumnType.NUMERIC

    def validate_value(self, value: Any) -> None:
        """Raise ``ValueError`` when ``value`` does not fit the column type."""
        if value is None:
            return
        if self.column_type == ColumnType.NUMERIC:
            if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)
            ):
                raise ValueError(
                    f"column {self.name!r} is numeric but received {value!r}"
                )
        elif self.column_type == ColumnType.BOOLEAN:
            if not isinstance(value, (bool, np.bool_, int, np.integer)):
                raise ValueError(
                    f"column {self.name!r} is boolean but received {value!r}"
                )

    def with_metadata(self, **metadata: Any) -> "Column":
        """Return a copy of the column carrying extra metadata."""
        merged = dict(self._metadata)
        merged.update(metadata)
        return Column(
            name=self.name,
            column_type=self.column_type,
            hidden=self.hidden,
            description=self.description,
            _metadata=merged,
        )

    @property
    def metadata(self) -> dict:
        """Read-only view of the column metadata."""
        return dict(self._metadata)


def distinct_values(values: Iterable[Any]) -> List[Any]:
    """Distinct values of a column in first-appearance order."""
    seen = {}
    for value in values:
        if value not in seen:
            seen[value] = None
    return list(seen.keys())
