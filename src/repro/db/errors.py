"""Exception hierarchy for the database substrate."""

from __future__ import annotations


class DatabaseError(Exception):
    """Base class for every error raised by :mod:`repro.db`."""


class SchemaMismatchError(DatabaseError):
    """A row or column does not match the table schema."""


class ColumnNotFoundError(DatabaseError, KeyError):
    """A referenced column does not exist in the schema."""

    def __init__(self, column: str, available=None):
        self.column = column
        self.available = list(available) if available is not None else None
        message = f"column {column!r} not found"
        if self.available is not None:
            message += f"; available columns: {self.available}"
        super().__init__(message)


class TableNotFoundError(DatabaseError, KeyError):
    """A referenced table is not registered in the catalog."""

    def __init__(self, table: str):
        self.table = table
        super().__init__(f"table {table!r} not found in catalog")


class UdfNotFoundError(DatabaseError, KeyError):
    """A referenced UDF is not registered."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"UDF {name!r} is not registered")


class DuplicateObjectError(DatabaseError):
    """An object (table, UDF) with the same name already exists."""


class UnsupportedQueryError(DatabaseError):
    """A query asked for an evaluation strategy the engine cannot provide."""

    def __init__(self, strategy, available=None):
        self.strategy = strategy
        self.available = sorted(available) if available is not None else None
        message = f"unsupported evaluation strategy {strategy!r}"
        if self.available is not None:
            message += f"; registered strategies: {self.available}"
        super().__init__(message)


class UnpicklableUdfError(DatabaseError):
    """A UDF wraps a callable that cannot be shipped to worker processes."""

    def __init__(self, name: str, func=None):
        self.name = name
        self.func = func
        super().__init__(
            f"UDF {name!r} wraps a callable that does not pickle; process-pool "
            "execution needs a module-level callable (see "
            "repro.db.udf.RevealLabel) or a label-column UDF"
        )


class BudgetExhaustedError(DatabaseError):
    """A UDF call was attempted after its cost budget ran out."""

    def __init__(self, budget: float, spent: float):
        self.budget = budget
        self.spent = spent
        super().__init__(
            f"UDF cost budget exhausted: budget={budget}, already spent={spent}"
        )


class StorageError(DatabaseError):
    """Base class for durable-storage failures (:mod:`repro.db.storage`)."""


class CorruptSegmentError(StorageError):
    """A persisted artifact failed checksum or structural validation.

    Raised for bit-flipped segment blocks, torn journal headers, manifests
    that do not parse — anything where the bytes on disk no longer match
    what was committed.  The store quarantines the offending file and either
    degrades to rebuild-from-source or surfaces this error; it never serves
    silently corrupted data.
    """

    def __init__(self, path, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"corrupt storage artifact {self.path}: {reason}")


class SegmentMapError(StorageError):
    """A durable segment could not be mapped into memory.

    Raised by the residency layer (:mod:`repro.db.residency`) when a lazy
    column's first-touch map fails even after a retry — an I/O error, a
    vanished file, or an injected ``segment_map`` fault.  Distinct from
    :class:`CorruptSegmentError` (bytes present but wrong): the mapping
    machinery itself failed, so the table degrades to rebuilt-in-memory
    operation through its map circuit breaker instead of quarantining.
    """

    def __init__(self, path, reason: str):
        self.path = str(path)
        self.reason = reason
        super().__init__(f"cannot map segment {self.path}: {reason}")

    def __reduce__(self):
        # Raised in pool workers: default pickling would ship only the
        # message and fail to rebuild in the parent's result thread.
        return (SegmentMapError, (self.path, self.reason))


class ManifestVersionError(StorageError):
    """A manifest was written by an incompatible storage format version."""

    def __init__(self, path, found: object, supported: int):
        self.path = str(path)
        self.found = found
        self.supported = supported
        super().__init__(
            f"manifest {self.path} has format version {found!r}; this build "
            f"supports version {supported} (migrate or rebuild from source)"
        )
