"""The python-callable UDF of the ``udf_process`` workload.

Module level and picklable, so a ``spawn`` worker process can import it by
path: a class defined inside the driver would not survive the trip.
"""

from __future__ import annotations

import math
from typing import Any, Mapping


class SpinLabel:
    """Reveals a hidden label column after a fixed amount of python work.

    ``spin`` iterations of a dependent ``sin`` chain model the expensive
    predicate (150 iterations cost about 20 microseconds a row); the result
    is the label itself, so ground truth stays exact.
    """

    def __init__(self, label_column: str, spin: int):
        self.label_column = label_column
        self.spin = spin

    def __call__(self, row: Mapping[str, Any]) -> bool:
        acc = 0.0
        for k in range(self.spin):
            acc += math.sin(acc + k)
        return bool(row[self.label_column]) ^ (acc > 1e9)  # the acc term never trips
