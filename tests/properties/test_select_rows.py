"""The count-first select against the boolean-index gather it replaces.

:func:`repro.db.table.select_rows` is how every coin-picked or memo-picked
row set is copied out (the executors' retrieval and fold, the span coin
pass, the UDF's pending rows): it must equal ``rows[mask]`` — values, dtype,
order — at every mask density, on empty and read-only input, and hand back
``rows`` itself, uncopied, when every entry passes.
"""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.db.table import select_rows


@st.composite
def rows_and_masks(draw):
    dtype = draw(st.sampled_from([np.intp, np.bool_, np.float64]))
    rows = draw(arrays(dtype, st.integers(min_value=0, max_value=300)))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    mask = np.random.default_rng(seed).random(rows.size) < density
    if draw(st.booleans()):
        rows.setflags(write=False)
    return rows, mask


@given(case=rows_and_masks())
def test_select_rows_equals_the_boolean_index_gather(case):
    rows, mask = case
    expected = rows[mask]
    selected = select_rows(rows, mask)
    assert selected.dtype == expected.dtype
    assert selected.shape == expected.shape
    assert np.array_equal(selected, expected, equal_nan=rows.dtype.kind == "f")
    if mask.all():
        assert selected is rows
    else:
        assert not np.shares_memory(selected, rows)

