"""The string branch of ``coerce_cells_to_array`` against the general rule.

A list of ``str`` cells that all have one width (at least 1) is built from
one encoded join; any other list takes the general rule.  Whatever the
cells — ASCII, non-BMP, lone surrogates, NULs, empty strings, ``np.str_``
among them, or ``str`` beside ``int``, ``float``, ``bool``, ``None``,
``bytes`` and ``list`` cells — the array must be the one
:func:`general_rule` (the rule every column followed before the branch,
kept here verbatim) gives: the same dtype, the same bytes and the same
``tolist()``.  A string column built in deltas
(:func:`~repro.db.table.extended_column`) equals the same column built
whole.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.db.table import coerce_cells_to_array, extended_column

#: Pieces a cell is made of: the cases a UTF-32 join must carry exactly.
PIECES = ["a", "Zq", "é", "\x00", "\U0001F600", "\U0010FFFF", "\ud800", "\udfff", "\uffff"]


def general_rule(values):
    """``np.asarray`` plus the mixed-type scan, falling back to objects."""
    try:
        array = np.asarray(values)
        if array.ndim != 1 or len(array) != len(values):
            raise ValueError("sequence-valued cells")
        if array.dtype.kind in ("U", "S") and not all(
            isinstance(value, str) for value in values
        ):
            raise ValueError("mixed-type cells")
    except ValueError:
        array = np.empty(len(values), dtype=object)
        array[:] = values
    return array


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # an object array: the same objects
    assert got.tolist() == want.tolist()
    assert [type(cell) for cell in got.tolist()] == [type(cell) for cell in want.tolist()]


pieced = st.lists(st.sampled_from(PIECES), max_size=5).map("".join)
cell_text = pieced | st.text(max_size=6) | st.just("")


@st.composite
def string_cells(draw):
    """A few distinct cells, of one width or of several, repeated."""
    if draw(st.booleans()):  # one width: the join path
        width = draw(st.integers(min_value=0, max_value=5))
        text = st.lists(st.sampled_from(PIECES), min_size=width, max_size=width).map("".join)
    else:
        text = cell_text
    distinct = draw(st.lists(text, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=60))
    cells = [distinct[pick] for pick in picks]
    wrapped = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    return [
        np.str_(cell) if wrap and position else cell  # the first cell stays a str
        for position, (cell, wrap) in enumerate(zip(cells, wrapped))
    ]


others = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.binary(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)


@given(values=string_cells())
def test_string_cells_coerce_as_the_general_rule(values):
    array = coerce_cells_to_array(values)
    assert_same_array(array, general_rule(values))
    assert array.dtype.kind == "U"
    if len({len(cell) for cell in values}) == 1 and values[0]:  # the join path
        assert not array.flags.writeable


@given(
    head=cell_text,
    tail=st.lists(st.one_of(cell_text, others), max_size=12),
)
def test_str_beside_other_cells_coerces_as_the_general_rule(head, tail):
    values = [head] + tail
    assert_same_array(coerce_cells_to_array(values), general_rule(values))


@given(values=st.lists(st.one_of(cell_text, others), max_size=12))
def test_any_first_cell_coerces_as_the_general_rule(values):
    assert_same_array(coerce_cells_to_array(values), general_rule(values))


@given(values=string_cells(), cuts=st.lists(st.integers(0, 60), max_size=4))
def test_a_string_column_built_in_deltas_equals_it_built_whole(values, cuts):
    bounds = sorted({0, len(values), *(min(cut, len(values)) for cut in cuts)})
    column = coerce_cells_to_array(values[: bounds[1]])
    for start, stop in zip(bounds[1:], bounds[2:]):
        column = extended_column(column, coerce_cells_to_array(values[start:stop]))
    assert_same_array(column, coerce_cells_to_array(values))


def test_numpy_input_takes_the_general_rule():
    array = np.array(["ab", "c"])
    assert coerce_cells_to_array(array) is array
    assert coerce_cells_to_array(["a", 1]).dtype == object
    assert coerce_cells_to_array([]).dtype == general_rule([]).dtype
