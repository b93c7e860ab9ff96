"""Table 1: the paper's running example relation."""

from repro.experiments.report import format_table
from repro.experiments.tables import table1_example


def test_table1_example(run_once):
    rows = run_once(table1_example)
    print("\nTable 1 — per-group summary of the toy relation")
    print(
        format_table(
            ["A", "tuples", "correct", "incorrect", "selectivity"],
            [[r["A"], r["tuples"], r["correct"], r["incorrect"], round(r["selectivity"], 3)] for r in rows],
        )
    )
    by_value = {row["A"]: row for row in rows}
    assert by_value[1]["correct"] == 4
    assert by_value[2]["correct"] == 1
    assert by_value[3]["correct"] == 1
    assert sum(row["tuples"] for row in rows) == 12
