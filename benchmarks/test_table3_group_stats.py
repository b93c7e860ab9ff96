"""Table 3: group statistics of each dataset under its correlated column."""

from repro.experiments.report import format_table
from repro.experiments.tables import table3_group_statistics


def test_table3_group_statistics(run_once):
    rows = run_once(table3_group_statistics)
    print("\nTable 3 — group statistics (measured vs paper)")
    print(
        format_table(
            [
                "dataset",
                "groups",
                "paper_groups",
                "size_dev",
                "paper_size_dev",
                "sel_dev",
                "paper_sel_dev",
                "corr",
                "paper_corr",
            ],
            [
                [
                    r["dataset"],
                    r["num_groups"],
                    r["paper_num_groups"],
                    round(r["size_dev"]),
                    r["paper_size_dev"],
                    round(r["selectivity_dev"], 2),
                    r["paper_selectivity_dev"],
                    round(r["correlation"], 2),
                    r["paper_correlation"],
                ]
                for r in rows
            ],
        )
    )
    for row in rows:
        assert row["num_groups"] == row["paper_num_groups"]
        assert row["correlation"] * row["paper_correlation"] > 0  # matching sign
