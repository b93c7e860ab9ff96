"""Table 2: selectivity and savings of Intel-Sample vs the baselines per dataset."""

from repro.experiments.report import format_table
from repro.experiments.tables import table2_savings


def test_table2_savings(run_once, bench_config):
    rows = run_once(table2_savings, bench_config, include_ml_baselines=True)
    print("\nTable 2 — selectivity and savings (measured vs paper)")
    print(
        format_table(
            [
                "dataset",
                "selectivity",
                "paper_sel",
                "savings_vs_naive",
                "paper_vs_naive",
                "savings_vs_ml",
                "paper_vs_ml",
            ],
            [
                [
                    r["dataset"],
                    round(r["selectivity"], 2),
                    r["paper_selectivity"],
                    round(r.get("savings_vs_naive", 0.0), 2),
                    r["paper_savings_vs_naive"],
                    round(r.get("savings_vs_ml", 0.0), 2),
                    r["paper_savings_vs_ml"],
                ]
                for r in rows
            ],
        )
    )

    by_dataset = {row["dataset"]: row for row in rows}
    # Selectivities match the paper closely (the datasets are moment-matched).
    for name, row in by_dataset.items():
        assert abs(row["selectivity"] - row["paper_selectivity"]) < 0.03
    # Savings vs Naive are positive everywhere and largest on the
    # high-selectivity LC-like dataset, smallest on Marketing — the paper's trend.
    assert by_dataset["lending_club"]["savings_vs_naive"] > 0.4
    assert (
        by_dataset["lending_club"]["savings_vs_naive"]
        > by_dataset["marketing"]["savings_vs_naive"]
    )
