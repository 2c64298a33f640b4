"""Shape tests for the experiment drivers (tiny scale, few repetitions).

Each test runs a paper experiment at a very small scale and asserts the
*qualitative* property the figure demonstrates, not absolute numbers.
"""

import pytest

from repro.experiments import (
    ablations,
    fig09_preemption,
    fig10_vs_offline,
    fig11_scalability,
    fig12_workload,
    fig13_budget,
    fig14_skew,
    fig15_noise,
    model_quality,
    panorama,
    runtime_table,
    table1_config,
)
from repro.experiments.cli import (
    EXPERIMENTS,
    build_parser,
    main,
    render_result,
    run_one,
    try_chart,
)

SCALE = 0.12
REPS = 2


@pytest.fixture(scope="module")
def fig12_result():
    return fig12_workload.run(scale=SCALE, seed=3, repetitions=REPS)


@pytest.fixture(scope="module")
def fig13_result():
    return fig13_budget.run(scale=SCALE, seed=3, repetitions=REPS)


class TestTable1:
    def test_all_defaults_verified(self):
        result = table1_config.run()
        assert all(row[-1] for row in result.rows)
        assert len(result.rows) == 10


class TestFig9:
    def test_rank_policies_gain_from_preemption(self):
        result = fig09_preemption.run(scale=SCALE, seed=1, repetitions=REPS)
        by_policy = {row[0]: (row[1], row[2]) for row in result.rows}
        # MRSF and M-EDF should benefit from preemption.
        assert by_policy["MRSF"][1] >= by_policy["MRSF"][0] - 0.02
        assert by_policy["M-EDF"][1] >= by_policy["M-EDF"][0] - 0.02

    def test_completeness_in_unit_range(self):
        result = fig09_preemption.run(scale=SCALE, seed=2, repetitions=1)
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0 and 0.0 <= row[2] <= 1.0


class TestFig10:
    def test_shapes(self):
        result = fig10_vs_offline.run(scale=SCALE, seed=5, repetitions=REPS)
        mrsf = result.series("MRSF(P) %")
        sedf = result.series("S-EDF(P) %")
        offline = result.series("offline %")
        # Completeness (as % of bound) trends down with rank.
        assert mrsf[0] >= mrsf[-1]
        # MRSF is never dominated: at least as good as S-EDF(P) everywhere.
        assert all(m >= s - 1e-6 for m, s in zip(mrsf, sedf))
        # Rank 1: every online policy achieves the bound.
        assert result.rows[0][3] == pytest.approx(100.0)
        # MRSF beats the paper-mode offline baseline on most ranks.
        wins = sum(1 for m, o in zip(mrsf, offline) if m >= o)
        assert wins >= len(mrsf) - 1


class TestRuntime:
    def test_offline_slower_and_diverging(self):
        result = runtime_table.run(scale=SCALE, seed=1, repetitions=1)
        ratios = [row[-1] for row in result.rows]
        # Offline is clearly slower at the largest instance, and the gap
        # widens with size (the split-interval graph is O(N^2)).
        assert ratios[-1] > 3.0
        assert ratios[-1] > ratios[0]

    def test_medf_costlier_than_sedf(self):
        # Use the Figure 11 sweep (larger, denser instances) where the
        # O(rank) cost of M-EDF value evaluation shows up reliably.
        result = fig11_scalability.run(scale=0.2, seed=1, repetitions=1)
        sedf = result.series("S-EDF total s")
        medf = result.series("M-EDF total s")
        assert sum(medf) > sum(sedf)


class TestFig11:
    def test_total_runtime_grows_with_profiles(self):
        result = fig11_scalability.run(scale=SCALE, seed=1, repetitions=1)
        totals = result.series("MRSF total s")
        assert totals[-1] > totals[0]
        # msec/EI stays in the same ballpark across the sweep (linear
        # scaling).
        per_ei = result.series("MRSF ms/EI")
        assert max(per_ei) < 20 * min(per_ei)

    def test_eis_grow_with_profiles(self):
        result = fig11_scalability.run(scale=SCALE, seed=1, repetitions=1)
        eis = result.series("EIs")
        assert eis == sorted(eis)


class TestFig12:
    def test_completeness_decreases_with_intensity(self, fig12_result):
        mrsf = fig12_result.series("MRSF(P)")
        assert mrsf[0] > mrsf[-1]

    def test_mrsf_dominates_sedf_np(self, fig12_result):
        mrsf = fig12_result.series("MRSF(P)")
        sedf = fig12_result.series("S-EDF(NP)")
        assert all(m >= s - 0.02 for m, s in zip(mrsf, sedf))

    def test_medf_similar_to_mrsf(self, fig12_result):
        mrsf = fig12_result.series("MRSF(P)")
        medf = fig12_result.series("M-EDF(P)")
        assert all(abs(m - e) < 0.1 for m, e in zip(mrsf, medf))


class TestFig12Companion:
    def test_profiles_sweep_shapes(self):
        result = fig12_workload.run_profiles(scale=SCALE, seed=3, repetitions=REPS)
        mrsf = result.series("MRSF(P)")
        sedf = result.series("S-EDF(NP)")
        assert mrsf[0] > mrsf[-1]  # more profiles, less completeness
        assert all(m >= s - 0.02 for m, s in zip(mrsf, sedf))


class TestFig13:
    def test_completeness_increases_with_budget(self, fig13_result):
        mrsf = fig13_result.series("MRSF(P)")
        assert mrsf[-1] > mrsf[0]

    def test_mrsf_utilizes_budget_at_least_as_well(self, fig13_result):
        mrsf = fig13_result.series("MRSF(P)")
        sedf = fig13_result.series("S-EDF(P)")
        assert all(m >= s - 0.05 for m, s in zip(mrsf, sedf))


class TestFig14:
    def test_skew_improves_relative_completeness(self):
        result = fig14_skew.run(scale=SCALE, seed=2, repetitions=3)
        for column in ("S-EDF(NP) rel", "MRSF(P) rel", "M-EDF(P) rel"):
            series = result.series(column)
            assert series[0] == 1.0  # the alpha=0 baseline over itself
            assert series[-1] > 1.0


class TestFig15:
    def test_noise_grid_monotone(self):
        result = fig15_noise.run(scale=SCALE, seed=2, repetitions=REPS)
        # Down each row: more noise, less completeness (ends of the row).
        for row in result.rows:
            assert row[1] >= row[-1] - 0.02
        # Down the rank column at zero noise.
        clean = [row[1] for row in result.rows]
        assert clean[0] >= clean[-1]

    def test_news_part_decreases_with_rank(self):
        result = fig15_noise.run_news(scale=SCALE, seed=2, repetitions=REPS)
        series = result.series("M-EDF(P)")
        assert series[0] > series[-1]


class TestAblations:
    def test_overlap_sharing_wins(self):
        result = ablations.run_overlap(scale=SCALE, seed=1, repetitions=REPS)
        assert result.rows[0][1] >= result.rows[1][1]

    def test_semantics_monotone(self):
        result = ablations.run_semantics(scale=SCALE, seed=1, repetitions=REPS)
        and_c, k_of_n, any_c = (row[1] for row in result.rows)
        assert and_c <= k_of_n + 0.02
        assert k_of_n <= any_c + 0.02

    def test_weighted_policy_improves_weighted_completeness(self):
        result = ablations.run_weighted(scale=SCALE, seed=1, repetitions=3)
        unweighted, weighted = (row[1] for row in result.rows)
        assert weighted >= unweighted - 0.02

    def test_offline_modes_ordering(self):
        result = ablations.run_offline_modes(scale=SCALE, seed=1, repetitions=REPS)
        paper_mode, tight_mode, __online = (row[1] for row in result.rows)
        assert tight_mode >= paper_mode

    def test_merged_table(self):
        result = ablations.run(scale=SCALE, seed=1, repetitions=1)
        labels = {row[0] for row in result.rows}
        assert len(labels) == 5

    def test_budget_shape_ablation(self):
        result = ablations.run_budget_shape(scale=SCALE, seed=1, repetitions=REPS)
        constant, shaped, anti = (row[1] for row in result.rows)
        assert shaped >= constant - 0.05  # shaping with demand never hurts much
        assert anti <= constant + 0.02  # shaping against demand never helps


class TestExtensions:
    def test_model_quality_monotone_in_hit_rate(self):
        result = model_quality.run(scale=SCALE, seed=4, repetitions=REPS)
        rows = sorted(result.rows, key=lambda row: -row[1])  # by hit rate
        completenesses = [row[3] for row in rows]
        # Perfect model leads; completeness trends with hit rate (allow
        # small inversions between close estimators).
        assert completenesses[0] == max(completenesses)
        assert completenesses[0] > completenesses[-1]

    def test_model_quality_has_all_models(self):
        result = model_quality.run(scale=SCALE, seed=4, repetitions=1)
        labels = {row[0] for row in result.rows}
        assert "perfect" in labels and "homogeneous-poisson" in labels
        assert len(labels) == 5

    def test_panorama_orders_policies_sanely(self):
        result = panorama.run(scale=SCALE, seed=4, repetitions=REPS)
        by_policy = {row[0]: row[1] for row in result.rows}
        assert by_policy["MRSF(P)"] >= by_policy["RANDOM(P)"]
        assert by_policy["M-EDF(P)"] >= by_policy["RANDOM(P)"]
        assert by_policy["M-EDF(P)"] >= by_policy["FIFO(P)"] - 0.02
        # Rows come sorted by completeness, best first.
        values = [row[1] for row in result.rows]
        assert values == sorted(values, reverse=True)

    def test_panorama_includes_clairvoyant(self):
        result = panorama.run(scale=SCALE, seed=4, repetitions=1)
        assert any(row[0] == "CLAIRVOYANT" for row in result.rows)


class TestCLI:
    def test_every_registered_experiment_is_callable(self):
        assert set(EXPERIMENTS) >= {
            "table1", "fig9", "fig10", "runtime", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig15news", "ablations",
        }

    def test_parser_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_parser_run_defaults(self):
        args = build_parser().parse_args(["run", "fig12"])
        assert args.scale == 1.0 and args.seed == 0

    def test_main_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out

    def test_main_run_one(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_run_one_with_reps_override(self):
        result = run_one("fig12", scale=SCALE, seed=0, reps=1)
        assert len(result.rows) == 5

    def test_experiment_result_series_helpers(self):
        result = table1_config.run()
        assert result.series("parameter")[0] == "w (chronons)"
        mapping = result.column_by_x("parameter", "baseline")
        assert mapping["n"] == "1000"

    def test_render_result_formats(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            experiment="demo", headers=["x", "y"], rows=[[1, 0.5], [2, 0.6]]
        )
        assert "| x | y" in render_result(result, "table").replace("  ", " ")
        assert render_result(result, "csv").startswith("x,y\n")
        import json

        payload = json.loads(render_result(result, "json"))
        assert payload["experiment"] == "demo"

    def test_try_chart_numeric_series(self):
        from repro.experiments.common import ExperimentResult

        numeric = ExperimentResult(
            experiment="demo", headers=["x", "y"], rows=[[1, 0.5], [2, 0.6]]
        )
        assert "y" in try_chart(numeric)
        categorical = ExperimentResult(
            experiment="demo", headers=["name", "y"], rows=[["a", 0.5], ["b", 0.6]]
        )
        assert try_chart(categorical) == ""
        short = ExperimentResult(
            experiment="demo", headers=["x", "y"], rows=[[1, 0.5]]
        )
        assert try_chart(short) == ""

    def test_main_run_with_csv_format(self, capsys):
        assert main(["run", "table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("parameter,name,range")


class TestSummary:
    def test_self_check_all_claims_pass(self):
        from repro.experiments import summary

        result = summary.run(scale=SCALE, seed=0, repetitions=REPS)
        verdicts = result.series("verdict")
        assert len(verdicts) >= 20
        failed = [
            (row[0], row[1], row[3])
            for row in result.rows
            if row[2] != "PASS"
        ]
        assert not failed, f"claims failed: {failed}"

    def test_self_check_registered_in_cli(self):
        assert "summary" in EXPERIMENTS


class TestShardedScalability:
    def test_sharded_mode_identical_and_reported(self):
        from repro.experiments import scalability

        result = scalability.run(scale=0.05, seed=3, shards=2)
        assert "sharded engine" in result.experiment
        assert [row[-1] for row in result.rows] == ["yes"] * len(result.rows)
        speedup_column = result.series("speedup")
        assert all(s > 0 for s in speedup_column)

    def test_run_one_forwards_shards(self):
        result = run_one(
            "scalability", scale=0.05, seed=3, reps=0,
            engine="vectorized", shards=2,
        )
        assert "shards=2" in result.experiment

    def test_cli_parses_shards(self):
        args = build_parser().parse_args(
            ["run", "scalability", "--scale", "0.05", "--shards", "3"]
        )
        assert args.shards == 3
