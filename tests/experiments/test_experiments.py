"""Experiment harness tests: smoke-run every figure/table and assert the
paper's qualitative claims hold at smoke scale."""

from __future__ import annotations

import pytest

from repro.experiments import (
    EXPERIMENTS,
    SMOKE,
    ablation_worstcase,
    fig09_imdb_quality,
    fig10_xmark_quality,
    fig12_subgraph,
    fig13_ak_quality,
    scale_by_name,
    tab1_reconstruction_frequency,
    tab2_ak_times,
    tab3_storage,
)
from repro.experiments.config import SCALES


class TestConfig:
    def test_scales_registered(self):
        assert set(SCALES) == {"smoke", "small", "paper"}
        assert scale_by_name("smoke") is SMOKE

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            scale_by_name("galactic")

    def test_xmark_at_overrides_cyclicity(self):
        config = SMOKE.xmark_at(0.3)
        assert config.cyclicity == 0.3
        assert config.num_items == SMOKE.xmark.num_items

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig9", "fig10", "fig11", "fig12", "fig13",
            "tab1", "tab2", "tab3", "ablation",
        }


@pytest.fixture(scope="module")
def fig9_result():
    return fig09_imdb_quality.run(SMOKE)


class TestFig9:
    def test_split_merge_dominates_propagate(self, fig9_result):
        sm = fig9_result.results["split/merge"]
        pr = fig9_result.results["propagate"]
        assert sm.max_quality <= pr.max_quality
        assert sm.max_quality < 0.05  # paper: "never exceeding 3%"

    def test_propagate_quality_nonzero_somewhere(self, fig9_result):
        pr = fig9_result.results["propagate"]
        assert pr.max_quality > 0.0 or pr.reconstructions > 0

    def test_report_renders(self, fig9_result):
        text = fig09_imdb_quality.report(fig9_result)
        assert "Figure 9" in text
        assert "split/merge" in text


class TestFig10:
    def test_panels_and_claims(self):
        panels = fig10_xmark_quality.run(SMOKE)
        assert set(panels) == set(SMOKE.cyclicities)
        for comparison in panels.values():
            sm = comparison.results["split/merge"]
            pr = comparison.results["propagate"]
            assert sm.max_quality <= max(pr.max_quality, 0.005)
            assert sm.max_quality < 0.01  # paper: "never exceeding 0.5%"
        text = fig10_xmark_quality.report(panels)
        assert "XMark" in text


class TestFig12:
    def test_split_merge_zero_propagate_grows(self):
        result = fig12_subgraph.run(SMOKE)
        sm = result.runs["split/merge"]
        pr = result.runs["propagate"]
        rc = result.runs["reconstruction"]
        assert sm.max_quality == 0.0  # paper: "at 0% almost all the time"
        assert rc.max_quality == 0.0  # reconstruction is always minimum
        assert pr.max_quality >= sm.max_quality
        # reconstruction is far slower per subgraph
        assert rc.mean_ms_per_subgraph > sm.mean_ms_per_subgraph
        text = fig12_subgraph.report(result)
        assert "Figure 12" in text


class TestFig13:
    def test_simple_blows_up(self):
        result = fig13_ak_quality.run(SMOKE)
        for k, run in result.runs.items():
            assert run.final_quality > 0.0  # degradation without merges
            assert run.total_merges == 0
        text = fig13_ak_quality.report(result)
        assert "Figure 13" in text


class TestTab1:
    def test_simple_reconstructs(self):
        result = tab1_reconstruction_frequency.run(SMOKE)
        assert set(result.intervals) == {"XMark", "IMDB"}
        for per_k in result.intervals.values():
            for k, interval in per_k.items():
                assert interval > 0
        text = tab1_reconstruction_frequency.report(result)
        assert "Table 1" in text


class TestTab2:
    def test_split_merge_faster_than_simple(self):
        result = tab2_ak_times.run(SMOKE)
        for dataset in ("XMark", "IMDB"):
            for k in SMOKE.ks:
                fast = result.times_ms[("split/merge", dataset, k)]
                slow = result.times_ms[("simple+reconstruction", dataset, k)]
                assert fast <= slow
        text = tab2_ak_times.report(result)
        assert "Table 2" in text

    def test_split_merge_quality_stays_zero(self):
        result = tab2_ak_times.run(SMOKE)
        for key, run in result.runs.items():
            if key[0] == "split/merge":
                assert run.final_quality == 0.0


class TestTab3:
    def test_overhead_grows_with_k(self):
        result = tab3_storage.run(SMOKE)
        for dataset in ("XMark", "IMDB"):
            overheads = [
                result.estimates[(dataset, k)].overhead_fraction
                for k in result.ks
            ]
            assert overheads == sorted(overheads)
            assert all(o >= 0 for o in overheads)
        text = tab3_storage.report(result)
        assert "Table 3" in text


class TestAblation:
    def test_cost_linear_in_depth(self):
        rows = ablation_worstcase.run(SMOKE, depths=(8, 16, 32))
        assert [r.insert_splits for r in rows] == [9, 17, 33]
        assert [r.delete_merges for r in rows] == [9, 17, 33]
        for row in rows:
            assert row.index_after == row.index_before
        text = ablation_worstcase.report(rows)
        assert "Figure 5" in text


class TestCli:
    def test_main_runs_single_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--scale", "smoke", "ablation"]) == 0
        out = capsys.readouterr().out
        assert "ablation" in out

    def test_main_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--scale", "smoke", "nope"])
