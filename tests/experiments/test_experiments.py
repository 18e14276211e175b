"""Experiment harness tests: smoke-run every figure/table and assert the
paper's qualitative claims hold at smoke scale.

These are the evaluation's only assertions: ``python -m repro.experiments``
prints the same reports at any scale, and every claim EXPERIMENTS.md
records a shape for is checked here."""

from __future__ import annotations

import pytest

from repro.experiments import (
    EXPERIMENTS,
    SMOKE,
    ablation_worstcase,
    fig09_imdb_quality,
    fig10_xmark_quality,
    fig11_running_times,
    fig12_subgraph,
    fig13_ak_quality,
    scale_by_name,
    tab1_reconstruction_frequency,
    tab2_ak_times,
    tab3_storage,
)
from repro.experiments.config import SCALES
from repro.index.oneindex import OneIndex
from repro.maintenance.split_merge import SplitMergeMaintainer
from repro.workload.random_graphs import worst_case_gadget


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
        assert sm.max_quality < 0.03  # paper: "never exceeding 3%"

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
            assert sm.max_quality <= pr.max_quality
            assert sm.max_quality < 0.005  # paper: "never exceeding 0.5%"
        # propagate reconstructs at least as often on the most regular
        # dataset (lowest cyclicity) as on the most irregular one
        low_c, high_c = min(panels), max(panels)
        assert (
            panels[low_c].results["propagate"].reconstructions
            >= panels[high_c].results["propagate"].reconstructions
        )
        text = fig10_xmark_quality.report(panels)
        assert "XMark" in text


class TestFig11:
    def test_merge_phase_costs_but_reconstruction_dominates(self):
        rows = fig11_running_times.run(SMOKE)
        assert [row.dataset for row in rows] == [
            *(f"XMark({c:g})" for c in SMOKE.cyclicities), "IMDB"
        ]
        for row in rows:
            # split/merge pays for its merge phase per update...
            assert row.split_merge_ms >= row.propagate_ms * 0.5, row
            # ...but propagate + amortised reconstruction costs more
            # overall whenever any reconstruction fired
            if row.propagate_reconstructions > 0:
                assert row.propagate_with_recon_ms > row.split_merge_ms, row
        # cyclicity "does not seem to affect the performance of the
        # split/merge algorithm": max/min within an order of magnitude
        times = [row.split_merge_ms for row in rows if row.dataset.startswith("XMark")]
        assert max(times) <= 10 * min(times)
        text = fig11_running_times.report(rows)
        assert "Figure 11" in text


class TestFig12:
    def test_split_merge_zero_propagate_grows(self):
        result = fig12_subgraph.run(SMOKE)
        sm = result.runs["split/merge"]
        pr = result.runs["propagate"]
        rc = result.runs["reconstruction"]
        assert sm.max_quality == 0.0  # paper: "at 0% almost all the time"
        assert rc.max_quality == 0.0  # reconstruction is always minimum
        assert pr.max_quality >= sm.max_quality
        # reconstruction is far slower per subgraph (paper: "more than
        # 100 times")
        assert rc.mean_ms_per_subgraph > 10 * sm.mean_ms_per_subgraph
        text = fig12_subgraph.report(result)
        assert "Figure 12" in text


class TestFig13:
    def test_simple_blows_up(self):
        result = fig13_ak_quality.run(SMOKE)
        for k, run in result.runs.items():
            assert run.final_quality > 0.0  # degradation without merges
            assert run.total_merges == 0
        # "especially for small k's": the smallest k fares worst
        finals = {k: run.final_quality for k, run in result.runs.items()}
        assert finals[min(finals)] >= finals[max(finals)]
        text = fig13_ak_quality.report(result)
        assert "Figure 13" in text


class TestTab1:
    def test_simple_reconstructs(self):
        result = tab1_reconstruction_frequency.run(SMOKE)
        assert set(result.intervals) == {"XMark", "IMDB"}
        for dataset, per_k in result.intervals.items():
            for k, interval in per_k.items():
                assert interval > 0
            ks = sorted(per_k)
            assert any(per_k[k] != float("inf") for k in ks), (
                f"{dataset}: the simple algorithm never reconstructed"
            )
            # the smallest k reconstructs at least as often as the largest
            # (paper: XMark 18.6 -> 85.2; IMDB 32.2 -> 142.2)
            assert per_k[ks[0]] <= per_k[ks[-1]]
        text = tab1_reconstruction_frequency.report(result)
        assert "Table 1" in text


@pytest.fixture(scope="module")
def tab2_result():
    return tab2_ak_times.run(SMOKE)


class TestTab2:
    def test_split_merge_faster_than_simple(self, tab2_result):
        times = tab2_result.times_ms
        ks = sorted(SMOKE.ks)
        for dataset in ("XMark", "IMDB"):
            for k in ks:
                fast = times[("split/merge", dataset, k)]
                slow = times[("simple+reconstruction", dataset, k)]
                assert fast < slow  # "superior in all experiments"
            # simple's cost climbs from the smallest to the largest k...
            assert (
                times[("simple+reconstruction", dataset, ks[-1])]
                > times[("simple+reconstruction", dataset, ks[0])]
            )
            # ...while split/merge "is not affected much by k"
            sm = [times[("split/merge", dataset, k)] for k in ks]
            assert max(sm) <= 20 * max(min(sm), 0.01)
        text = tab2_ak_times.report(tab2_result)
        assert "Table 2" in text

    def test_split_merge_quality_stays_zero(self, tab2_result):
        for key, run in tab2_result.runs.items():
            if key[0] == "split/merge":
                assert run.final_quality == 0.0


class TestTab3:
    def test_overhead_grows_with_k(self):
        result = tab3_storage.run(SMOKE)
        # The extent terms scale with n while the tree/inter-iedge terms
        # saturate, so the tolerable overhead at the smallest k tightens
        # with scale (EXPERIMENTS.md, Table 3).
        bound_for_smallest_k = {"smoke": 0.30, "small": 0.15, "paper": 0.05}
        for dataset in ("XMark", "IMDB"):
            overheads = [
                result.estimates[(dataset, k)].overhead_fraction
                for k in sorted(result.ks)
            ]
            assert overheads == sorted(overheads)
            assert overheads[0] < bound_for_smallest_k[SMOKE.name]
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
        # the CLI's default sweep, to depth 128: the delete merges exactly
        # what the insert split
        for row in ablation_worstcase.run(SMOKE):
            assert row.insert_splits == row.depth + 1
            assert row.delete_merges == row.insert_splits
            assert row.index_after == row.index_before

    def test_splitter_rule_changes_no_result(self):
        """Small-splitter rule vs an arbitrary splitter on a deep gadget:
        the rule changes constants, not the work count."""

        def splits(choice: str) -> int:
            gadget = worst_case_gadget(depth=200)
            maintainer = SplitMergeMaintainer(
                OneIndex.build(gadget.graph), splitter_choice=choice
            )
            stats = maintainer.insert_edge(gadget.marker, gadget.left)
            maintainer.delete_edge(gadget.marker, gadget.left)
            return stats.splits

        assert splits("small") == splits("first") == 201


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
