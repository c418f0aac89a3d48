"""Tests for the experiment harness (runner, report, registry)."""

import os

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    Series,
    format_table,
    nrmse_of,
    run,
    run_on_arrival,
    run_updates,
    sweep,
    throughput_mops,
)
from repro.experiments import config
from repro.experiments.report import emit
from repro.sketches import CountMinSketch, ZeroSketch
from repro.streams import zipf_trace


class TestRunner:
    def test_run_on_arrival_counts_everything(self):
        trace = zipf_trace(2_000, 1.0, universe=300, seed=1)
        collector = run_on_arrival(CountMinSketch(w=1 << 12, d=4), trace)
        assert collector.n == 2_000
        assert sum(collector.true_frequencies.values()) == 2_000

    def test_on_arrival_nrmse_zero_for_exact_sketch(self):
        """A collision-free CMS has zero on-arrival error."""
        trace = zipf_trace(500, 1.0, universe=50, seed=2)
        assert nrmse_of(CountMinSketch(w=1 << 14, d=4, seed=2), trace) == 0.0

    def test_zero_sketch_has_positive_nrmse(self):
        trace = zipf_trace(500, 1.0, universe=50, seed=3)
        assert nrmse_of(ZeroSketch(), trace) > 0

    def test_run_updates_returns_truth(self):
        trace = zipf_trace(300, 1.0, universe=40, seed=4)
        truth = run_updates(CountMinSketch(w=256, d=2), trace)
        assert truth == trace.frequencies()

    def test_throughput_positive(self):
        trace = zipf_trace(2_000, 1.0, universe=100, seed=5)
        mops = throughput_mops(CountMinSketch(w=256, d=4), trace)
        assert mops > 0

    def test_sweep_builds_all_points(self):
        result = ExperimentResult(figure="t", title="t", xlabel="x",
                                  ylabel="y")
        sweep(
            result, [1, 2], {"A": lambda x, t: None, "B": lambda x, t: None},
            lambda sk, x, t: float(x * 10 + t), trials=3,
        )
        assert {s.name for s in result.series} == {"A", "B"}
        for s in result.series:
            assert [x for x, _ in s.points] == [1, 2]
            assert all(p.n == 3 for _, p in s.points)

    def test_series_named_creates_once(self):
        result = ExperimentResult(figure="t", title="t", xlabel="x",
                                  ylabel="y")
        s1 = result.series_named("A")
        s2 = result.series_named("A")
        assert s1 is s2


class TestReport:
    def _result(self):
        result = ExperimentResult(figure="figX", title="demo",
                                  xlabel="mem", ylabel="err")
        s = result.series_named("algo")
        s.add(1024, [0.5, 0.7])
        s.add(2048, [0.25])
        return result

    def test_format_contains_everything(self):
        table = format_table(self._result())
        assert "figX" in table and "demo" in table
        assert "algo" in table and "1024" in table and "2048" in table

    def test_missing_cells_dashed(self):
        result = self._result()
        other = result.series_named("other")
        other.add(1024, [1.0])
        table = format_table(result)
        assert "-" in table.splitlines()[-1]  # other has no 2048 point

    def test_emit_writes_file(self, tmp_path):
        path = emit(self._result(), directory=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as fh:
            assert "figX" in fh.read()

    def test_emit_writes_under_the_working_directory(self, tmp_path,
                                                     monkeypatch, capsys):
        """``repro figure`` run anywhere writes its tables there, never
        into the checkout's tracked ``results/``."""
        monkeypatch.chdir(tmp_path)
        path = emit(self._result())
        assert os.path.samefile(path, tmp_path / "results" / "figX.txt")
        assert "figX" in (tmp_path / "results" / "figX.txt").read_text()


class TestRegistry:
    def test_every_paper_figure_present(self):
        """Every measured figure/panel of the evaluation has an entry."""
        expected = {
            "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b",
            "fig7a", "fig7b", "fig8_ny18", "fig8_ch16", "fig9a", "fig9b",
            "fig10a", "fig10b", "fig10c", "fig10d", "fig10e", "fig10f",
            "fig10g", "fig10h", "fig11a", "fig11b", "fig11c", "fig11d",
            "fig12a", "fig12b", "fig13", "fig14a", "fig14b", "fig14c",
            "fig14d", "fig14e", "fig14f", "fig15a", "fig15b", "fig15c",
            "fig15d", "fig16a", "fig16b", "fig16c", "fig16d", "fig17a",
            "fig17b", "fig19", "fig20",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            run("fig99")

    def test_run_normalizes_to_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        monkeypatch.setenv("REPRO_TRIALS", "1")
        results = run("fig5b")
        assert isinstance(results, list)
        assert all(isinstance(r, ExperimentResult) for r in results)
        assert results[0].figure == "fig5b"


class TestConfig:
    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert config.stream_length(10_000) == 5_000

    def test_scale_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.000001")
        assert config.stream_length() == 1_000

    def test_trials_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "7")
        assert config.trials() == 7

    def test_trials_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "0")
        assert config.trials() == 1


class TestScenarioSweeps:
    """The scenario_* figures and their scenarios/shards arguments."""

    def test_every_scenario_builds_at_its_defaults(self):
        from repro.streams import SCENARIO_NAMES, SCENARIOS, make_scenario

        for name in SCENARIO_NAMES:
            assert SCENARIOS[name].summary()
            assert make_scenario(name).trace(100, seed=0).volume == 100

    def test_grid_scoping_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        monkeypatch.setenv("REPRO_TRIALS", "1")
        for fig in ("scenario_error", "scenario_speed"):
            with pytest.raises(ValueError, match="unknown scenario"):
                run(fig, scenarios=["tsunami"])
            with pytest.raises(ValueError, match="shards"):
                run(fig, shards=0)

    def test_scenario_error_one_table_per_grid_entry(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        monkeypatch.setenv("REPRO_TRIALS", "1")
        results = run("scenario_error", scenarios=["flash", "replay"])
        assert [r.figure for r in results] == [
            "scenario_error_flash", "scenario_error_replay"]
        for result in results:
            assert {s.name for s in result.series} >= {"SALSA CMS"}
            assert all(s.points for s in result.series)

    def test_scenario_error_sharded_matches_single_for_sum_free_cells(
            self, monkeypatch):
        """Sharding changes the route, not the table shape."""
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        monkeypatch.setenv("REPRO_TRIALS", "1")
        (result,) = run("scenario_error", scenarios=["drift"], shards=3)
        assert "[3 shards]" in result.title
        assert {s.name for s in result.series} == {"SALSA CMS",
                                                   "SALSA CUS"}

    def test_scenario_speed_series_per_scenario(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        monkeypatch.setenv("REPRO_TRIALS", "1")
        (result,) = run("scenario_speed", scenarios=["drift", "churn"])
        assert {s.name for s in result.series} == {"drift", "churn"}
        for series in result.series:
            assert all(mops.mean > 0 for _, mops in series.points)
