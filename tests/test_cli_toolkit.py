"""Tests for the top-level toolkit CLI (``python -m repro``)."""

import pytest

from repro.cli import SKETCHES, _parse_memory, main
from repro.experiments import report


@pytest.fixture
def npz_trace(tmp_path):
    path = str(tmp_path / "t.npz")
    assert main(["generate", "zipf", path,
                 "--length", "3000", "--skew", "1.1",
                 "--universe", "1000", "--seed", "3"]) == 0
    return path


class TestParseMemory:
    def test_plain_bytes(self):
        assert _parse_memory("4096") == 4096

    def test_kilobytes(self):
        assert _parse_memory("64K") == 64 * 1024
        assert _parse_memory("64k") == 64 * 1024

    def test_megabytes(self):
        assert _parse_memory("2M") == 2 * 1024 * 1024

    def test_fractional(self):
        assert _parse_memory("0.5K") == 512


class TestGenerate:
    def test_zipf_npz(self, tmp_path, capsys):
        path = str(tmp_path / "z.npz")
        assert main(["generate", "zipf", path, "--length", "3000"]) == 0
        assert "3,000 updates" in capsys.readouterr().out

    def test_dataset_flows(self, tmp_path, capsys):
        path = str(tmp_path / "t.flows")
        assert main(["generate", "ny18", path, "--length", "2000"]) == 0
        assert "2,000 updates" in capsys.readouterr().out

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", str(tmp_path / "x.npz")])


class TestProfile:
    def test_profile_npz(self, npz_trace, capsys):
        assert main(["profile", npz_trace]) == 0
        out = capsys.readouterr().out
        assert "volume N" in out
        assert "3,000" in out

    def test_profile_flows(self, tmp_path, capsys):
        path = str(tmp_path / "t.flows")
        main(["generate", "zipf", path, "--length", "500"])
        capsys.readouterr()
        assert main(["profile", path]) == 0
        assert "volume N" in capsys.readouterr().out


class TestRun:
    @pytest.mark.parametrize("sketch", sorted(SKETCHES))
    def test_every_sketch_runs(self, npz_trace, capsys, sketch):
        assert main(["run", npz_trace, "--sketch", sketch,
                     "--memory", "16K"]) == 0
        out = capsys.readouterr().out
        assert "NRMSE" in out
        assert sketch in out

    def test_unknown_sketch_rejected(self, npz_trace):
        with pytest.raises(SystemExit):
            main(["run", npz_trace, "--sketch", "bogus"])


class TestTopk:
    def test_topk_finds_the_head(self, npz_trace, capsys):
        assert main(["topk", npz_trace, "-k", "5",
                     "--memory", "32K"]) == 0
        out = capsys.readouterr().out
        assert "top-5" in out
        # 5 ranked rows printed.
        rows = [line for line in out.splitlines()
                if line.strip() and line.split()[0].isdigit()]
        assert len(rows) == 5

    def test_topk_estimates_close_to_truth(self, npz_trace, capsys):
        main(["topk", npz_trace, "-k", "3", "--memory", "64K"])
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()
                if line.strip() and line.split()[0].isdigit()]
        for _rank, _item, estimate, true in rows:
            assert abs(float(estimate) - int(true)) <= max(
                5, 0.2 * int(true))


class TestSharded:
    def test_run_with_shards(self, npz_trace, capsys):
        assert main(["run", npz_trace, "--sketch", "salsa-cms",
                     "--memory", "16K", "--shards", "3",
                     "--batch-size", "1024"]) == 0
        out = capsys.readouterr().out
        assert "3 workers (hash)" in out
        assert "NRMSE" in out

    def test_run_shards_round_robin_per_item(self, npz_trace, capsys):
        assert main(["run", npz_trace, "--sketch", "salsa-cs",
                     "--memory", "16K", "--shards", "2",
                     "--shard-policy", "round_robin"]) == 0
        assert "round_robin" in capsys.readouterr().out

    def test_run_shards_rejects_unmergeable_sketch(self, npz_trace):
        """The library's own error, before any ingest."""
        with pytest.raises(SystemExit) as info:
            main(["run", npz_trace, "--sketch", "cms", "--shards", "2"])
        assert str(info.value) == (
            "error: --shards 2: CountMinSketch cannot be sharded: "
            "serialize.dumps cannot ship it to combine 2 workers")

    def test_run_shards_rejects_bad_count(self, npz_trace):
        with pytest.raises(SystemExit):
            main(["run", npz_trace, "--sketch", "salsa-cms",
                  "--shards", "0"])

    def test_speed_with_shards(self, npz_trace, capsys):
        assert main(["speed", npz_trace, "--sketch", "salsa-cms",
                     "--memory", "16K", "--shards", "2",
                     "--batch-size", "512"]) == 0
        out = capsys.readouterr().out
        assert "feed_stream" in out
        assert "speedup" in out


class TestWindow:
    def test_window_batched(self, npz_trace, capsys):
        assert main(["window", npz_trace, "--epoch", "800",
                     "--memory", "16K", "--batch-size", "256"]) == 0
        out = capsys.readouterr().out
        assert "rotations" in out
        assert "mean |est - true|" in out

    def test_window_per_item_matches_batched_rotations(self, npz_trace,
                                                       capsys):
        assert main(["window", npz_trace, "--epoch", "800",
                     "--memory", "16K", "--batch-size", "1"]) == 0
        per_item = capsys.readouterr().out
        assert main(["window", npz_trace, "--epoch", "800",
                     "--memory", "16K", "--batch-size", "4096"]) == 0
        batched = capsys.readouterr().out

        def stats(out):
            return [line for line in out.splitlines()
                    if line.startswith(("epoch:", "window:"))]

        assert stats(per_item) == stats(batched)

    def test_window_rejects_bad_epoch(self, npz_trace):
        with pytest.raises(SystemExit):
            main(["window", npz_trace, "--epoch", "0"])


class TestScenario:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("stationary", "drift", "flash", "churn",
                     "periodic", "replay"):
            assert name in out

    def test_describe_surfaces_layer_docs(self, capsys):
        assert main(["scenario", "describe", "drift"]) == 0
        out = capsys.readouterr().out
        assert "period = 16384" in out
        # The chunk/epoch semantics quoted from the layer docstrings.
        assert "Trace.chunks" in out and "WindowedSketch" in out

    def test_run_all_scenarios(self, capsys):
        assert main(["scenario", "run", "--length", "6000",
                     "--chunk", "1024", "--memory", "16K"]) == 0
        out = capsys.readouterr().out
        for name in ("stationary", "drift", "flash", "churn",
                     "periodic", "replay"):
            assert name in out
        assert "AAE" in out and "NRMSE" in out and "items/s" in out

    def test_run_sharded(self, capsys):
        assert main(["scenario", "run", "drift", "--length", "6000",
                     "--shards", "3", "--memory", "16K"]) == 0
        out = capsys.readouterr().out
        assert "3 shards (hash)" in out

    def test_run_windowed(self, capsys):
        assert main(["scenario", "run", "periodic", "--length", "8000",
                     "--epoch", "2000", "--memory", "16K"]) == 0
        out = capsys.readouterr().out
        assert "rotations" in out and "window|e|" in out

    def test_run_with_param_override(self, capsys):
        assert main(["scenario", "run", "stationary", "--set",
                     "skew=1.4", "--length", "5000",
                     "--memory", "16K"]) == 0
        assert "stationary" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "tsunami"])

    def test_bad_override_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "drift", "--set", "skew"])

    def test_unknown_param_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "drift", "--set", "bogus=1",
                  "--length", "2000"])

    def test_shards_and_epoch_exclusive(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "drift", "--shards", "2",
                  "--epoch", "1000"])

    def test_shards_require_mergeable_sketch(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "drift", "--sketch", "cms",
                  "--shards", "2"])


class TestFigureAlias:
    @pytest.fixture(autouse=True)
    def results_dir(self, monkeypatch, tmp_path):
        """Tables land in ``tmp_path``, never in the tracked results/."""
        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TRIALS", "1")
        monkeypatch.setenv("REPRO_SCALE", "0.02")   # ~2.6K updates
        return tmp_path

    def test_figure_runs_one(self, capsys, results_dir):
        code = main(["figure", "fig5b"])
        assert code == 0
        assert "fig5b" in capsys.readouterr().out
        assert "fig5b" in (results_dir / "fig5b.txt").read_text()

    def test_figure_scenario_grid_passthrough(self, capsys, results_dir):
        code = main(["figure", "--scenario", "flash", "--shards", "2",
                     "scenario_error"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario_error_flash" in out and "[2 shards]" in out
        assert "drift" not in out                 # grid was scoped
        assert [p.name for p in results_dir.iterdir()] == [
            "scenario_error_flash.txt"]

    @pytest.mark.parametrize("flag", ["--shards", "--jobs"])
    def test_zero_is_a_clean_error(self, flag, results_dir):
        """``0`` is forwarded, not dropped as falsy, and fails as
        ``python -m repro.experiments`` does, before any figure runs."""
        with pytest.raises(SystemExit) as info:
            main(["figure", flag, "0", "scenario_error"])
        assert str(info.value) == (
            f"error: {flag.lstrip('-')} must be >= 1, got 0")
        assert list(results_dir.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "TRACE", "--memory", "abc"],
    ["run", "TRACE", "--memory", "1X"],
    ["run", "TRACE", "--memory", "0"],
    ["speed", "TRACE", "--memory", "1"],      # too small for the sketch
    ["scenario", "run", "drift", "--memory=-2K", "--length", "1000"],
    ["topk", "TRACE", "-k", "0"],
    ["topk", "TRACE", "-k", "5000"],          # more than the distinct flows
    ["speed", "TRACE", "--batch-size", "0"],
    ["speed", "TRACE", "--batch-size", "1"],
    ["run", "TRACE", "--batch-size", "-5"],
    ["window", "TRACE", "--batch-size", "0"],
], ids=" ".join)
def test_bad_numeric_argument_is_a_clean_error(npz_trace, argv):
    with pytest.raises(SystemExit) as info:
        main([npz_trace if arg == "TRACE" else arg for arg in argv])
    assert str(info.value).startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["run", "TRACE"],
    ["run", "TRACE", "--batch-size", "8"],
    ["speed", "TRACE"],
    ["speed", "TRACE", "--sketch", "salsa-cms", "--shards", "2"],
], ids=" ".join)
def test_empty_trace_is_a_clean_error(tmp_path, argv):
    path = str(tmp_path / "empty.npz")
    assert main(["generate", "zipf", path, "--length", "0"]) == 0
    with pytest.raises(SystemExit) as info:
        main([path if arg == "TRACE" else arg for arg in argv])
    assert str(info.value) == (
        f"error: {path} holds no updates to "
        f"{'time' if argv[0] == 'speed' else 'score on arrival'}")


def test_topk_prints_fig15_accuracy(npz_trace, capsys):
    assert main(["topk", npz_trace, "-k", "5", "--memory", "64K"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("accuracy: ")
    assert 0.0 <= float(line.split()[1]) <= 1.0


@pytest.mark.parametrize("command", ["run", "topk"])
@pytest.mark.parametrize("name", ["missing.npz", "missing.flows"])
def test_missing_trace_is_a_clean_error(tmp_path, command, name):
    path = str(tmp_path / name)
    with pytest.raises(SystemExit) as info:
        main([command, path])
    assert str(info.value) == (
        f"error: cannot read {path}: No such file or directory")


def test_module_entry_point():
    """`python -m repro` resolves (smoke test, no subprocess)."""
    import repro.__main__  # noqa: F401
