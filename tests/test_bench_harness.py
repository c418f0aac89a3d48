"""The throughput benches' one timing harness, ``benchmarks/_harness.py``:
median and quartiles of repeated readings, one table and one JSON
payload per run, and the delta against the last recorded run."""

import importlib.util
import json
import os

import pytest


@pytest.fixture
def harness(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_harness",
        os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                     "_harness.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path))
    return module


def replay(readings):
    """A measure returning the next fixed reading on every call."""
    readings = iter(readings)
    return lambda case: next(readings)


def test_run_table_reduces_every_case_to_median_and_quartiles(harness,
                                                              tmp_path):
    assert harness.REPEATS == 5
    a = [{"per_item": float(p), "batched": 10.0 * p} for p in (3, 1, 5, 2, 4)]
    bb = [{"per_item": 100.0, "batched": 100.0 * b} for b in (1, 9, 2, 1, 2)]
    readings = [r for pair in zip(a, bb) for r in pair]  # one per round
    payload = harness.run_table("toy_throughput", "toy", "toy table",
                                {"a": None, "bb": None}, replay(readings),
                                {"dataset": "zipf", "length": 7})

    a, bb = payload["rows"]
    assert a == {"sketch": "a", "per_item": 3.0, "batched": 30.0,
                 "speedup": 10.0,
                 "quartiles": {"per_item": [2.0, 4.0],
                               "batched": [20.0, 40.0]}}
    assert bb == {"sketch": "bb", "per_item": 100.0, "batched": 200.0,
                  "speedup": 2.0,
                  "quartiles": {"per_item": [100.0, 100.0],
                                "batched": [100.0, 200.0]}}
    assert payload["bench"] == "toy" and payload["repeats"] == 5
    assert payload["dataset"] == "zipf" and payload["length"] == 7
    assert set(payload["env"]) == {"python", "numpy", "nproc", "git_sha"}
    assert payload["env"]["nproc"] == os.cpu_count()
    with open(tmp_path / "BENCH_toy.json") as fh:
        assert json.load(fh) == payload

    lines = (tmp_path / "toy_throughput.txt").read_text().splitlines()
    assert lines[0] == "toy table -- dataset=zipf, length=7"
    assert "median of 5 runs" in lines[1]
    assert lines[2].split() == ["sketch", "per_item", "batched", "speedup"]
    row_a = next(line for line in lines if line.startswith("a "))
    assert harness.cell(3.0, 2.0, 4.0) in row_a
    assert harness.cell(30.0, 20.0, 40.0) in row_a
    assert row_a.endswith("10.00x")
    assert any(line.startswith("bb ") for line in lines)


def test_run_table_compares_batched_with_the_last_run_by_label(harness,
                                                               capsys):
    def rates(batched):
        return {"per_item": 1.0, "batched": batched}

    harness.run_table("toy_throughput", "toy", "toy", {"a": 10.0, "b": 10.0},
                      rates, {}, key="scenario")
    assert "last recorded run" not in capsys.readouterr().out
    harness.run_table("toy_throughput", "toy", "toy", {"b": 30.0, "c": 5.0},
                      rates, {}, key="scenario")
    out = capsys.readouterr().out
    assert "batched vs last recorded run: b: 3.00x\n" in out
    assert harness.load_bench_json("toy")["rows"][0]["scenario"] == "b"


def test_cell_shows_median_and_quartile_spread(harness):
    assert harness.cell(2_000_000.0, 1_900_000.0, 2_100_000.0) == (
        "   2,000,000 ± 10%")
    assert harness.cell(2.5, 2.5, 2.5) == "      2.5000 ±  0%"


def test_regenerate_writes_the_harness_results_dir(harness, tmp_path,
                                                   monkeypatch, capsys):
    """The figure bench writes its own ``results/``, wherever it runs;
    ``repro figure`` writes under the working directory instead."""
    from repro.experiments import ExperimentResult

    result = ExperimentResult(figure="figX", title="demo", xlabel="mem",
                              ylabel="err")
    result.series_named("algo").add(1024, [0.5])
    monkeypatch.setattr(harness, "run", lambda figure: [result])
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert harness.regenerate("figX") == [str(tmp_path / "figX.txt")]
    assert "figX" in (tmp_path / "figX.txt").read_text()
    assert list(elsewhere.iterdir()) == []
