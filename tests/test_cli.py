"""Tests for the experiment CLI (``python -m repro.experiments``)."""

import subprocess
import sys

import pytest

from repro.experiments import report
from repro.experiments.__main__ import main


class TestMain:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "fig20" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig10a" in capsys.readouterr().out

    def test_runs_figure(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(report, "RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        monkeypatch.setenv("REPRO_TRIALS", "1")
        assert main(["fig5b"]) == 0
        out = capsys.readouterr().out
        assert "fig5b" in out and "SALSA Max" in out
        assert (tmp_path / "fig5b.txt").exists()

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            main(["fig_nonexistent"])


def test_module_invocation():
    """The module is runnable as a script."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--list"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "fig19" in proc.stdout
