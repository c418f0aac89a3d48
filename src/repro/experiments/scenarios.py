"""Scenario presets (:class:`ScenarioSpec`) and the ``--scenario`` grid.

The generator classes in :mod:`repro.streams.scenarios` take free-form
parameters; experiments, the CLI, and the benchmarks should all agree
on *one* tuned operating point per scenario so their numbers are
comparable.  :data:`SCENARIO_SPECS` is that registry: each spec names a
scenario, pins its parameters (scaled to the library's default stream
lengths, where the paper's 98M-packet dynamics are reproduced at ~1e5
updates), and carries a one-line note for tables and ``repro scenario
list``.

The module also owns the process-wide *scenario grid* -- which specs a
scenario sweep iterates, and how many shards each cell feeds through --
scoped with :func:`using_scenario_grid` exactly like
``runner.using_jobs``, so ``--scenario`` and ``--shards`` compose with
``--jobs`` on the same command line.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping

from repro.streams.scenarios import SCENARIO_NAMES, Scenario, make_scenario


@dataclass(frozen=True)
class ScenarioSpec:
    """One tuned scenario operating point.

    Attributes
    ----------
    name:
        Registry key in :data:`repro.streams.scenarios.SCENARIOS`.
    params:
        Generator parameters pinned for sweeps (empty = class
        defaults).
    note:
        One-line description for tables and ``repro scenario list``.
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    note: str = ""

    def build(self, **overrides) -> Scenario:
        """Instantiate the generator (overrides win over the preset)."""
        return make_scenario(self.name, **{**dict(self.params),
                                           **overrides})

    def summary(self) -> str:
        """``note`` if set, else the scenario class's docstring line."""
        return self.note or type(self.build()).summary()


#: name -> tuned spec.  Periods are sized against the default
#: ``config.stream_length()`` (~1.3e5 updates) so every dynamic
#: scenario goes through several regime changes per run.
SCENARIO_SPECS: dict[str, ScenarioSpec] = {
    "stationary": ScenarioSpec(
        "stationary", {"skew": 1.0},
        "i.i.d. Zipf(1.0): the paper's random-order baseline"),
    "drift": ScenarioSpec(
        "drift", {"skew": 1.0, "period": 16384, "rotate": 64},
        "popularity head rotates 64 ranks every 16K updates"),
    "flash": ScenarioSpec(
        "flash", {"skew": 1.0, "burst_every": 32768, "burst_len": 4096,
                  "burst_share": 0.5},
        "a fresh flow takes half the link for 4K-update bursts"),
    "churn": ScenarioSpec(
        "churn", {"heavy_k": 8, "heavy_share": 0.5, "period": 16384},
        "all 8 heavy hitters replaced every 16K updates"),
    "periodic": ScenarioSpec(
        "periodic", {"skew": 1.0, "period": 32768},
        "day/night populations alternate every 16K updates"),
    "replay": ScenarioSpec(
        "replay", {"source": "ny18", "source_length": 65536,
                   "warp": 1.5, "shuffle_window": 4096},
        "ny18 substitute replayed at 1.5x with 4K-window shuffle"),
}

assert tuple(sorted(SCENARIO_SPECS)) == SCENARIO_NAMES


# ----------------------------------------------------------------------
# the process-wide scenario grid (--scenario / --shards)
# ----------------------------------------------------------------------
_GRID: tuple[str, ...] | None = None
_SHARDS = 1


def get_scenario_grid() -> list[ScenarioSpec]:
    """Specs the current scenario sweep iterates (default: all)."""
    names = _GRID if _GRID is not None else SCENARIO_NAMES
    return [SCENARIO_SPECS[name] for name in names]


def get_scenario_shards() -> int:
    """Worker count scenario sweeps feed through (1 = single sketch)."""
    return _SHARDS


@contextmanager
def using_scenario_grid(names=None, shards: int | None = None):
    """Scope the scenario grid (and optional shard count) for a block.

    ``names`` is an iterable of scenario names (``None`` leaves the
    grid untouched); ``shards > 1`` makes scenario sweeps route every
    stream through a sharded :class:`~repro.core.DistributedSketch`
    and merge before measuring.  Mirrors ``using_jobs`` so the CLI
    can nest both.
    """
    global _GRID, _SHARDS
    if names is not None:
        names = tuple(names)
        for name in names:
            if name not in SCENARIO_SPECS:
                raise ValueError(
                    f"unknown scenario {name!r}; expected one of "
                    f"{SCENARIO_NAMES}")
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    prev = (_GRID, _SHARDS)
    if names is not None:
        _GRID = names
    if shards is not None:
        _SHARDS = shards
    try:
        yield
    finally:
        _GRID, _SHARDS = prev
