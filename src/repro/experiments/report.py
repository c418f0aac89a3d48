"""Rendering experiment results as text tables.

Each figure's table lists x values down the side and one column per
series -- the same rows/lines the paper plots.  :func:`emit` prints a
table and saves it under ``results/`` in the current working directory
(the figure bench passes the checkout's ``results/`` instead).
"""

from __future__ import annotations

import os

from repro.experiments.runner import ExperimentResult

#: where :func:`emit` writes by default, relative to the working directory
RESULTS_DIR = "results"


def format_table(result: ExperimentResult) -> str:
    """Render one experiment as an aligned text table."""
    lines = [
        f"== {result.figure}: {result.title} ==",
        f"   ({result.ylabel} vs {result.xlabel})",
    ]
    names = [s.name for s in result.series]
    xs = sorted({x for s in result.series for x, _ in s.points})
    header = [result.xlabel] + names
    cells: dict[tuple[float, str], str] = {}
    for s in result.series:
        for x, summary in s.points:
            cells[(x, s.name)] = str(summary)
    rows = [[_fmt_x(x)] + [cells.get((x, n), "-") for n in names] for x in xs]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt_x(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:g}"


def emit(result: ExperimentResult, directory: str | None = None) -> str:
    """Print the table and persist it as ``<figure>.txt`` under
    ``directory`` (default :data:`RESULTS_DIR`, resolved against the
    working directory at call time)."""
    table = format_table(result)
    print("\n" + table)
    directory = directory or os.path.abspath(RESULTS_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{result.figure}.txt")
    with open(path, "w") as fh:
        fh.write(table + "\n")
    return path
