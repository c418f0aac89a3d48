"""One catalogue of named sketches sized to a memory budget,
``repro.experiments.algorithms``: every ``--sketch`` name of the CLI
builds the sketch its figure factory builds -- same type, shape,
footprint and hash seeds, down to the parts a composite sketch holds.
(Before the catalogue, ``--sketch pyramid`` built delta = 8 where
Fig 8 uses 4, and ``--sketch coldfilter`` split its budget 25/75
where Fig 13 splits it in half.)"""

import pytest

from repro import cli
from repro.experiments import algorithms as alg

#: CLI name -> the factory the figures call
FIGURE_FACTORIES = {
    "cms": alg.baseline_cms,
    "cus": alg.baseline_cus,
    "cs": alg.baseline_cs,
    "salsa-cms": alg.salsa_cms,
    "salsa-cus": alg.salsa_cus,
    "salsa-cs": alg.salsa_cs,
    "pyramid": alg.pyramid,
    "nitro": alg.nitro,
    "elastic": alg.elastic,
    "univmon": alg.univmon,
    "coldfilter": alg.cold_filter,
}

#: the shape and seed attributes a sketch may carry
SHAPE = ("w", "d", "s", "w1", "d1", "delta", "n_layers", "levels",
         "heap_size", "heavy_buckets", "p", "threshold", "seed",
         "_sample_seeds")


def fingerprint(sketch):
    """Type, footprint, shape, row configuration and hash seeds of
    ``sketch`` and of the sketches it is built from."""
    hashes = getattr(sketch, "hashes", None)
    parts = [getattr(sketch, name) for name in ("stage2", "light")
             if hasattr(sketch, name)] + list(getattr(sketch, "sketches", ()))
    rows = [(type(row).__name__, row.max_bits, row.merge, row.signed,
             row.encoding) for row in getattr(sketch, "rows", ())]
    return (type(sketch).__name__, sketch.memory_bytes,
            {name: getattr(sketch, name) for name in SHAPE
             if hasattr(sketch, name)},
            None if hashes is None else list(hashes.seeds), rows,
            [fingerprint(part) for part in parts])


def test_the_cli_reads_the_catalogue():
    assert cli.SKETCHES is alg.SKETCHES
    assert sorted(alg.SKETCHES) == sorted(FIGURE_FACTORIES)


@pytest.mark.parametrize("memory", ["8K", "32K", "64K"])
@pytest.mark.parametrize("name", sorted(FIGURE_FACTORIES))
def test_the_cli_builds_the_figures_sketch(name, memory):
    args = cli.build_parser().parse_args(
        ["run", "trace.npz", "--sketch", name, "--memory", memory,
         "--seed", "3"])
    budget, build = cli._target(args)
    built = build()
    assert built.memory_bytes <= budget
    assert fingerprint(built) == fingerprint(FIGURE_FACTORIES[name](budget,
                                                                    3))
