"""Merging and subtracting SALSA sketches (section V).

Given sketches s(A) and s(B) built with the *same hash functions*,
SALSA can compute s(A u B) and s(A \\ B) in place: each counter of the
result takes a layout at least as coarse as its layout in either input
("each counter in the merged sketches has a size at least as large as
its size in s(A) and its size in s(B)"), values combine by sum (or
difference), and any overflow triggers a further merge -- exactly the
procedure illustrated in Fig 3.

* SALSA CS (Turnstile) supports both operations in general.
* SALSA CMS (Strict Turnstile) supports union always and difference
  only "given a guarantee that B is a subset of A".
* SALSA CUS folds the same way (its counters are over-estimates, so
  their sums are too).

No other sketch folds here: Tango rows have no aligned blocks to
coarsen, and two AEE sketches count at sampling rates of their own.

Change detection (Fig 15 c/d) is built on :func:`subtract`, and the
distributed scale-out path (:mod:`repro.core.distributed`) is built on
:func:`merge`.

Each row of ``b`` folds into ``a``'s through the reference
``ensure_level`` + ``add`` walk over ``b``'s counters in slot order
(:func:`_absorb_walk`).  That walk runs natively
(:func:`repro.core._native.absorb`), observably identical to the Python
walk -- the representation-independence bar of the CRDT-emulation work
in PAPERS.md; without a C compiler it runs in Python.
"""

from __future__ import annotations

from repro.core import _native
from repro.core.salsa_cms import SalsaCountMin
from repro.core.salsa_cs import SalsaCountSketch
from repro.core.salsa_cus import SalsaConservativeUpdate

#: The sketches whose rows fold counter by counter.
_FOLDABLE = (SalsaCountMin, SalsaConservativeUpdate, SalsaCountSketch)


def _check_compatible(a, b) -> None:
    """Raise ``ValueError`` unless ``b`` can fold into ``a``; runs
    before any row is touched."""
    if not isinstance(a, _FOLDABLE):
        raise ValueError(
            f"cannot merge or subtract {type(a).__name__}: only SALSA "
            f"CMS, CUS and CS sketches fold"
        )
    if type(a) is not type(b):
        raise ValueError(
            f"sketch types differ: {type(a).__name__} vs {type(b).__name__}"
        )
    if (a.w, a.d, a.s) != (b.w, b.d, b.s):
        raise ValueError(
            f"sketch shapes differ: ({a.w},{a.d},{a.s}) vs ({b.w},{b.d},{b.s})"
        )
    if not a.hashes.same_functions(b.hashes):
        raise ValueError("sketches do not share hash functions")
    for ra, rb in zip(a.rows, b.rows):
        for attr in ("merge", "signed", "max_bits"):
            if getattr(ra, attr) != getattr(rb, attr):
                raise ValueError(
                    f"row {attr} differs: {getattr(ra, attr)!r} vs "
                    f"{getattr(rb, attr)!r}"
                )


def _absorb_walk(a_row, counters, sign: int) -> None:
    """The reference per-counter walk: coarsen ``a``'s layout to cover
    each counter, then add its value (with ``sign``) into the covering
    counter; ``SalsaRow.add`` performs any overflow-triggered merges.
    """
    for start, level, value in counters:
        a_row.ensure_level(start, level)
        if value:
            a_row.add(start, sign * value)


def _absorb(a_row, b_row, sign: int) -> None:
    """Fold one row of ``b`` into the matching row of ``a``: natively
    when the kernel loads, else the reference walk over a snapshot of
    ``b``'s counters (so a self-merge reads ``b`` as it was)."""
    if _native.usable((a_row, b_row)):
        _native.absorb(a_row, b_row, sign)
    else:
        _absorb_walk(a_row, list(b_row.counters()), sign)


def merge(a, b) -> None:
    """In-place union: ``a`` becomes s(A u B).

    Works for any SALSA sketch pair of the same type sharing hashes
    (CMS, CUS, or CS).  Counter values sum; for max-merge sketches the
    sums remain valid over-estimates of every element mapped into the
    merged range.
    """
    _check_compatible(a, b)
    for a_row, b_row in zip(a.rows, b.rows):
        _absorb(a_row, b_row, sign=+1)


def subtract(a, b) -> None:
    """In-place difference: ``a`` becomes s(A \\ B).

    General for SALSA CS (Turnstile).  For SALSA CMS the caller must
    guarantee B is a subset of A (Strict Turnstile), as in the paper;
    unsigned counters clamp at zero otherwise.
    """
    _check_compatible(a, b)
    for a_row, b_row in zip(a.rows, b.rows):
        _absorb(a_row, b_row, sign=-1)
