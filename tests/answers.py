"""The batch query contract as one assertion.

``query_many`` answers one ndarray whose dtype the sketch declares as
``query_dtype`` (fixed by its configuration), equal element by element
to what per-item ``query`` answers.
"""

import numpy as np


def assert_answers(sketch, items, expected) -> np.ndarray:
    """``sketch.query_many(items)`` is an ndarray of
    ``sketch.query_dtype`` equal to ``expected`` element by element;
    returns it.

    ``expected`` (the per-item answers, or another sketch's batch
    answers) is compared as Python objects: NumPy would read a list
    mixing negatives with values past int64 as float64 and lose bits.
    """
    got = sketch.query_many(items)
    assert isinstance(got, np.ndarray), type(got)
    assert got.dtype == sketch.query_dtype, (got.dtype, sketch.query_dtype)
    assert np.array_equal(got, np.array(list(expected), dtype=object)), (
        got, expected)
    return got
