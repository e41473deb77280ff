"""Hand-built objective handles for the tests."""
import numpy as np

from subcont import ObjectiveHandle


def scalar_handle(dimension, value, **kwargs):
    """A handle written as one scalar ``value``; its ``value_batch`` is a
    loop over the rows."""
    return ObjectiveHandle(dimension, value,
                           lambda X: np.array([value(row) for row in X], dtype=float),
                           **kwargs)
