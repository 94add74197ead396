"""Helpers for functions that take a float or an array of them.

A scalar argument stays a Python float, so the per-element arithmetic
runs at scalar speed and gives the same values as the array path.
"""

from __future__ import annotations

import numpy as np


def as_floats(v):
    """v as a Python float if it is a scalar, else as a float array."""
    if isinstance(v, float):
        return v
    v = np.asarray(v, dtype=float)
    return v if v.ndim else float(v)


def all_of(mask) -> bool:
    """True if every element of a boolean array (or the bool) holds."""
    return bool(mask.all() if isinstance(mask, np.ndarray) else mask)


def where(cond, a, b):
    """np.where, with a plain branch for a scalar condition."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def first_failing(values, ok):
    """The first element of values where ok does not hold (error messages)."""
    if np.ndim(ok) == 0:
        return values
    return np.broadcast_to(values, np.shape(ok))[~np.asarray(ok)].flat[0]


def log_abs(v):
    """ln|v|, and -inf without a warning where v is 0."""
    if all_of(v != 0.0):
        return np.log(abs(v))
    with np.errstate(divide="ignore"):
        return np.log(abs(v))
