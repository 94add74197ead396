"""Three-point grid Hamiltonian shared by the split levels and propagation.

H = -1/2 d^2/dx^2 + V - iW on uniform nodes with spacing h: diagonal
1/h^2 + V - iW, off-diagonal -1/(2h^2), and zero amplitude one spacing
beyond each end node (hard walls).  Grid integrals use trapezoid
weights.  Callers pass the spacing: the split levels use their grid
spec's nominal spacing, propagation the first node difference.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import ConfigurationError


def integral(grid: np.ndarray, h: float, values: np.ndarray, bounds: tuple | None = None):
    """Trapezoid integral of values over the nodes inside bounds.

    The whole grid when bounds is None; the first and last node inside
    weigh h/2, the others h.
    """
    a, b = (-math.inf, math.inf) if bounds is None else bounds
    lo = int(np.searchsorted(grid, a - 1e-9, side="left"))
    hi = int(np.searchsorted(grid, b + 1e-9, side="right"))
    if hi - lo < 2:
        raise ConfigurationError(f"fewer than two grid nodes inside {bounds}")
    weights = np.zeros(len(grid))
    weights[lo:hi] = h
    weights[lo] = weights[hi - 1] = 0.5 * h
    return np.sum(weights * values)


def _diagonal(h: float, v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    diag = 1.0 / (h * h) + v
    return diag if w is None else diag - 1j * w


def _off_diagonal(h: float) -> float:
    return -0.5 / (h * h)


def lowest_levels(grid: np.ndarray, h: float, v: np.ndarray, n_states: int):
    """Lowest n_states eigenpairs of H with W = 0, one state per row.

    States are normalized to sum h |psi|^2 = 1 and signed so that their
    integral is positive.
    """
    off = np.full(len(grid) - 1, _off_diagonal(h))
    energies, vecs = eigh_tridiagonal(
        _diagonal(h, v), off, select="i", select_range=(0, n_states - 1)
    )
    # LAPACK returns unit l2 columns; rescale to the grid inner product.
    states = (vecs / math.sqrt(h)).T.copy()
    for row in states:
        if integral(grid, h, row) < 0.0:
            row *= -1.0
    return energies, states


def crank_nicolson(psi: np.ndarray, h: float, dt: float, n_steps: int,
                   potential: Callable[[float], np.ndarray] | np.ndarray,
                   absorber: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield psi after each of n_steps Crank-Nicolson steps.

    Each step solves (1 + i dt H/2) psi' = (1 - i dt H/2) psi.  potential
    is an array, or a callable t -> array taken at each step's midpoint.
    The band is one buffer whose off-diagonals are set once; its
    diagonal is set once for an array and before every step otherwise.
    """
    off = 0.5j * dt * _off_diagonal(h)
    band = np.zeros((3, len(psi)), dtype=complex)
    band[0, 1:] = band[2, :-1] = off
    driven = callable(potential)
    for k in range(n_steps):
        if driven or k == 0:
            v = potential((k + 0.5) * dt) if driven else potential
            half = 0.5j * dt * _diagonal(h, v, absorber)
            band[1] = 1.0 + half
            explicit = 1.0 - half
        rhs = explicit * psi
        rhs[1:] -= off * psi[:-1]
        rhs[:-1] -= off * psi[1:]
        psi = solve_banded((1, 1), band, rhs)
        yield psi
