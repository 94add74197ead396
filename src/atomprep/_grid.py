"""Three-point grid Hamiltonian shared by the split levels and propagation.

H = -1/2 d^2/dx^2 + V - iW on uniform nodes with spacing h: diagonal
1/h^2 + V - iW, off-diagonal -1/(2h^2), and zero amplitude one spacing
beyond each end node (hard walls).  Grid integrals use trapezoid
weights.  Callers pass the spacing: the split levels use their grid
spec's nominal spacing, propagation the first node difference.

A Crank-Nicolson step solves A psi' = B psi with A = 1 + i dt H/2 and
B = 1 - i dt H/2.  A static run (a decay run) sets its band once and
calls solve_banded on the grid; crank_nicolson says why.  The split
ramp's potential is a sum of fixed profiles on the grid times per-step
weights, run in the span of K orthonormal columns (a reduced basis).
The stencil and the profiles are projected onto the basis once
(Galerkin), and since A + B = 2, psi' = A^-1 B psi = 2 chi - psi with
A chi = psi, so a step is one dot product for the K x K matrix A, one
LAPACK zgesv solve and 2 chi - psi, whatever the grid.

The lowest real levels cost a few tridiagonal solves each.  Since the
kinetic part is positive definite, min V lies below every level; a
start block iterated at that shift gives one start per state, and each
state is refined by shift-invert Rayleigh-quotient iteration with the
states below it deflated, until its residual is at most _RESIDUAL
eps |H|.  Sturm counts (dstebz) then certify the indices.  Indices the
start block misses take their shifts from a Sturm bisection by index
and start from a seeded vector of no parity.  A level that cannot be
certified raises NumericalError; none is returned unchecked.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs, dstebz, zgesv

from .errors import ConfigurationError, NumericalError

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
# Seed of the parity-free starts for the states the start block misses.
_SEED = 20090612


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
    its residual is at most _RESIDUAL eps |H|.  Sturm counts then
    certify the indices (_certified).  If the starts leave the lowest
    states uncertified, each index still missing takes its shift from a
    Sturm bisection by index (_index_shifts) and starts from a seeded
    vector of no parity, through the same iteration and count; if the
    count still disagrees, or an iteration does not converge,
    NumericalError is raised.

    The partner rule: when the top state's level has a partner within
    the count margin (n_states residual bounds), no count separates the
    pair, and either member is a valid top state.

    States are normalized to sum h |psi|^2 = 1 and signed so that their
    first lobe, from the left, reaching _LOBE of the state's peak is
    positive: the integral of an odd state is round-off, its first lobe
    is not.
    """
    diag = _diagonal(h, v)
    off = _off_diagonal(h)
    lower = float(np.min(v))
    tol = _RESIDUAL * np.finfo(float).eps * (float(np.max(np.abs(diag))) + 2.0 * abs(off))
    margin = n_states * tol
    values, starts = _start_block(diag, off, lower, min(n_states + 1, len(diag)))
    energies, vectors = [], []
    keep = None
    for value, start in zip(values, starts.T):
        energy, vector = _rayleigh_iteration(diag, off, value, start, vectors, tol)
        energies.append(energy)
        vectors.append(vector)
        if len(vectors) >= n_states:
            keep = _certified(diag, off, lower, energies, n_states, margin)
            if keep is not None:
                break
    if keep is None:
        rng = np.random.default_rng(_SEED)
        for shift in _index_shifts(diag, off, lower, energies, n_states, margin):
            # The shift is a level to bisection accuracy, so only found
            # states within the count margin of it need deflating; every
            # deflated state adds up to its own residual to this one's.
            partners = [q for e, q in zip(energies, vectors) if abs(e - shift) <= margin]
            energy, vector = _rayleigh_iteration(
                diag, off, shift, rng.standard_normal(len(diag)), partners, tol)
            energies.append(energy)
            vectors.append(vector)
        keep = _certified(diag, off, lower, energies, n_states, margin)
    if keep is None:
        top = np.sort(energies)[n_states - 1]
        count = _count_at_most(diag, off, lower, top + margin)
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


def _certified(diag: np.ndarray, off: float, lower: float, energies: list,
               n_states: int, margin: float):
    """Indices of the lowest n_states of energies if Sturm counts certify
    them as the lowest levels of H, else None.

    They are certified when exactly n_states levels lie at or below the
    top one plus the margin, or, by the partner rule, when every level
    below the top one's margin is among them: the rest then lie within
    the margin of the top level, and no count can tell them apart.
    """
    keep = np.argsort(energies)[:n_states]
    top = energies[keep[-1]]
    if _count_at_most(diag, off, lower, top + margin) == n_states:
        return keep
    below = int(np.sum(np.asarray(energies)[keep] <= top - margin))
    return keep if _count_at_most(diag, off, lower, top - margin) == below else None


def _index_shifts(diag: np.ndarray, off: float, lower: float, energies: list,
                  n_states: int, margin: float) -> np.ndarray:
    """Shifts for the indices below n_states that no found energy holds.

    A found energy holds the index of the levels counted below its
    margin, and found energies sharing that count hold the indices
    after it.  The missing indices' shifts come from one Sturm bisection
    by index (dstebz range 'I') to LAPACK's default tolerance.
    """
    held = set()
    for energy in sorted(energies):
        index = _count_at_most(diag, off, lower, energy - margin)
        while index in held:
            index += 1
        held.add(index)
    missing = [k for k in range(n_states) if k not in held]
    if not missing:
        return np.empty(0)
    _, shifts, *_, info = dstebz(diag, np.full(len(diag) - 1, off), 2, 0.0, 0.0,
                                 missing[0] + 1, missing[-1] + 1, 0.0, "E")
    if info:
        raise NumericalError(f"index bisection failed (dstebz info {info})")
    return shifts[np.array(missing) - missing[0]]


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

    A step solves (H - shift) y = x by dgtsv, removes the found states
    from y and normalizes it; its Rayleigh quotient is the next shift.
    The iteration stops once |H x - shift x| <= tol and raises
    NumericalError after _RQI_STEPS steps without.
    """
    a = diag - shift
    for _ in range(_RQI_STEPS):
        band = np.full(len(a) - 1, off)
        # dgtsv overwrites all three diagonals, and x with the solution.
        *_, x, info = dgtsv(band, a, band.copy(), x, 1, 1, 1, 1)
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
                   potential: np.ndarray,
                   absorber: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Yield psi after each of n_steps Crank-Nicolson steps of a static
    potential.

    Each step solves (1 + i dt H/2) psi' = (1 - i dt H/2) psi.  The
    caller checks psi, the potential and the absorber.
    """
    off = 0.5j * dt * _off_diagonal(h)
    # The loop calls solve_banded each step.  Factoring the left-hand
    # matrix once (ROADMAP item 4) waits for item 1: a faster loop fits more
    # cull-verify jobs in the benchmark's time budget, and that workload's
    # failure share moves with its job count.
    band = np.zeros((3, len(psi)), dtype=complex)
    band[0, 1:] = band[2, :-1] = off
    half = 0.5j * dt * _diagonal(h, potential, absorber)
    band[1] = 1.0 + half
    explicit = 1.0 - half
    for _ in range(n_steps):
        psi = solve_banded((1, 1), band, _explicit_product(explicit, off, psi))
        yield psi


def driven_crank_nicolson(c: np.ndarray, h: float, dt: float, weights: np.ndarray,
                          profiles: np.ndarray, basis: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the basis coefficients after each Crank-Nicolson step of
    the potential weights[k] @ profiles, one step per row of weights, in
    the span of basis.

    weights is an (n_steps, m) table of each step's midpoint weights,
    profiles an (m, n) array of fixed potentials on the n grid nodes,
    and basis an (n, K) array whose columns are orthonormal under the
    plain sum over the nodes.  The stencil and each profile are
    projected once onto the basis Q (Galerkin: Q^T H Q, K x K).  Since
    A + B = 2, c' = A^-1 B c = 2 chi - c with A chi = c, so a step is
    one dot product for A and one K x K LAPACK zgesv solve.  The caller
    checks every input.
    """
    n_steps, m = weights.shape
    table = np.ones((n_steps, m + 1))
    table[:, :m] = weights
    del weights
    size = basis.shape[1]
    # The stencil's part of Q^T H Q: the off-diagonal couples each node's
    # row of Q to the next one's, so no n x K product is formed.
    neighbours = basis[1:].T @ basis[:-1]
    kinetic = (basis.T @ basis - 0.5 * (neighbours + neighbours.T)) / (h * h)
    terms = [basis.T @ (profile[:, np.newaxis] * basis) for profile in profiles]
    # A = 1 + i dt/2 (table[k] @ terms) is written by one dot per step
    # straight into its complex buffer, read as interleaved (real,
    # imaginary) floats: the terms, scaled by dt/2, fill the imaginary
    # slots, and a last row of weight 1 holds the identity and the
    # kinetic term.  Symmetrized, the terms make A exactly symmetric, so
    # its transpose is the same matrix in the column order zgesv reads.
    rows = np.zeros((m + 1, size, size, 2))
    for row, term in zip(rows, terms + [kinetic]):
        row[:, :, 1] = 0.25 * dt * (term + term.T)
    rows[m, :, :, 0] = np.eye(size)
    rows = rows.reshape(m + 1, -1)
    a = np.empty((size, size), dtype=complex)
    flat = a.view(float).reshape(-1)
    for k in range(n_steps):
        np.dot(table[k], rows, out=flat)
        *_, chi, info = zgesv(a.T, c, 1, 0)
        if info:
            raise NumericalError(f"Crank-Nicolson solve failed at step {k + 1} (info {info})")
        chi *= 2.0
        chi -= c
        c = chi
        yield c


def _explicit_product(explicit: np.ndarray, off: complex, psi: np.ndarray) -> np.ndarray:
    """(1 - i dt H/2) psi as a new array, given its diagonal and off-diagonal."""
    rhs = explicit * psi
    rhs[1:] -= off * psi[:-1]
    rhs[:-1] -= off * psi[1:]
    return rhs
