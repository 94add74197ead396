"""Grid propagation of the time-dependent Schroedinger equation.

This is the time-domain side of the package: it prepares the truncated
quasi-bound state (the stationary interior solution cut off at the trap
edges and renormalized), propagates it with the Crank-Nicolson stepper
of the shared grid Hamiltonian (`_grid`: three-point kinetic stencil,
hard-wall boundaries), and records the probability remaining inside the
trap.  The same stencil drives the time-dependent double well for
splitting ramps, where the split levels come from it too.  A
time-dependent potential is a Drive: fixed profiles on the grid times
weights per step, run in the span of a basis.  The split's double well
is affine in the profiles x^2/2, |x|, x and 1, with weights
(1, -d/2, f, d^2/8) interpolated from the ramp at every step midpoint
at once.  A slow ramp keeps the atom in the span of the few lowest
instantaneous eigenstates, so the split's basis holds the lowest states
at a few ramp rows (a reduced basis; Quarteroni, Manzoni and Negri,
Reduced Basis Methods for PDEs, Springer 2016), and a step costs a
K x K solve with K about 30 instead of a solve on the grid.

Crank-Nicolson is unconditionally stable and exactly norm-preserving
for Hermitian Hamiltonians, so deviations from unitarity measure
arithmetic error, not blowup; the dt precondition below is an accuracy
bound, not a stability one.  Outgoing flux on decay runs is eaten by a
negative imaginary potential ramping quadratically over the outer part
of the downhill grid; its strength is fixed by a reflection probe, and
the default keeps reflected norm under 1e-4 for wavenumbers 5 to 9.

Grid spacing, fall length, absorber fraction and strength are module
constants: every decay run and reflection probe uses the same ones.
Survival is the grid integral of |psi|^2 over the trap interval, and
the initial state is normalized under that same integral, so the
recorded survival starts at exactly 1 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _grid, splitting
from ._grid import Drive
from .errors import ConfigurationError, DomainError, NumericalError
from .potential import TrapSpec, eval_double_well, eval_trap
from .resonance import Resonance
from .scattering import interior_wave

# Accuracy bound on the time step for the three-point stencil.
MAX_DT = 0.02
# Grid spacing for propagation runs.
SPACING = 0.02
# Downhill free-fall region length and absorber fraction for decay runs.
FALL_LENGTH = 40.0
ABSORBER_FRACTION = 0.2
# Absorber strength (see absorber_reflection); tuned so reflection
# stays below 1e-4 across incident wavenumbers ~5-9.
ABSORBER_STRENGTH = 30.0
# Interior padding above the uphill trap edge.
INTERIOR_PAD = 6.0
# The split's reduced basis (_split_drive): the lowest SNAPSHOT_STATES
# states at up to SNAPSHOT_ROWS ramp rows, kept down to singular values of
# SNAPSHOT_CUT times the largest.  Measured at the paper point (4.82, 0.12,
# T = 400, dt = 0.02; infidelity 1.2206461191e-5 here, 1.2206461190e-5 by
# the grid loop), relative move of the infidelity against these counts:
#
#     rows x states    K     move
#     11 x 4           30    0
#     22 x 4           30    -5.4e-9
#     11 x 6           32    -6.2e-10
#     22 x 6           33    +1.4e-9
#     41 x 8           35    -2.3e-9
SNAPSHOT_ROWS = 11
SNAPSHOT_STATES = 4
SNAPSHOT_CUT = 1e-10
# Largest deviation from orthonormality of a Drive's basis, and largest
# relative part of the initial state outside its span.
BASIS_TOLERANCE = 1e-8


@dataclass(frozen=True)
class WavePacket:
    """Complex amplitudes on a uniform grid."""

    grid: np.ndarray
    values: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def norm(self) -> float:
        """Grid integral of |psi|^2."""
        return float(_grid.integral(self.grid, self.spacing, np.abs(self.values) ** 2))

    def overlap(self, other: "WavePacket") -> complex:
        """Grid inner product <self|other> on a shared grid."""
        if self.grid.shape != other.grid.shape:
            raise ConfigurationError("overlap needs matching grids")
        return complex(
            _grid.integral(self.grid, self.spacing, np.conj(self.values) * other.values)
        )


@dataclass(frozen=True)
class PropagationResult:
    times: np.ndarray
    survival: np.ndarray
    final_state: WavePacket


def uniform_grid(x_lo: float, x_hi: float, spacing: float = SPACING):
    """Uniform grid from x_lo to x_hi with spacing rounded to fit."""
    if not (math.isfinite(x_lo) and math.isfinite(x_hi) and x_lo < x_hi):
        raise ConfigurationError(f"grid [{x_lo}, {x_hi}] is empty or not finite")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ConfigurationError(f"grid spacing must be finite and positive, got {spacing}")
    count = int(round((x_hi - x_lo) / spacing))
    if count < 8:
        raise ConfigurationError("grid too small")
    return np.linspace(x_lo, x_hi, count + 1)


def truncated_resonance_state(
    spec: TrapSpec, res: Resonance | float, grid: np.ndarray
) -> WavePacket:
    """Quasi-bound interior solution truncated to the trap interval.

    The stationary interior wave at the resonance center is sampled on
    the grid, zeroed outside [-size/2, size/2], and normalized under the
    trap-interval grid integral (the same integral later used for
    survival, which therefore starts at exactly 1).  res may be a fitted
    Resonance or a bare center energy.
    """

    energy = res.e0 if isinstance(res, Resonance) else float(res)
    half = 0.5 * spec.size
    if grid[0] > -half or grid[-1] < half:
        raise ConfigurationError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] does not cover the trap "
            f"[{-half:g}, {half:g}]"
        )
    values = np.zeros(len(grid), dtype=complex)
    inside = (grid >= -half - 1e-9) & (grid <= half + 1e-9)
    values[inside] = interior_wave(spec, energy, grid[inside])[0]
    h = float(grid[1] - grid[0])
    mass = float(_grid.integral(grid, h, np.abs(values) ** 2, (-half, half)))
    if mass <= 0.0:
        raise NumericalError("truncated state has no weight inside the trap")
    return WavePacket(grid=grid, values=values / math.sqrt(mass))


def downhill_absorber(grid: np.ndarray, edge: float) -> np.ndarray:
    """Quadratic absorbing profile over the outer part of the downhill grid.

    The downhill region runs from the low end of the grid up to `edge`
    (the trap edge); the absorbing ramp occupies its outermost
    ABSORBER_FRACTION and rises quadratically from zero to
    ABSORBER_STRENGTH.
    """

    span = edge - float(grid[0])
    if span <= 0.0:
        raise ConfigurationError("grid has no downhill region below the edge")
    width = ABSORBER_FRACTION * span
    start = float(grid[0]) + width
    ramp = np.clip((start - grid) / width, 0.0, None)
    return ABSORBER_STRENGTH * ramp * ramp


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise DomainError(f"{name} has non-finite values")


def propagate(
    psi0: WavePacket,
    potential: Drive | np.ndarray,
    dt: float,
    t_final: float,
    absorber: np.ndarray | None = None,
    survival_bounds: tuple[float, float] | None = None,
    min_samples: int = 100,
) -> PropagationResult:
    """Crank-Nicolson propagation with optional absorber.

    potential is either a static array on psi0's grid or a Drive, whose
    (m, n) profiles sit on that grid and whose weights are taken at the
    step midpoints t + dt/2; any other kind, a callable among them,
    raises ConfigurationError.  A Drive runs in the span of its basis
    (n x K, orthonormal columns): psi0, the stencil and the profiles are
    projected once, each step is a K x K solve, and states return to the
    grid only at the survival samples and at the end.  A basis that does
    not fit the grid or is not orthonormal, a psi0 outside its span, or
    an absorber with a Drive raise ConfigurationError.  Survival is the
    weighted norm over survival_bounds (the full grid when None),
    sampled at at least min_samples times.  dt must not exceed MAX_DT;
    t_final is split into round(t_final / dt) equal steps, or into just
    enough more that none exceeds MAX_DT.
    All inputs are checked before the first step: a non-finite t_final,
    or non-finite values in psi0, the potential, a Drive's profiles,
    basis or weights, or the absorber raise DomainError (a weight names
    its step).  Without an absorber, norm growth beyond 1e-6 aborts with
    a numerical-failure error.
    """

    if not 0.0 < dt <= MAX_DT:
        raise ConfigurationError(f"dt must be in (0, {MAX_DT}], got {dt}")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise DomainError(f"t_final must be finite and nonnegative, got {t_final}")
    grid = psi0.grid
    h = psi0.spacing
    _require_finite("initial state", psi0.values)
    if isinstance(potential, Drive):
        profiles = np.asarray(potential.profiles, dtype=float)
        if profiles.ndim != 2 or profiles.shape[1:] != grid.shape:
            raise ConfigurationError("drive profiles do not match the grid")
        _require_finite("drive profiles", profiles)
        basis = np.asarray(potential.basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != len(grid) or basis.shape[1] < 1:
            raise ConfigurationError("drive basis does not match the grid")
        _require_finite("drive basis", basis)
        if np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) > BASIS_TOLERANCE:
            raise ConfigurationError("drive basis columns are not orthonormal")
        if absorber is not None:
            raise ConfigurationError("a Drive takes no absorber")
        potential = Drive(profiles, potential.weights, basis)
    elif isinstance(potential, np.ndarray):
        potential = np.asarray(potential, dtype=float)
        if potential.shape != grid.shape:
            raise ConfigurationError("potential array does not match the grid")
        _require_finite("potential", potential)
    else:
        raise ConfigurationError(
            f"potential must be an array or a Drive, not {type(potential).__name__}"
        )
    if absorber is not None:
        absorber = np.asarray(absorber, dtype=float)
        _require_finite("absorber", absorber)
        if absorber.shape != grid.shape or np.any(absorber < 0.0):
            raise ConfigurationError("absorber must be nonnegative on the grid")

    def measure(values: np.ndarray, bounds=survival_bounds) -> float:
        return float(_grid.integral(grid, h, np.abs(values) ** 2, bounds))

    n_steps = max(1, int(round(t_final / dt))) if t_final > 0.0 else 0
    while n_steps and t_final / n_steps > MAX_DT:  # round() rounded down
        n_steps += 1
    if t_final > 0.0 and n_steps + 1 < min_samples:
        raise ConfigurationError(
            f"{n_steps} steps cannot yield {min_samples} survival samples; "
            "reduce dt or min_samples"
        )
    step = t_final / n_steps if n_steps else 0.0
    stride = max(1, n_steps // max(min_samples - 1, 1))

    psi = psi0.values.astype(complex)
    norm0 = psi0.norm
    if isinstance(potential, Drive):
        basis = potential.basis

        def to_grid(c: np.ndarray) -> np.ndarray:
            # real and imaginary parts apart: a real basis times a complex
            # vector would copy the basis to complex
            return basis @ c.real + 1j * (basis @ c.imag)

        state = basis.T @ psi.real + 1j * (basis.T @ psi.imag)
        if np.linalg.norm(psi - to_grid(state)) > BASIS_TOLERANCE * np.linalg.norm(psi):
            raise ConfigurationError("initial state lies outside the drive basis")
        steps = _grid.driven_crank_nicolson(state, h, step, n_steps, potential)
    else:
        steps = _grid.crank_nicolson(psi, h, step, n_steps, potential, absorber)
        to_grid = np.asarray

    times = [0.0]
    survival = [measure(psi)]
    for done, state in enumerate(steps, 1):
        if done % stride == 0 or done == n_steps:
            psi = to_grid(state)
            times.append(done * step)
            survival.append(measure(psi))
            if absorber is None:
                total = measure(psi, bounds=None)
                if total > norm0 + 1e-6:
                    raise NumericalError(
                        f"norm grew to {total:.9g} at t={done * step:g}; "
                        "propagation unstable"
                    )

    return PropagationResult(
        times=np.array(times),
        survival=np.array(survival),
        final_state=WavePacket(grid=grid, values=psi),
    )


def decay_run(
    spec: TrapSpec,
    res: Resonance | float,
    t_final: float,
    dt: float = 0.004,
    min_samples: int = 100,
) -> PropagationResult:
    """Propagate a truncated quasi-bound state and record trap survival.

    The grid extends FALL_LENGTH below the trap edge (absorber over its
    outer portion) and INTERIOR_PAD above the uphill edge; survival is
    the weighted norm over the trap interval [-size/2, size/2].
    """

    half = 0.5 * spec.size
    grid = uniform_grid(-half - FALL_LENGTH, half + INTERIOR_PAD)
    psi0 = truncated_resonance_state(spec, res, grid)
    cap = downhill_absorber(grid, -half)
    return propagate(
        psi0,
        eval_trap(spec, grid),
        dt,
        t_final,
        absorber=cap,
        survival_bounds=(-half, half),
        min_samples=min_samples,
    )


def absorber_reflection(k0: float) -> float:
    """Norm fraction a Gaussian packet gets back from the absorber.

    A free packet with mean wavenumber k0 is launched at the absorbing
    ramp of a decay-run-shaped grid; whatever is neither absorbed nor
    still in transit after twice the flight time counts as reflected.
    """

    if not 0.0 < k0 < math.inf:
        raise DomainError(f"k0 must be positive and finite, got {k0}")
    grid = uniform_grid(-FALL_LENGTH, 10.0)
    cap = downhill_absorber(grid, 0.0)
    sigma = 1.5
    x0 = -0.35 * FALL_LENGTH  # between ramp and launch region
    packet = np.exp(-((grid - x0) ** 2) / (4.0 * sigma * sigma) - 1j * k0 * grid)
    norm = WavePacket(grid=grid, values=packet).norm
    psi0 = WavePacket(grid=grid, values=packet / math.sqrt(norm))

    flight = 2.0 * (abs(x0) + ABSORBER_FRACTION * FALL_LENGTH) / k0
    out = propagate(
        psi0,
        np.zeros_like(grid),
        0.004,
        2.0 * flight,
        absorber=cap,
        min_samples=2,
    )
    return out.survival[-1]


def split_fidelity(
    ramp: Sequence[tuple[float, float, float]],
    dt: float = 0.005,
) -> float:
    """Ground-state fidelity after dragging the well apart along a ramp.

    ramp rows are (time, separation, tilt) with time strictly increasing
    from 0, separation starting at 0 and never decreasing.  The atom
    starts in the ground state of the initial configuration; the result
    is its squared overlap with the ground state of the final one.  The
    eigensolver shares the propagation grid, so discretization biases
    largely cancel in the overlap.
    """

    rows = [(float(t), float(d), float(f)) for t, d, f in ramp]
    if not rows:
        raise DomainError("empty ramp")
    table = np.array(rows).T.copy()  # contiguous rows for np.interp
    _require_finite("ramp", table)
    times, seps, tilts = table
    if times[0] != 0.0:
        raise DomainError("ramp must start at time 0")
    if len(rows) > 1 and np.any(np.diff(times) <= 0.0):
        raise DomainError("ramp times must be strictly increasing")
    if abs(seps[0]) > 1e-9:
        raise DomainError("ramp must start at separation 0")
    if np.any(np.diff(seps) < -1e-9):
        raise DomainError("separation must be nondecreasing along the ramp")

    grid_spec = splitting.default_grid(
        float(seps.max()), float(np.abs(tilts).max()), spacing=0.01
    )
    drive, start, target = _split_drive(times, seps, tilts, grid_spec)
    grid = start.grid
    psi0 = WavePacket(grid=grid, values=start.wavefunctions[0].astype(complex))
    out = propagate(psi0, drive, dt, float(times[-1]), min_samples=2)
    ghost = WavePacket(grid=grid, values=target.wavefunctions[0].astype(complex))
    return float(abs(ghost.overlap(out.final_state)) ** 2)


def _split_drive(times, seps, tilts, grid_spec: splitting.GridSpec
                 ) -> tuple[Drive, splitting.WellLevels, splitting.WellLevels]:
    """The ramp's double well as a Drive, with the levels at its first
    and last rows.

    V = (|x| - d/2)^2 / 2 + f x = x^2/2 - (d/2)|x| + f x + d^2/8, so the
    profiles are x^2/2, |x|, x and 1, and the weights (1, -d/2, f, d^2/8)
    come from one np.interp of each ramp column over all times.  The
    constant profile stays: a global phase leaves the exact fidelity
    alone, but Crank-Nicolson's phase error depends on the energy zero.

    The basis spans the SNAPSHOT_STATES lowest states at up to
    SNAPSHOT_ROWS evenly spaced ramp rows, the first and last always
    among them; their SVD keeps the directions whose singular values
    exceed SNAPSHOT_CUT of the largest.
    """
    rows = np.unique(np.round(np.linspace(0, len(times) - 1, min(SNAPSHOT_ROWS, len(times)))))
    grid = grid_spec.points()
    stack = np.empty((len(grid), len(rows) * SNAPSHOT_STATES), order="F")
    for k, i in enumerate(rows.astype(int)):
        levels = splitting.solve_double_well(seps[i], tilts[i], SNAPSHOT_STATES, grid_spec)
        stack[:, k * SNAPSHOT_STATES:(k + 1) * SNAPSHOT_STATES] = levels.wavefunctions.T
        if k == 0:
            start = levels
    stack *= math.sqrt(grid_spec.spacing)
    vectors, values, _ = np.linalg.svd(stack, full_matrices=False)
    basis = vectors[:, values > SNAPSHOT_CUT * values[0]]
    profiles = np.array([eval_double_well(0.0, 0.0, grid), np.abs(grid), grid,
                         np.ones_like(grid)])

    def weights(t: np.ndarray) -> np.ndarray:
        half = 0.5 * np.interp(t, times, seps)
        return np.column_stack([np.ones_like(half), -half, np.interp(t, times, tilts),
                                0.5 * half * half])

    return Drive(profiles, weights, basis), start, levels
