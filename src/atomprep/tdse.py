"""Grid propagation of the time-dependent Schroedinger equation.

This is the time-domain side of the package: it prepares the truncated
quasi-bound state (the stationary interior solution cut off at the trap
edges and renormalized), propagates it with a Crank-Nicolson stepper
(trapezoidal in time, three-point kinetic stencil in space, hard-wall
boundaries), and records the probability remaining inside the trap.
The same stepper drives the time-dependent double well for splitting
ramps.

Crank-Nicolson is unconditionally stable and exactly norm-preserving
for Hermitian Hamiltonians, so deviations from unitarity measure
arithmetic error, not blowup; the dt precondition below is an accuracy
bound, not a stability one.  Outgoing flux on decay runs is eaten by a
negative imaginary potential ramping quadratically over the outer part
of the downhill grid; its strength is fixed by a reflection probe, and
the default keeps reflected norm under 1e-4 for wavenumbers 5 to 9.

Survival integrals use fixed trapezoid weights over the trap interval,
and the initial state is normalized under those same weights, so the
recorded survival starts at exactly 1 by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_banded

from . import splitting
from .errors import ConfigurationError, DomainError, NumericalError
from .potential import TrapSpec, eval_double_well, eval_trap
from .resonance import Resonance
from .scattering import interior_wave

# Accuracy bound on the time step for the three-point stencil.
MAX_DT = 0.02
# Default grid spacing for propagation runs.
DEFAULT_SPACING = 0.02
# Downhill free-fall region length and absorber fraction for decay runs.
DEFAULT_FALL_LENGTH = 40.0
ABSORBER_FRACTION = 0.2
# Absorber strength (see absorber_reflection); tuned so reflection
# stays below 1e-4 across incident wavenumbers ~5-9.
DEFAULT_ABSORBER_STRENGTH = 30.0
# Interior padding above the uphill trap edge.
INTERIOR_PAD = 6.0


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
        """Grid-trapezoid integral of |psi|^2."""
        return float(np.trapezoid(np.abs(self.values) ** 2, self.grid))

    def overlap(self, other: "WavePacket") -> complex:
        """Trapezoid inner product <self|other> on a shared grid."""
        if self.grid.shape != other.grid.shape:
            raise ConfigurationError("overlap needs matching grids")
        return complex(
            np.trapezoid(np.conj(self.values) * other.values, self.grid)
        )


@dataclass(frozen=True)
class PropagationResult:
    times: np.ndarray
    survival: np.ndarray
    final_state: WavePacket


def uniform_grid(x_lo: float, x_hi: float, spacing: float = DEFAULT_SPACING):
    """Uniform grid from x_lo to x_hi with spacing rounded to fit."""
    if not x_lo < x_hi:
        raise ConfigurationError(f"empty grid [{x_lo}, {x_hi}]")
    count = int(round((x_hi - x_lo) / spacing))
    if count < 8:
        raise ConfigurationError("grid too small")
    return np.linspace(x_lo, x_hi, count + 1)


def _interval_weights(grid: np.ndarray, a: float, b: float) -> np.ndarray:
    """Trapezoid weights restricted to grid nodes inside [a, b]."""
    lo = int(np.searchsorted(grid, a - 1e-9, side="left"))
    hi = int(np.searchsorted(grid, b + 1e-9, side="right"))
    if hi - lo < 2:
        raise ConfigurationError(f"fewer than two grid nodes inside [{a}, {b}]")
    h = float(grid[1] - grid[0])
    w = np.zeros(len(grid))
    w[lo:hi] = h
    w[lo] = w[hi - 1] = 0.5 * h
    return w


def truncated_resonance_state(
    spec: TrapSpec, res: Resonance | float, grid: np.ndarray
) -> WavePacket:
    """Quasi-bound interior solution truncated to the trap interval.

    The stationary interior wave at the resonance center is sampled on
    the grid, zeroed outside [-size/2, size/2], and normalized under the
    trap-interval trapezoid weights (the same weights later used for
    survival, which therefore starts at exactly 1).  res may be a fitted
    Resonance (must be resolved) or a bare center energy.
    """

    if isinstance(res, Resonance):
        if not res.resolved:
            raise DomainError(
                "unresolved-narrow resonance has no usable center lineshape"
            )
        energy = res.e0
    else:
        energy = float(res)
    half = 0.5 * spec.size
    if grid[0] > -half or grid[-1] < half:
        raise ConfigurationError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] does not cover the trap "
            f"[{-half:g}, {half:g}]"
        )
    values = np.zeros(len(grid), dtype=complex)
    inside = (grid >= -half - 1e-9) & (grid <= half + 1e-9)
    values[inside] = interior_wave(spec, energy, grid[inside])[0]
    weights = _interval_weights(grid, -half, half)
    mass = float(np.sum(weights * np.abs(values) ** 2))
    if mass <= 0.0:
        raise NumericalError("truncated state has no weight inside the trap")
    return WavePacket(grid=grid, values=values / math.sqrt(mass))


def downhill_absorber(
    grid: np.ndarray,
    edge: float,
    fraction: float = ABSORBER_FRACTION,
    strength: float = DEFAULT_ABSORBER_STRENGTH,
) -> np.ndarray:
    """Quadratic absorbing profile over the outer part of the downhill grid.

    The downhill region runs from the low end of the grid up to `edge`
    (the trap edge); the absorbing ramp occupies its outermost
    `fraction` and rises quadratically from zero to `strength`.
    """

    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
    if strength <= 0.0:
        raise ConfigurationError(f"strength must be positive, got {strength}")
    span = edge - float(grid[0])
    if span <= 0.0:
        raise ConfigurationError("grid has no downhill region below the edge")
    width = fraction * span
    start = float(grid[0]) + width
    ramp = np.clip((start - grid) / width, 0.0, None)
    return strength * ramp * ramp


def propagate(
    psi0: WavePacket,
    potential: Callable[[float], np.ndarray] | np.ndarray,
    dt: float,
    t_final: float,
    absorber: np.ndarray | None = None,
    survival_bounds: tuple[float, float] | None = None,
    min_samples: int = 100,
) -> PropagationResult:
    """Crank-Nicolson propagation with optional absorber.

    potential is either a static array on psi0's grid or a callable
    t -> array; time-dependent potentials are evaluated at midpoints
    t + dt/2.  Survival is the weighted norm over survival_bounds (the
    full grid when None), sampled at at least min_samples times.  dt
    must not exceed MAX_DT.  Without an absorber, norm growth beyond
    1e-6 aborts with a numerical-failure error.
    """

    if not 0.0 < dt <= MAX_DT:
        raise ConfigurationError(f"dt must be in (0, {MAX_DT}], got {dt}")
    if t_final < 0.0:
        raise DomainError(f"t_final must be nonnegative, got {t_final}")
    grid = psi0.grid
    n = len(grid)
    h = psi0.spacing
    if callable(potential):
        pot = potential
    else:
        static = np.asarray(potential, dtype=float)
        if static.shape != grid.shape:
            raise ConfigurationError("potential array does not match the grid")
        pot = lambda t: static  # noqa: E731
    if absorber is not None:
        absorber = np.asarray(absorber, dtype=float)
        if absorber.shape != grid.shape or np.any(absorber < 0.0):
            raise ConfigurationError("absorber must be nonnegative on the grid")

    if survival_bounds is None:
        weights = _interval_weights(grid, grid[0], grid[-1])
    else:
        weights = _interval_weights(grid, *survival_bounds)

    def measure(values: np.ndarray) -> float:
        return float(np.sum(weights * np.abs(values) ** 2))

    n_steps = max(1, int(round(t_final / dt))) if t_final > 0.0 else 0
    if t_final > 0.0 and n_steps + 1 < min_samples:
        raise ConfigurationError(
            f"{n_steps} steps cannot yield {min_samples} survival samples; "
            "reduce dt or min_samples"
        )
    step = t_final / n_steps if n_steps else 0.0
    stride = max(1, n_steps // max(min_samples - 1, 1))

    k_off = -0.5 / (h * h)
    k_diag = 1.0 / (h * h)
    psi = psi0.values.astype(complex).copy()
    norm0 = psi0.norm

    times = [0.0]
    survival = [measure(psi)]
    band = np.zeros((3, n), dtype=complex)

    for k in range(n_steps):
        t_mid = (k + 0.5) * step
        v_mid = pot(t_mid)
        diag = k_diag + v_mid.astype(complex)
        if absorber is not None:
            diag = diag - 1j * absorber
        a_main = 1.0 + 0.5j * step * diag
        a_off = 0.5j * step * k_off
        b_main = 1.0 - 0.5j * step * diag
        rhs = b_main * psi
        rhs[1:] -= a_off * psi[:-1]
        rhs[:-1] -= a_off * psi[1:]
        band[0, 1:] = a_off
        band[1, :] = a_main
        band[2, :-1] = a_off
        psi = solve_banded((1, 1), band, rhs)

        done = k + 1
        if done % stride == 0 or done == n_steps:
            times.append(done * step)
            survival.append(measure(psi))
            if absorber is None:
                total = float(np.trapezoid(np.abs(psi) ** 2, grid))
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
    spacing: float = DEFAULT_SPACING,
    fall_length: float = DEFAULT_FALL_LENGTH,
    absorber_strength: float = DEFAULT_ABSORBER_STRENGTH,
    min_samples: int = 100,
) -> PropagationResult:
    """Propagate a truncated quasi-bound state and record trap survival.

    The grid extends fall_length below the trap edge (absorber over its
    outer portion) and INTERIOR_PAD above the uphill edge; survival is
    the weighted norm over the trap interval [-size/2, size/2].
    """

    half = 0.5 * spec.size
    grid = uniform_grid(-half - fall_length, half + INTERIOR_PAD, spacing)
    psi0 = truncated_resonance_state(spec, res, grid)
    cap = downhill_absorber(grid, -half, strength=absorber_strength)
    return propagate(
        psi0,
        eval_trap(spec, grid),
        dt,
        t_final,
        absorber=cap,
        survival_bounds=(-half, half),
        min_samples=min_samples,
    )


def absorber_reflection(
    k0: float,
    strength: float = DEFAULT_ABSORBER_STRENGTH,
    fall_length: float = DEFAULT_FALL_LENGTH,
    fraction: float = ABSORBER_FRACTION,
    spacing: float = DEFAULT_SPACING,
    dt: float = 0.004,
) -> float:
    """Norm fraction a Gaussian packet gets back from the absorber.

    A free packet with mean wavenumber k0 is launched at the absorbing
    ramp of a decay-run-shaped grid; whatever is neither absorbed nor
    still in transit after twice the flight time counts as reflected.
    """

    if k0 <= 0.0:
        raise DomainError("k0 must be positive")
    grid = uniform_grid(-fall_length, 10.0, spacing)
    cap = downhill_absorber(grid, 0.0, fraction=fraction, strength=strength)
    sigma = 1.5
    x0 = -0.35 * fall_length  # between ramp and launch region
    packet = np.exp(-((grid - x0) ** 2) / (4.0 * sigma * sigma) - 1j * k0 * grid)
    packet = packet.astype(complex)
    norm = math.sqrt(float(np.trapezoid(np.abs(packet) ** 2, grid)))
    psi0 = WavePacket(grid=grid, values=packet / norm)

    flight = 2.0 * (abs(x0) + fraction * fall_length) / k0
    out = propagate(
        psi0,
        np.zeros_like(grid),
        dt,
        2.0 * flight,
        absorber=cap,
        min_samples=2,
    )
    return out.survival[-1]


def split_fidelity(
    ramp: Sequence[tuple[float, float, float]],
    grid_spec: splitting.GridSpec | None = None,
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
    times = np.array([r[0] for r in rows])
    seps = np.array([r[1] for r in rows])
    tilts = np.array([r[2] for r in rows])
    if times[0] != 0.0:
        raise DomainError("ramp must start at time 0")
    if len(rows) > 1 and np.any(np.diff(times) <= 0.0):
        raise DomainError("ramp times must be strictly increasing")
    if abs(seps[0]) > 1e-9:
        raise DomainError("ramp must start at separation 0")
    if np.any(np.diff(seps) < -1e-9):
        raise DomainError("separation must be nondecreasing along the ramp")

    d_max = float(seps.max())
    f_max = float(np.abs(tilts).max())
    if grid_spec is None:
        grid_spec = splitting.GridSpec(
            half_width=0.5 * d_max + f_max + splitting.GRID_MARGIN,
            spacing=0.01,
        )
    start = splitting.solve_double_well(seps[0], tilts[0], 1, grid_spec)
    target = splitting.solve_double_well(seps[-1], tilts[-1], 1, grid_spec)
    grid = start.grid
    psi0 = WavePacket(grid=grid, values=start.wavefunctions[0].astype(complex))

    t_final = float(times[-1])
    if t_final == 0.0:
        overlap = np.trapezoid(target.wavefunctions[0] * start.wavefunctions[0], grid)
        return float(abs(overlap) ** 2)

    def pot(t: float) -> np.ndarray:
        d = float(np.interp(t, times, seps))
        f = float(np.interp(t, times, tilts))
        return eval_double_well(d, f, grid)

    out = propagate(psi0, pot, dt, t_final, min_samples=2)
    ghost = WavePacket(grid=grid, values=target.wavefunctions[0].astype(complex))
    return float(abs(ghost.overlap(out.final_state)) ** 2)
