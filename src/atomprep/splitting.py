"""Eigenlevels of the spliced double well and adiabatic split planning.

The well pair shares one trapping frequency; the cusp between the two
parabolic halves rises as separation^2/8, so pulling the wells apart
turns one oscillator spectrum into near-degenerate left/right doublets.
A linear tilt breaks the degeneracy and decides which well the atom
follows.  Everything here is stationary: the lowest levels of the
shared three-point grid Hamiltonian (`_grid`) on a hard-walled grid,
a (separation, tilt) gap survey, a
widest-gap path search across that survey, and a ramp generator that
spends time where the gap is smallest (local adiabaticity, speed
proportional to gap^2).

The levels come from `_grid.lowest_levels`: Rayleigh-quotient iteration
per state, with one Sturm count certifying that the states found are
the lowest ones; a level it cannot certify raises NumericalError, so a
survey never holds a wrong level.  The walls stand GRID_MARGIN = 6.5
oscillator lengths beyond the minima; the comment at GRID_MARGIN gives
the measured wall sensitivity.

Only one tilt sign is treated; the mirror problem (opposite
field-seeking state) is the reflection x -> -x, tilt -> -tilt of this
one and is not solved separately.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import _grid
from .errors import ConfigurationError, DomainError, PathNotFoundError, check_count
from .potential import eval_double_well

# Default finite-difference spacing: the three-point stencil error per
# level is (h^2/24) <p^4>, about 1e-7..1e-6 for the lowest levels here.
DEFAULT_SPACING = 0.0015
# Hard walls at least this far beyond both well minima, where the ground
# density exp(-x^2) of either well is below 5e-19.  Moving the walls from
# 6.5 to 12.5 moves levels 0-3 by at most:
#
#     shape (d, f)     h = 0.01    h = 0.0015
#     (0, 0)           2.9e-13     1.8e-12
#     (4.82, 0.12)     1.2e-13     1.5e-12
#     (8, 0.1)         5.4e-14     8.5e-13
#
# GridSpec.points keeps the cusp at x = 0 on a node whatever the margin.
GRID_MARGIN = 6.5
# Coarsest spacing accepted; production solves should stay at 0.02 or
# below, but convergence-order checks need one octave above that.
MAX_SPACING = 0.04


@dataclass(frozen=True)
class GridSpec:
    """Uniform hard-walled solver grid: half width and spacing."""

    half_width: float
    spacing: float = DEFAULT_SPACING

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ConfigurationError(f"bad half_width {self.half_width}")
        if not 0.0 < self.spacing <= MAX_SPACING:
            raise ConfigurationError(
                f"spacing must be in (0, {MAX_SPACING}], got {self.spacing}"
            )

    def points(self) -> np.ndarray:
        """Interior nodes k * spacing, |k| < m, with m the fewest spacings
        that reach half_width.

        The walls at +-m * spacing, rounded outward to whole spacings,
        carry zero amplitude.  So the double well's cusp at x = 0 is a
        node on every grid; a cusp between nodes would move the levels
        through the stencil by up to 1.5e-7 at spacing 0.0015.
        """
        m = math.ceil(self.half_width / self.spacing - 1e-9)
        return -(m * self.spacing) + self.spacing * np.arange(1, 2 * m)


def default_grid(separation: float, tilt: float, spacing: float = DEFAULT_SPACING) -> GridSpec:
    """Grid covering both (tilt-shifted) minima with the standard margin."""
    return GridSpec(half_width=0.5 * separation + abs(tilt) + GRID_MARGIN, spacing=spacing)


@dataclass(frozen=True)
class WellLevels:
    """Lowest eigenpairs of one double-well configuration.

    wavefunctions has one state per row, normalized under the grid
    inner product.
    """

    grid: np.ndarray
    energies: np.ndarray
    wavefunctions: np.ndarray

    @property
    def gap(self) -> float:
        return float(self.energies[1] - self.energies[0])

    @property
    def ground_centroid(self) -> float:
        """Position expectation <x> of the ground state."""
        density = np.abs(self.wavefunctions[0]) ** 2
        h = float(self.grid[1] - self.grid[0])
        return float(_grid.integral(self.grid, h, self.grid * density))


def solve_double_well(
    separation: float,
    tilt: float,
    n_states: int = 2,
    grid_spec: GridSpec | None = None,
) -> WellLevels:
    """Lowest n_states of the spliced double well by finite differences.

    Second-order three-point kinetic stencil with hard walls; the
    default grid reaches GRID_MARGIN beyond both minima, which the
    convergence properties (h^2 scaling, wall insensitivity) validate.
    Raises NumericalError when the level iteration cannot certify the
    lowest n_states (see `_grid.lowest_levels`).
    """

    if not 0.0 <= separation < math.inf:
        raise DomainError(f"separation must be finite and nonnegative, got {separation}")
    if not math.isfinite(tilt):
        raise DomainError(f"tilt must be finite, got {tilt}")
    check_count("n_states", n_states, 1)
    spec = grid_spec if grid_spec is not None else default_grid(separation, tilt)
    need = default_grid(separation, tilt).half_width
    if spec.half_width < need - 1e-12:
        raise ConfigurationError(
            f"half_width {spec.half_width:g} leaves less than {GRID_MARGIN:g} "
            f"beyond the well minima (need {need:g})"
        )

    x = spec.points()
    if n_states > len(x):
        raise ConfigurationError("more states requested than grid points")
    energies, waves = _grid.lowest_levels(
        spec.spacing, eval_double_well(separation, tilt, x), n_states
    )
    return WellLevels(grid=x, energies=energies, wavefunctions=waves)


@dataclass(frozen=True)
class GapMap:
    """Gap survey over a (separation, tilt) grid.

    Arrays are indexed [i_separation, j_tilt]; every cell holds a solved
    configuration, since gap_map raises on the first one that fails.
    """

    separations: np.ndarray
    tilts: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    gaps: np.ndarray
    centroids: np.ndarray

    def rows(self):
        """Iterate (d, f, e0, e1, gap, centroid) in grid order."""
        for i, d in enumerate(self.separations):
            for j, f in enumerate(self.tilts):
                yield (
                    float(d),
                    float(f),
                    float(self.e0[i, j]),
                    float(self.e1[i, j]),
                    float(self.gaps[i, j]),
                    float(self.centroids[i, j]),
                )


def gap_map(
    d_range: tuple[float, float],
    f_range: tuple[float, float],
    nd: int,
    nf: int,
    spacing: float = 0.01,
) -> GapMap:
    """Survey gap and ground centroid over a (separation, tilt) grid.

    A deliberately coarser default spacing than solve_double_well's:
    the survey feeds path planning, where 1e-4-level gap accuracy is
    ample.  A bad spacing or range raises its DomainError at the first
    cell; no cell is left unsolved.
    """

    check_count("nd", nd, 1)
    check_count("nf", nf, 1)
    d_ok = 0.0 <= d_range[0] <= d_range[1] < math.inf
    if not (d_ok and -math.inf < f_range[0] <= f_range[1] < math.inf):
        raise DomainError(
            f"ranges must be finite and low to high, separations >= 0, got {d_range}, {f_range}"
        )
    seps = np.linspace(d_range[0], d_range[1], nd)
    tilts = np.linspace(f_range[0], f_range[1], nf)
    # (e0, e1, gap, centroid) per cell; only these four numbers are kept,
    # not the wavefunctions
    cells = np.empty((nd, nf, 4))
    for i, d in enumerate(seps):
        for j, f in enumerate(tilts):
            spec = default_grid(float(d), float(f), spacing)
            levels = solve_double_well(float(d), float(f), 2, spec)
            cells[i, j] = (*levels.energies, levels.gap, levels.ground_centroid)
    e0, e1, gaps, cents = cells.transpose(2, 0, 1)
    return GapMap(separations=seps, tilts=tilts, e0=e0, e1=e1, gaps=gaps, centroids=cents)


def plan_split_path(
    survey: GapMap,
    d_target: float,
    min_gap: float,
    f_bias: float = 0.12,
) -> list[tuple[float, float]]:
    """Widest-gap path from separation 0 to d_target at the bias tilt.

    Nodes are survey grid points; moves increase the separation index by
    one (tilt index changing by at most one) or step the tilt index at
    fixed separation, so the separation never decreases.  The path starts
    and ends at the survey tilt nearest to f_bias, which must lie within
    the survey's tilts (it need not be a node).  The returned path
    maximizes the minimum gap encountered; if that bottleneck is below
    min_gap, PathNotFoundError reports it.  A NaN d_target or min_gap
    raises DomainError.
    """

    if not d_target >= 0.0:
        raise DomainError(f"d_target must be nonnegative, got {d_target}")
    if math.isnan(min_gap):
        raise DomainError("min_gap must be a number, got nan")
    if survey.separations[0] > 1e-9:
        raise DomainError("survey must start at separation 0")
    if d_target > survey.separations[-1] + 1e-9:
        raise DomainError(
            f"survey covers separations up to {survey.separations[-1]:g}, "
            f"target {d_target:g} beyond it"
        )
    if not survey.tilts[0] - 1e-9 <= f_bias <= survey.tilts[-1] + 1e-9:
        raise DomainError(
            f"survey covers tilts {survey.tilts[0]:g} to {survey.tilts[-1]:g}, "
            f"bias {f_bias:g} outside them"
        )
    # March to the last survey node at or below the target, then append
    # the exact target point so the ramp ends where the caller asked.
    i_end = int(np.searchsorted(survey.separations, d_target + 1e-9) - 1)
    i_end = max(i_end, 0)
    j_bias = int(np.argmin(np.abs(survey.tilts - f_bias)))
    nd, nf = survey.gaps.shape

    if i_end == 0 and d_target <= survey.separations[0] + 1e-9:
        return [(float(survey.separations[0]), float(survey.tilts[j_bias]))]

    # Bottleneck shortest path (maximize the minimum node gap) by a
    # priority queue over (i, j) nodes; d monotone by construction.
    best = np.full((nd, nf), -math.inf)
    prev: dict[tuple[int, int], tuple[int, int]] = {}
    start = (0, j_bias)
    best[start] = survey.gaps[start]
    heap = [(-best[start], start)]
    while heap:
        neg, (i, j) = heapq.heappop(heap)
        width = -neg
        if width < best[i, j]:
            continue
        moves = [(i + 1, j), (i + 1, j - 1), (i + 1, j + 1), (i, j - 1), (i, j + 1)]
        for ni, nj in moves:
            if not (0 <= ni <= i_end and 0 <= nj < nf):
                continue
            cand = min(width, float(survey.gaps[ni, nj]))
            if cand > best[ni, nj]:
                best[ni, nj] = cand
                prev[(ni, nj)] = (i, j)
                heapq.heappush(heap, (-cand, (ni, nj)))

    goal = (i_end, j_bias)
    bottleneck = best[goal]
    if bottleneck < min_gap:
        raise PathNotFoundError(
            f"best path bottleneck gap {bottleneck:g} below requested {min_gap:g}",
            bottleneck_gap=float(bottleneck),
        )
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()
    points = [
        (float(survey.separations[i]), float(survey.tilts[j])) for i, j in path
    ]
    if d_target > points[-1][0] + 1e-9:
        points.append((float(d_target), float(survey.tilts[j_bias])))
    return points


def _nearest_gaps(survey: GapMap, d, f):
    """Survey gaps at the grid nodes nearest to separations d and tilts f
    (floats or arrays of one shape; the first node wins a tie)."""
    i = np.argmin(np.abs(survey.separations - np.asarray(d)[..., None]), axis=-1)
    j = np.argmin(np.abs(survey.tilts - np.asarray(f)[..., None]), axis=-1)
    return survey.gaps[i, j]


def path_gap(survey: GapMap, point: tuple[float, float]) -> float:
    """Survey gap at the grid node nearest to (separation, tilt)."""
    return float(_nearest_gaps(survey, *point))


def gap_adaptive_ramp(
    survey: GapMap,
    path: list[tuple[float, float]],
    duration: float,
    samples: int = 400,
) -> list[tuple[float, float, float]]:
    """Timetable (t, separation, tilt) along a planned path.

    Progress speed along the path is proportional to the local gap
    squared (local-adiabaticity heuristic), then mapped through a
    smoothstep so the ramp starts and ends at rest.  The rows are dense
    enough for linear interpolation during propagation.
    """

    if not 0.0 < duration < math.inf:
        raise DomainError(f"duration must be positive and finite, got {duration}")
    if len(path) < 2:
        d, f = path[0]
        return [(0.0, d, f), (duration, d, f)]
    check_count("samples", samples, len(path))

    pts = np.asarray(path, dtype=float)
    # Arc position along the path in (d, f) space.
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    if np.any(seg == 0.0):
        raise DomainError("path repeats a waypoint")
    arc = np.concatenate(([0.0], np.cumsum(seg)))

    # Pseudo-time along the arc: dp proportional to ds / gap^2, so equal
    # pseudo-time steps move slowly where the gap is small.
    s_fine = np.linspace(0.0, arc[-1], samples)
    gaps = _nearest_gaps(
        survey, np.interp(s_fine, arc, pts[:, 0]), np.interp(s_fine, arc, pts[:, 1])
    )
    inv = 1.0 / gaps**2
    pseudo = np.concatenate(
        ([0.0], np.cumsum(0.5 * (inv[1:] + inv[:-1]) * np.diff(s_fine)))
    )
    # Uniform wall-clock times; progress through pseudo-time follows a
    # smoothstep, so the ramp also starts and ends at rest.
    times = np.linspace(0.0, duration, samples)
    u = times / duration
    progress = (u * u * (3.0 - 2.0 * u)) * pseudo[-1]
    s_of_t = np.interp(progress, pseudo, s_fine)
    seps = np.interp(s_of_t, arc, pts[:, 0])
    tilts = np.interp(s_of_t, arc, pts[:, 1])
    return list(zip(times.tolist(), seps.tolist(), tilts.tolist()))
