"""Stationary scattering solutions of the truncated tilted trap.

At each energy the interior of the trap carries the decaying-at-+infinity
Hermite solution and the linear exterior ramp carries an Airy
superposition alpha*Ai + beta*Bi.  Requiring the wavefunction to be
continuous and differentiable at the trap edge fixes (alpha, beta) up to
normalization; with the exterior normalized to alpha^2 + beta^2 = 1 the
squared interior amplitude

    response(E) = interior_amplitude(E)^2

peaks sharply at the quasi-bound levels and plays the role of a
density-of-states measure.  The matching phase atan2(beta, alpha) rises
by ~pi across each resonance, which is what the adaptive scan keys on:
phase jumps are detectable at any linewidth, while response maxima on a
uniform grid are not.

All matching arithmetic runs in exp-scaled Airy variables so that deep
barriers (scaling exponents of order 1e4) neither overflow nor lose the
phase step.  Off-resonance response values may underflow to zero as
floats; ``log_response`` stays exact.

A matcher call has a fixed cost of a few energies' worth, so
``scan_spectra`` scans a block of traps in lock step: one call matches
the open intervals of a bisection level across all of them, each energy
with its own trap's scalars, and every trap gets the spectrum its own
``scan_spectrum`` gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import specfun
from ._arrays import all_of, as_floats, first_failing, log_abs, where
from .errors import DomainError, NumericalError, check_count
from .potential import TrapSpec, trap_geometry

# Scan window may extend this far above the barrier top.
SCAN_CAP_MARGIN = 5.0
# Refinement trigger: wrapped phase step between neighboring samples.
PHASE_JUMP = math.pi / 8
# Bisection floor in energy; a jump persisting at this spacing is
# reported as an unresolved-narrow peak instead of an error.
RESOLUTION_FLOOR = 1e-12
# Floored sub-jumps closer than this many floors are one peak.
_MARKER_MERGE = 4.0
# Minimum log-prominence for a response maximum to count as a peak.
# Generous: barrier-top resonances near a window edge can sit on a tail
# that has only fallen to half the peak; the phase-rise gate below does
# the real discrimination, prominence only rejects float-level ripple.
_MIN_PROMINENCE = math.log(2.0)
# Minimum phase rise (radians) between the bracketing minima.
_MIN_PHASE_RISE = 0.3 * math.pi
# Dense local grid per resolved peak: span in FWHM units, point count.
PEAK_GRID_SPAN = 8.0
PEAK_GRID_POINTS = 96


def energy_cap(spec: TrapSpec) -> float:
    """Upper edge of the usable scan window for this trap.

    The interior solver is restricted to energies below the exterior
    shelf value size^2/8 (where the linear-ramp turning point leaves the
    exterior), and the matcher to barrier + SCAN_CAP_MARGIN.
    """

    shelf = 0.125 * spec.size * spec.size
    return min(shelf, trap_geometry(spec).edge_height + SCAN_CAP_MARGIN)


def interior_wave(spec: TrapSpec, energy, x=None):
    """Value and derivative of the interior solution, default at the edge.

    The interior solution of the tilted parabola V = x^2/2 + f*x at
    energy E is exp(-u^2/2) * H_nu(u) with u = x + f and degree
    nu = E + f^2/2 - 1/2; it decays as x -> +infinity for every real nu.
    Energies must lie below the exterior shelf size^2/8.  energy and x
    may be arrays (they broadcast); the results are then arrays.
    """

    energy = as_floats(energy)
    _check_below_shelf(energy, 0.125 * spec.size * spec.size)
    u = (spec.edge if x is None else as_floats(x)) + spec.tilt
    return _interior(energy + 0.5 * spec.tilt * spec.tilt - 0.5, u, np.exp(-0.5 * u * u))


def _check_below_shelf(energy, shelf) -> None:
    below = (energy > -math.inf) & (energy < shelf)
    if not all_of(below):
        raise DomainError(
            f"energy {first_failing(energy, below):g} not finite or at or above the "
            f"exterior shelf {first_failing(shelf, below):g}; interior solution capped there"
        )


def _interior(nu, u, g):
    """g H_nu(u) and its x-derivative g (H_nu'(u) - u H_nu(u)), g = exp(-u^2/2)."""
    h, dh = specfun.hermite_pair(nu, u)
    return g * h, g * (dh - u * h)


class _Trap(NamedTuple):
    """The matcher's per-trap scalars.

    Python floats for one trap.  A block of traps gathers those same
    floats into arrays, one element per energy, so each element runs the
    arithmetic of its own trap bit for bit.
    """

    tilt: float
    edge: float
    shelf: float  # exterior shelf size^2/8
    u: float  # Hermite argument at the edge, edge + tilt
    nu_shift: float  # tilt^2/2: the Hermite degree is E + nu_shift - 1/2
    g: float  # exp(-u^2/2)
    sigma: float  # Airy scale (2 tilt)^(1/3)

    @classmethod
    def of(cls, spec: TrapSpec) -> _Trap:
        u = spec.edge + spec.tilt
        return cls(float(spec.tilt), spec.edge, 0.125 * spec.size * spec.size, u,
                   0.5 * spec.tilt * spec.tilt, float(np.exp(-0.5 * u * u)),
                   (2.0 * spec.tilt) ** (1.0 / 3.0))


@dataclass(frozen=True)
class MatchResult:
    """Matched solution at one energy, or at each of an array of energies.

    ai_coeff, bi_coeff are the exterior Airy coefficients normalized to
    ai_coeff^2 + bi_coeff^2 = 1; interior_amplitude is the (nonnegative)
    interior prefactor under that normalization, and phase is
    atan2(bi_coeff, ai_coeff) at each energy on its own (unwrapping
    happens along a scan).  log_response = 2*ln(interior_amplitude)
    stays finite when the amplitude itself underflows.  Fields are
    floats for a float energy and arrays of its shape otherwise.
    """

    energy: float | np.ndarray
    ai_coeff: float | np.ndarray
    bi_coeff: float | np.ndarray
    interior_amplitude: float | np.ndarray
    phase: float | np.ndarray
    log_response: float | np.ndarray

    @property
    def response(self):
        """Squared interior amplitude, the density-of-states proxy."""
        return np.exp(self.log_response)


def match_amplitude(spec: TrapSpec, energy) -> MatchResult:
    """Match interior and exterior solutions at the trap edge.

    Solves [Ai(s_e), Bi(s_e); sigma Ai'(s_e), sigma Bi'(s_e)] (alpha, beta)^T
    = a (phi, phi')^T where s(x) = sigma*(x - x_t) is the Airy coordinate
    of the linear exterior, sigma = (2 f)^(1/3) and
    x_t = (E - size^2/8)/f its turning point, then rescales to
    alpha^2 + beta^2 = 1 with a >= 0.  Requires tilt > 0 (a flat shelf
    has no open channel) and 0 < E < barrier + SCAN_CAP_MARGIN; the
    interior solver additionally caps E below size^2/8.

    energy may be an array: every energy is matched in the same call,
    element by element, and a float energy goes through the same
    arithmetic.  An energy at or above size^2/8 raises DomainError, and
    a lost Airy Wronskian or a trivial interior solution raises
    NumericalError, each naming the first energy it happened at.  An
    array runs each check over all energies before the next, so when
    energies fail different checks it names the first energy that fails
    the earliest check.
    """

    energy = as_floats(energy)
    _check_tilt(spec)
    # the exterior ramp V = size^2/8 + f*x meets the barrier top at the edge
    shelf = 0.125 * spec.size * spec.size
    top = shelf + spec.tilt * spec.edge + SCAN_CAP_MARGIN
    inside = (energy > 0.0) & (energy < top)
    if not all_of(inside):
        raise DomainError(
            f"energy {first_failing(energy, inside):g} outside the matching window "
            f"(0, {top:g})"
        )

    return MatchResult(energy, *_match(_Trap.of(spec), energy))


def _check_tilt(spec: TrapSpec) -> None:
    if spec.tilt == 0.0:
        raise DomainError("zero tilt: exterior is flat, no open channel to match")


def _match(trap: _Trap, energy):
    """match_amplitude's arithmetic on checked energies: the MatchResult
    fields after energy, as floats for a float and arrays for an array.
    trap holds floats, or arrays of energy's shape (a block of traps)."""

    _check_below_shelf(energy, trap.shelf)
    value, deriv = _interior(energy + trap.nu_shift - 0.5, trap.u, trap.g)

    sigma = trap.sigma
    turning = (energy - trap.shelf) / trap.tilt
    s_edge = sigma * (trap.edge - turning)
    ai_e, aip_e, bi_e, bip_e, chi = specfun.airy_scaled(s_edge)

    # Scaled Wronskian check; the exp factors cancel identically.
    wronskian = ai_e * bip_e - aip_e * bi_e
    kept = abs(wronskian * math.pi - 1.0) <= 1e-6
    if not all_of(kept):
        raise NumericalError(
            f"Airy Wronskian lost at E={first_failing(energy, kept):g} "
            f"(s={first_failing(s_edge, kept):g}): "
            f"pi*W = {first_failing(wronskian, kept) * math.pi:g}"
        )

    # Cramer's rule against the true (unscaled) pair, with the exp(chi)
    # factors carried symbolically: alpha = exp(chi)*alpha_s,
    # beta = exp(-chi)*beta_s.
    slope = deriv / sigma
    alpha_s = math.pi * (value * bip_e - slope * bi_e)
    beta_s = math.pi * (slope * ai_e - value * aip_e)
    live = (alpha_s != 0.0) | (beta_s != 0.0)
    if not all_of(live):
        raise NumericalError(
            f"trivial interior solution at E={first_failing(energy, live):g}"
        )

    log_alpha = log_abs(alpha_s) + chi
    log_beta = log_abs(beta_s) - chi

    # response = 1/(alpha^2 + beta^2) under unit interior amplitude.
    log_response = -np.logaddexp(2.0 * log_alpha, 2.0 * log_beta)
    half = 0.5 * log_response
    ai_coeff = np.exp(log_alpha + half)
    bi_coeff = np.exp(log_beta + half)
    ai_coeff = where(alpha_s < 0.0, -ai_coeff, ai_coeff)
    bi_coeff = where(beta_s < 0.0, -bi_coeff, bi_coeff)
    return ai_coeff, bi_coeff, np.exp(half), np.arctan2(bi_coeff, ai_coeff), log_response


@dataclass(frozen=True)
class Peak:
    """One detected resonance candidate in a scanned spectrum.

    resolved peaks carry a half-max FWHM estimate; unresolved-narrow
    peaks (phase jump still above pi/2 at the bisection floor) carry the
    floor bracket width as an upper bound on the linewidth.  territory
    spans the bracketing response minima: the energy range this peak
    dominates, which lineshape fits must not leave (the neighboring peak
    may be orders of magnitude taller).  An unresolved peak's territory
    is its floor bracket.
    """

    center: float
    resolved: bool
    width_estimate: float
    territory: tuple[float, float]


@dataclass(frozen=True)
class Spectrum:
    """Adaptively sampled response spectrum of one trap.

    energies are strictly increasing; phases are unwrapped so that
    adjacent samples differ by less than pi/2 except across flagged
    unresolved-narrow peaks.  Peaks are ordered by center.  Only
    log_responses is stored: responses, exp(log_responses), is derived
    on each read (off-resonance values may underflow to 0).
    """

    trap: TrapSpec
    energies: np.ndarray
    log_responses: np.ndarray
    phases: np.ndarray
    peaks: tuple[Peak, ...]

    @property
    def responses(self) -> np.ndarray:
        return np.exp(self.log_responses)

    def __len__(self) -> int:
        return len(self.energies)

    def window_slice(self, low: float, high: float) -> slice:
        """Index slice of samples with low <= energy <= high."""
        lo = int(np.searchsorted(self.energies, low, side="left"))
        hi = int(np.searchsorted(self.energies, high, side="right"))
        return slice(lo, hi)

    def rows(self):
        """Iterate (energy, response, phase) triples in energy order."""
        yield from zip(self.energies, self.responses, self.phases)


def _wrap(delta):
    """Wrap phase differences into [-pi, pi], exactly (as math.remainder)."""
    r = np.fmod(delta, 2.0 * math.pi)
    return np.where(r > math.pi, r - 2.0 * math.pi, np.where(r < -math.pi, r + 2.0 * math.pi, r))


def _unwrap(raw: np.ndarray) -> np.ndarray:
    return np.cumsum(np.concatenate((raw[:1], _wrap(np.diff(raw)))))


def _bisect(match, lo, hi, p_lo, p_hi, trap) -> list:
    """Bisect the intervals [lo, hi] until phase steps drop below PHASE_JUMP.

    Level-synchronous: every interval of a level whose endpoint phases
    p_lo, p_hi still step by more than PHASE_JUMP is split in one call of
    match(energies, trap), which matches each energy on the trap of its
    interval (trap holds one trap index per interval), keeps them and
    returns their raw phases.  Whether an interval is split depends only
    on its endpoint phases, so the sampled energies are those of
    bisecting each interval depth-first, whatever other traps share the
    call.  Intervals that reach the floor (or machine spacing) with a
    surviving jump are returned as markers (trap, lo, hi, wrapped_step).
    """

    markers = []
    while True:
        step = _wrap(p_hi - p_lo)
        jump = np.abs(step) > PHASE_JUMP
        mid = 0.5 * (lo + hi)
        floored = (hi - lo <= RESOLUTION_FLOOR) | (mid <= lo) | (mid >= hi)
        stop = jump & floored
        markers.extend(zip(trap[stop].tolist(), lo[stop], hi[stop], step[stop]))
        split = jump & ~floored
        if not split.any():
            return markers
        lo, mid, hi, p_lo, p_hi = lo[split], mid[split], hi[split], p_lo[split], p_hi[split]
        trap = trap[split]
        p_mid = match(mid, trap)
        # the left halves of all split intervals, then the right halves
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        p_lo, p_hi = np.concatenate((p_lo, p_mid)), np.concatenate((p_mid, p_hi))
        trap = np.concatenate((trap, trap))


def _merge_markers(markers: list, floor: float) -> list[Peak]:
    """Cluster floored sub-jumps into unresolved-narrow peaks."""

    peaks = []
    for lo, hi, step in sorted(markers):
        if peaks and lo - peaks[-1][1] <= _MARKER_MERGE * floor:
            peaks[-1][1] = hi
            peaks[-1][2] += step
        else:
            peaks.append([lo, hi, step])
    out = []
    for lo, hi, total in peaks:
        if abs(total) > 0.5 * math.pi:
            out.append(
                Peak(
                    center=0.5 * (lo + hi),
                    resolved=False,
                    width_estimate=hi - lo,
                    territory=(lo, hi),
                )
            )
    return out


def _half_max_cross(e, log_r, i, direction, target):
    """Interpolated energy where log_r crosses target walking from i."""

    j = i
    while 0 <= j + direction < len(e) and log_r[j + direction] > target:
        j += direction
    k = j + direction
    if not 0 <= k < len(e):
        return e[j]  # ran off the sampled window; report its edge
    t = (target - log_r[j]) / (log_r[k] - log_r[j])
    return e[j] + t * (e[k] - e[j])


def _detect_resolved(e, log_r, phases, blocked):
    """Local response maxima with enough prominence and phase rise.

    The maxima (above the left neighbor, not below the right one) are
    found in one array comparison; saddles and half-max crossings are
    walked from those alone, on Python floats.  blocked holds centers of
    unresolved-narrow peaks; maxima within one sample of those are
    skipped.  Returns (center, fwhm, left saddle, right saddle) tuples.
    """

    inner = log_r[1:-1]
    maxima = np.flatnonzero((inner > log_r[:-2]) & (inner >= log_r[2:])) + 1
    e, log_r, phases = e.tolist(), log_r.tolist(), phases.tolist()
    found = []
    for i in maxima.tolist():
        left = i
        while left > 0 and log_r[left - 1] <= log_r[left]:
            left -= 1
        right = i
        while right < len(e) - 1 and log_r[right + 1] <= log_r[right]:
            right += 1
        saddle = max(log_r[left], log_r[right])
        if log_r[i] - saddle < _MIN_PROMINENCE:
            continue
        if phases[right] - phases[left] < _MIN_PHASE_RISE:
            continue
        if any(abs(e[i] - b) < 64.0 * RESOLUTION_FLOOR for b in blocked):
            continue
        # Half-max level halfway to the higher bracketing saddle, in the
        # linear response; tiny background makes this ~ peak/2.
        half = log_r[i] + math.log(0.5 * (1.0 + math.exp(saddle - log_r[i])))
        lo = _half_max_cross(e, log_r, i, -1, half)
        hi = _half_max_cross(e, log_r, i, +1, half)
        found.append((e[i], hi - lo, e[left], e[right]))
    return found


def scan_spectrum(
    spec: TrapSpec,
    e_min: float,
    e_max: float,
    base_points: int = 160,
) -> Spectrum:
    """Scan the response over [e_min, e_max] with adaptive refinement.

    A uniform base grid is bisected wherever the wrapped phase step
    between neighbors exceeds pi/8, down to a floor of 1e-12 in energy;
    jumps surviving at the floor become unresolved-narrow peaks.  Each
    resolved peak then receives a dense uniform local grid spanning
    PEAK_GRID_SPAN half-widths on each side for later lineshape fitting.
    Matched samples are kept in matching order and sorted by energy
    once before the first detection pass and once after the peak grids.

    The base grid must be fine enough to separate neighboring
    resonances (one phase jump per interval); level spacing in this trap
    family is of order 1, so the default is ample for windows a few
    units wide.  This is scan_spectra on one trap: one matcher call for
    the base grid, one per bisection level and one for the peak grids.
    """

    return scan_spectra([(spec, e_min, e_max)], base_points)[0]


def scan_spectra(windows, base_points: int = 160) -> list[Spectrum]:
    """Scan several traps in lock step, windows holding (spec, e_min, e_max).

    Runs scan_spectrum's scan on every trap at once: one matcher call
    matches all base grids, one each bisection level (the open intervals
    of every trap) and one all peak grids, so a block of traps pays a
    call's fixed cost once per level instead of once per trap.  Returns,
    per trap, the Spectrum that scan_spectrum(spec, e_min, e_max,
    base_points) returns, bit for bit.  A NumericalError of any trap's
    matching is raised and ends the whole scan; a caller that wants the
    other traps' spectra scans them again one by one.
    """

    for spec, e_min, e_max in windows:
        if not (math.isfinite(e_min) and math.isfinite(e_max)):
            raise DomainError("scan window must be finite")
        if not 0.0 < e_min < e_max:
            raise DomainError(f"need 0 < e_min < e_max, got [{e_min:g}, {e_max:g}]")
        cap = energy_cap(spec)
        if e_max >= cap:
            raise DomainError(
                f"e_max {e_max:g} at or above the usable cap {cap:g} "
                f"for size={spec.size:g}, tilt={spec.tilt:g}"
            )
    check_count("base_points", base_points, 2)
    for spec, _, _ in windows:
        _check_tilt(spec)
    n = len(windows)
    if n == 0:
        return []
    specs = [spec for spec, _, _ in windows]
    # the per-trap scalars as rows, gathered per energy by trap index
    columns = np.array([_Trap.of(spec) for spec in specs]).T.copy()
    # (energies, trap indices, log-responses, raw phases) per matcher call;
    # no energy of a trap is matched twice, so a read's sort has a single
    # answer
    chunks = []

    def match(energies: np.ndarray, trap: np.ndarray) -> np.ndarray:
        """Match energies[i] on trap[i], keep the samples and return the
        raw phases."""
        *_, phase, log_r = _match(_Trap(*columns[:, trap]), energies)
        chunks.append((energies, trap, log_r, phase))
        return phase

    def read() -> list:
        """Per trap, its samples sorted by energy: (energies,
        log-responses, unwrapped phases)."""
        e, trap, log_r, raw = (np.concatenate(field) for field in zip(*chunks))
        order = np.lexsort((e, trap))
        e, log_r, raw = e[order], log_r[order], raw[order]
        cuts = np.searchsorted(trap[order], np.arange(n + 1)).tolist()
        return [(e[a:b], log_r[a:b], _unwrap(raw[a:b])) for a, b in zip(cuts, cuts[1:])]

    base = np.array([np.linspace(e_min, e_max, base_points) for _, e_min, e_max in windows])
    owner = np.arange(n)
    raw = match(base.ravel(), np.repeat(owner, base_points)).reshape(base.shape)
    markers = _bisect(match, base[:, :-1].ravel(), base[:, 1:].ravel(),
                      raw[:, :-1].ravel(), raw[:, 1:].ravel(), np.repeat(owner, base_points - 1))

    narrow = [_merge_markers([m[1:] for m in markers if m[0] == t], RESOLUTION_FLOOR)
              for t in range(n)]
    blocked = [[p.center for p in peaks] for peaks in narrow]

    # First detection pass on the refined grid, then a dense local grid
    # around each candidate so the fit window is well sampled; the grids
    # of all traps are matched in one call.
    samples = read()
    grids, grid_owner = [], []
    for t, (e, log_r, phases) in enumerate(samples):
        _, e_min, e_max = windows[t]
        spans = []
        for center, width, _, _ in _detect_resolved(e, log_r, phases, blocked[t]):
            width = max(width, 8.0 * RESOLUTION_FLOOR)
            lo = max(center - PEAK_GRID_SPAN * width, e_min)
            hi = min(center + PEAK_GRID_SPAN * width, e_max)
            spans.append(np.linspace(lo, hi, PEAK_GRID_POINTS))
        if spans:
            grids.append(np.setdiff1d(np.concatenate(spans), e))
            grid_owner.append(np.full(len(grids[-1]), t))
    if grids:
        energies = np.concatenate(grids)
        if len(energies):
            match(energies, np.concatenate(grid_owner))
        samples = read()

    spectra = []
    for t, (e, log_r, phases) in enumerate(samples):
        resolved = [
            Peak(center=c, resolved=True, width_estimate=w, territory=(t_lo, t_hi))
            for c, w, t_lo, t_hi in _detect_resolved(e, log_r, phases, blocked[t])
        ]
        peaks = tuple(sorted(resolved + narrow[t], key=lambda p: p.center))
        spectra.append(Spectrum(trap=specs[t], energies=e, log_responses=log_r,
                                phases=phases, peaks=peaks))
    return spectra
