"""Holding-time selection and the ground-state fidelity-loss map.

The culling step lowers the trap to a shallow shape, waits while unwanted
population tunnels out, then restores the depth.  For a trap shape (size,
tilt) the two lowest quasi-bound widths fix the whole budget: the excited
width sets the holding time needed to push the excited residual below a
target probability, the ground width sets the loss paid during that hold,
and their ratio alone bounds the attainable single-atom fidelity.

A sweep over (size, tilt) produces a loss map whose cells carry an explicit
status instead of clipped values: shapes whose first excited level sits
above the escape barrier are flagged out of range rather than scanned, and
a cell whose scan or fits fail is recorded without aborting the sweep.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, TrapShapeError, WidthUnresolvedError, check_count
from .potential import TrapSpec, trap_geometry
from .resonance import Resonance, fit_lorentzian
from .scattering import energy_cap, scan_spectra, scan_spectrum
from .units import UnitSystem

RESIDUAL_DEFAULT = 1e-5

# Scan window for the two lowest peaks: start below the most tilted ground
# level the valid parameter region can produce, stop a fixed margin above
# the barrier edge so the broadest excited peak keeps background on its
# high side without dragging deeper structure into the fit windows.
SCAN_FLOOR = 0.02
SCAN_HEADROOM = 0.25

STATUS_OK = "ok"
STATUS_OUT_OF_RANGE = "out-of-range"
STATUS_ERROR = "error"

# Passed through reports; restoring the depth is modeled as a static
# endpoint, trusted while the lowered trap still holds this much energy.
RESTORE_DEPTH_THRESHOLD = 1.5

# A fidelity map scans its bound cells in blocks of at most this many,
# in lock step (scattering.scan_spectra).  Larger blocks pay the matcher's
# fixed per-call cost less often but hold more energies per call.  On a
# 13 x 9 grid with 72 bound cells the map's allocation peak (tracemalloc)
# is 0.13 MiB scanning cell by cell, and 0.63, 1.03, 1.57 and 2.28 MiB in
# blocks of 8, 16, 24 and 36; its best time on a 2-core x86 host falls
# from 0.235 s to 0.197, 0.152, 0.153 and 0.145 s.
MAP_BLOCK_CELLS = 16


def _check_target(residual_target: float) -> None:
    if not (0.0 < residual_target < 0.1):
        raise DomainError(
            f"residual_target must lie in (0, 0.1), got {residual_target}"
        )


@dataclass(frozen=True)
class CullingPoint:
    """Lifetimes and fidelity budget of one trap shape.

    Stores the fitted widths gamma0, gamma1 of the two lowest quasi-bound
    states and the residual target; derived from them are tau0_over_tau1,
    t_hold (the wait that brings the excited survival down to the target)
    and ground_loss (the ground-state population lost over that wait).
    """

    size: float
    tilt: float
    gamma0: float
    gamma1: float
    residual_target: float = RESIDUAL_DEFAULT

    def __post_init__(self):
        _check_target(self.residual_target)
        if not (self.gamma0 > 0.0 and self.gamma1 > 0.0):
            raise DomainError("widths must be positive")
        if not self.tau0_over_tau1 >= 1.0:
            raise DomainError(
                f"ground state must outlive the excited state, got lifetime "
                f"ratio {self.tau0_over_tau1}"
            )

    @property
    def tau0_over_tau1(self) -> float:
        return self.gamma1 / self.gamma0

    @property
    def t_hold(self) -> float:
        return -math.log(self.residual_target) / self.gamma1

    @property
    def ground_loss(self) -> float:
        return -math.expm1(-self.gamma0 * self.t_hold)

    @property
    def log10_loss(self) -> float:
        return math.log10(self.ground_loss)

    @property
    def fidelity(self) -> float:
        return 1.0 - self.ground_loss


def excited_level_estimate(tilt: float) -> float:
    """Harmonic estimate of the first excited level, 3/2 shifted by the tilt."""
    return 1.5 - 0.5 * tilt * tilt


def excited_state_bound(spec: TrapSpec) -> bool:
    """Whether the estimated first excited level sits below the barrier top."""
    return trap_geometry(spec).edge_height >= excited_level_estimate(spec.tilt)


def scan_window(spec: TrapSpec) -> tuple[float, float]:
    """Energy window that brackets the two lowest resonances."""
    cap = energy_cap(spec)
    hi = trap_geometry(spec).edge_height + SCAN_HEADROOM
    # scan_spectrum requires e_max strictly below the usable cap
    hi = min(hi, cap * (1.0 - 1e-9))
    return SCAN_FLOOR, hi


def culling_point(
    size: float, tilt: float, residual_target: float = RESIDUAL_DEFAULT
) -> CullingPoint:
    """Scan one trap shape and derive its holding time and fidelity loss.

    Runs the resonance scan over the two lowest peaks, fits both widths,
    and assembles the holding-time budget for the requested excited-state
    residual.

    Raises
    ------
    TrapShapeError
        If the scan does not yield two resolved resonances: the trap is
        too shallow (excited level above the barrier) or too deep (a width
        below the scan's resolution floor).
    DomainError
        If residual_target is outside (0, 0.1) or the trap parameters are
        invalid.
    """
    _check_target(residual_target)
    spec = TrapSpec(size, tilt)
    window = scan_window(spec)
    return _point(scan_spectrum(spec, *window), window, residual_target)


def _point(spectrum, window: tuple[float, float], residual_target: float) -> CullingPoint:
    """The CullingPoint of a trap scanned over window: fits its two lowest
    peaks.  Raises culling_point's TrapShapeError, or the fits'
    NumericalError."""
    size, tilt = spectrum.trap.size, spectrum.trap.tilt
    if len(spectrum.peaks) < 2:
        lo, hi = window
        raise TrapShapeError(
            f"trap (size={size}, tilt={tilt}) shows {len(spectrum.peaks)} "
            f"resonance(s) in ({lo:.3g}, {hi:.3g}); need the two lowest"
        )
    try:
        r0: Resonance = fit_lorentzian(spectrum, 0)
        r1: Resonance = fit_lorentzian(spectrum, 1)
    except WidthUnresolvedError as exc:
        raise TrapShapeError(
            f"trap (size={size}, tilt={tilt}) has a width below the scan "
            f"resolution floor (upper bound {exc.width_upper_bound:.3g})"
        ) from exc
    return CullingPoint(size, tilt, r0.gamma, r1.gamma, residual_target)


# The numbers of a CSV row; the JSON record also carries ground_loss.
_ROW_NUMBERS = ("gamma0", "gamma1", "tau0_over_tau1", "t_hold", "log10_loss")


@dataclass(frozen=True)
class MapCell:
    """One grid point of a fidelity map: point is the CullingPoint of an
    "ok" cell, note the message of an "error" cell, else both are None."""

    z: float
    f: float
    status: str
    point: CullingPoint | None = None
    note: str | None = None

    def record(self) -> dict:
        """JSON-ready record: z, f and status, the budget numbers of an ok
        cell and the note of an error cell."""
        rec = {"z": self.z, "f": self.f, "status": self.status}
        p = self.point
        if p is not None:
            rec.update(gamma0=p.gamma0, gamma1=p.gamma1, tau0_over_tau1=p.tau0_over_tau1,
                       t_hold=p.t_hold, ground_loss=p.ground_loss, log10_loss=p.log10_loss)
        if self.note is not None:
            rec["note"] = self.note
        return rec


@dataclass(frozen=True)
class FidelityMap:
    """Grid of culling results over trap size and tilt.

    cells holds one MapCell per grid point in row order: cells[i * nf + j]
    is the cell at (z_grid[i], f_grid[j]), where nf = len(f_grid).
    """

    z_grid: np.ndarray
    f_grid: np.ndarray
    cells: list
    residual_target: float

    def __post_init__(self):
        if len(self.cells) != len(self.z_grid) * len(self.f_grid):
            raise DomainError("one cell per grid point expected")

    @property
    def status(self) -> list:
        """Cell statuses as rows: status[i][j] belongs to (z_grid[i], f_grid[j])."""
        nf = len(self.f_grid)
        return [[c.status for c in self.cells[i * nf:(i + 1) * nf]]
                for i in range(len(self.z_grid))]

    def ok_points(self):
        """Yield (i, j, CullingPoint) for every successfully scanned cell."""
        for k, cell in enumerate(self.cells):
            if cell.status == STATUS_OK:
                yield (*divmod(k, len(self.f_grid)), cell.point)

    def rows(self):
        """Yield per-cell rows: (z, f, gamma0, gamma1, ratio, t_hold,
        log10_loss, status), with NaN numerics for non-ok cells."""
        for cell in self.cells:
            rec = cell.record()
            yield (rec["z"], rec["f"], *(rec.get(name, math.nan) for name in _ROW_NUMBERS),
                   rec["status"])

    def as_document(self) -> dict:
        """JSON-ready document: grid metadata plus per-cell records."""
        return {
            "z_grid": [float(z) for z in self.z_grid],
            "f_grid": [float(f) for f in self.f_grid],
            "residual_target": self.residual_target,
            "cells": [cell.record() for cell in self.cells],
        }


def _scan_block(task) -> list:
    """Map cells of one block of bound trap shapes, scanned in lock step.

    task is (specs, residual_target).  Each cell is the ok cell of its
    culling_point, or an error cell with the note of culling_point's
    TrapShapeError or NumericalError; any other exception propagates.
    When the block's scan raises NumericalError, its traps are scanned
    again one by one, so a failing trap spoils only its own cell.
    """
    specs, residual_target = task
    windows = [scan_window(spec) for spec in specs]
    try:
        scans = scan_spectra([(spec, *window) for spec, window in zip(specs, windows)])
    except NumericalError:
        scans = [None] * len(specs)
    cells = []
    for spec, window, scanned in zip(specs, windows, scans):
        try:
            if scanned is None:
                scanned = scan_spectrum(spec, *window)
            cell = MapCell(spec.size, spec.tilt, STATUS_OK, _point(scanned, window, residual_target))
        except (TrapShapeError, NumericalError) as exc:
            cell = MapCell(spec.size, spec.tilt, STATUS_ERROR, note=f"{type(exc).__name__}: {exc}")
        cells.append(cell)
    return cells


def fidelity_map(
    z_range: tuple[float, float],
    f_range: tuple[float, float],
    nz: int,
    nf: int,
    residual_target: float = RESIDUAL_DEFAULT,
    workers: int = 1,
) -> FidelityMap:
    """culling_point over a (size, tilt) grid.

    Cells whose estimated excited level is unbound are flagged out of range
    without scanning.  The bound cells are split into interleaved blocks of
    at most MAP_BLOCK_CELLS, and each block is scanned in lock step
    (scattering.scan_spectra); every cell's point equals culling_point's
    bit for bit.  Cells where culling_point would raise TrapShapeError or
    NumericalError carry an error status and its message: a block whose
    scan raises NumericalError is scanned again trap by trap, so one
    failing trap spoils only its own cell.  Any other exception
    propagates.  The map holds one MapCell per grid point in row
    order, so the output is identical for any worker count.

    Parameters
    ----------
    z_range, f_range : (float, float)
        Inclusive ranges, low to high; every (z, f) combination must
        satisfy the trap validity constraint tilt < size/2.
    nz, nf : int
        Grid sizes, >= 1.
    residual_target : float
        Excited-state residual the holding time is chosen against.
    workers : int
        Process count for the sweep, >= 1; 1 runs in-process.  At most
        one process per block and per CPU this process may run on (its
        affinity set, else every CPU of the host) is started, each
        scanning whole blocks; a grid without a bound cell starts none.
        Before starting the pool the parent imports scipy.optimize, which
        nothing else imports until the first fit: forked workers inherit
        it, so no worker of a pooled map pays that import again.
    """
    check_count("workers", workers, 1)
    check_count("nz", nz, 1)
    check_count("nf", nf, 1)
    if z_range[1] < z_range[0] or f_range[1] < f_range[0]:
        raise DomainError(f"ranges must run low to high, got {z_range}, {f_range}")
    _check_target(residual_target)
    z_grid = np.linspace(float(z_range[0]), float(z_range[1]), nz)
    f_grid = np.linspace(float(f_range[0]), float(f_range[1]), nf)
    specs = [TrapSpec(float(z), float(f)) for z in z_grid for f in f_grid]
    cells = [MapCell(spec.size, spec.tilt, STATUS_OUT_OF_RANGE) for spec in specs]
    bound = [k for k, spec in enumerate(specs) if excited_state_bound(spec)]
    n = len(bound)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(workers, n, cpus))
    # interleaved blocks, so each one mixes cells from the whole grid
    n_blocks = min(n, workers * math.ceil(n / (workers * MAP_BLOCK_CELLS)))
    blocks = [bound[b::n_blocks] for b in range(n_blocks)]
    tasks = [([specs[k] for k in block], residual_target) for block in blocks]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The workers fit, and forked workers inherit this process's
        # modules: imported once here, not once per worker per map.
        import scipy.optimize  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_scan_block, tasks, chunksize=1))
    else:
        done = [_scan_block(task) for task in tasks]
    for block, block_cells in zip(blocks, done):
        for k, cell in zip(block, block_cells):
            cells[k] = cell
    return FidelityMap(z_grid, f_grid, cells, residual_target)


def hold_and_restore_report(point: CullingPoint, units: UnitSystem) -> dict:
    """SI summary of one culling point's hold-and-restore budget.

    Converts the holding time and both lifetimes to seconds and attaches
    the static restore-stage bookkeeping: the lowered trap's depth against
    the threshold below which the slow-lowering treatment stops being
    trusted.  No dynamics is simulated for the raise.
    """
    geo = trap_geometry(TrapSpec(point.size, point.tilt))
    tau0 = 1.0 / point.gamma0
    tau1 = 1.0 / point.gamma1
    return {
        "z": point.size,
        "f": point.tilt,
        "gamma0": point.gamma0,
        "gamma1": point.gamma1,
        "lifetime_ratio": point.tau0_over_tau1,
        "t_hold": point.t_hold,
        "t_hold_si": units.time_to_si(point.t_hold),
        "tau0": tau0,
        "tau0_si": units.time_to_si(tau0),
        "tau1": tau1,
        "tau1_si": units.time_to_si(tau1),
        "excited_residual": math.exp(-point.gamma1 * point.t_hold),
        "ground_loss": point.ground_loss,
        "fidelity": point.fidelity,
        "log10_loss": point.log10_loss,
        "trap_depth": geo.depth,
        "restore_depth_threshold": RESTORE_DEPTH_THRESHOLD,
        "depth_above_restore_threshold": geo.depth > RESTORE_DEPTH_THRESHOLD,
        "restore_note": (
            "restore stage modeled statically: the depth is raised after the "
            "hold with no extra loss booked while the lowered depth stays "
            "above the threshold"
        ),
    }
