"""Trap potentials in oscillator units.

The single-atom trap is a harmonic well of unit frequency, truncated on the
downhill side and tilted by a constant force:

    V(x) = x^2 / 2 + tilt * x          for x >= -size/2   (interior)
    V(x) = size^2 / 8 + tilt * x       for x <  -size/2   (exterior ramp)

`size` is the width of the parabolic section in oscillator lengths and
`tilt` the dimensionless force.  The two branches join continuously at the
edge x = -size/2, which is the top of the escape barrier; beyond it the
potential falls linearly, so every interior level is quasi-bound.

The split trap used for qubit pair creation is a mirrored pair of
harmonic wells with a cusp at the origin:

    V(x) = (x + sep/2)^2 / 2 + tilt * x   for x < 0
    V(x) = (x - sep/2)^2 / 2 + tilt * x   for x >= 0

with barrier height sep^2/8 at x = 0.  Solvers treat one tilt sign; the
opposite sign follows from the mirror map x -> -x, tilt -> -tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrapError, DomainError


@dataclass(frozen=True)
class TrapSpec:
    """Truncated tilted trap parameters.

    size : float
        Width of the parabolic section, > 0.
    tilt : float
        Dimensionless force, >= 0 and < size/2 (the well minimum must sit
        inside the parabolic section).
    """

    size: float
    tilt: float

    def __post_init__(self):
        if not (math.isfinite(self.size) and self.size > 0.0):
            raise DomainError(f"size must be positive, got {self.size}")
        if not (math.isfinite(self.tilt) and self.tilt >= 0.0):
            raise DomainError(f"tilt must be >= 0, got {self.tilt}")
        if not self.tilt < 0.5 * self.size:
            raise DegenerateTrapError(
                f"tilt {self.tilt} must be < size/2 = {0.5 * self.size}; "
                "the well minimum would leave the parabolic section"
            )

    @property
    def edge(self) -> float:
        """Position of the barrier top, -size/2."""
        return -0.5 * self.size


@dataclass(frozen=True)
class TrapGeometry:
    """Derived landmarks of a truncated tilted trap.

    minimum_position : float
        Location of the well minimum, -tilt.
    minimum_energy : float
        Potential at the minimum, -tilt^2/2.
    edge_position : float
        Barrier top location, -size/2.
    edge_height : float
        Potential at the barrier top, size^2/8 - tilt*size/2.
    depth : float
        edge_height - minimum_energy = (size/2 - tilt)^2 / 2.
    """

    minimum_position: float
    minimum_energy: float
    edge_position: float
    edge_height: float
    depth: float


def eval_trap(spec: TrapSpec, x) -> np.ndarray | float:
    """Evaluate the truncated tilted trap potential at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    interior = 0.5 * x * x + spec.tilt * x
    exterior = spec.size * spec.size / 8.0 + spec.tilt * x
    v = np.where(x >= spec.edge, interior, exterior)
    return v if v.ndim else float(v)


def trap_geometry(spec: TrapSpec) -> TrapGeometry:
    """Landmarks of the trap; depth identity holds to rounding."""
    half = 0.5 * spec.size
    edge_height = half * half / 2.0 - spec.tilt * half
    minimum_energy = -0.5 * spec.tilt * spec.tilt
    return TrapGeometry(
        minimum_position=-spec.tilt,
        minimum_energy=minimum_energy,
        edge_position=-half,
        edge_height=edge_height,
        depth=edge_height - minimum_energy,
    )


def eval_double_well(separation: float, tilt: float, x) -> np.ndarray | float:
    """Evaluate the cusp-joined double well at x (scalar or array).

    separation >= 0 is the distance between well centers; tilt is the
    dimensionless force.  separation = 0 recovers the single tilted well.
    """
    if not (math.isfinite(separation) and separation >= 0.0):
        raise DomainError(f"separation must be >= 0, got {separation}")
    if not math.isfinite(tilt):
        raise DomainError(f"tilt must be finite, got {tilt}")
    x = np.asarray(x, dtype=float)
    half = 0.5 * separation
    # For x < 0, |x| - half rounds to exactly -(x + half): one branch
    # gives both wells.
    v = 0.5 * (np.abs(x) - half) ** 2 + tilt * x
    return v if v.ndim else float(v)
