"""Single-atom trap preparation toolkit.

Simulates the three stages of deterministic single-atom preparation in a
tilted optical micro-trap: occupancy estimates for the source Fermi gas
(dfg), spectroscopy of the quasi-bound trap levels and the tilt-culling
hold that removes all but the ground atom (scattering, resonance, culling,
tdse), and adiabatic splitting of a loaded well into a qubit pair
(splitting, tdse).  All solvers work in dimensionless oscillator units
(units converts to and from SI).
"""

from .errors import (
    ConfigurationError,
    DegenerateTrapError,
    DomainError,
    NumericalError,
    PathNotFoundError,
    TrapShapeError,
    WidthUnresolvedError,
)
from .potential import TrapSpec, TrapGeometry, eval_trap, eval_double_well, trap_geometry
from .units import UnitSystem, force_from_gradient, lithium6_system

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DegenerateTrapError",
    "DomainError",
    "NumericalError",
    "PathNotFoundError",
    "TrapShapeError",
    "WidthUnresolvedError",
    "TrapSpec",
    "TrapGeometry",
    "eval_trap",
    "eval_double_well",
    "trap_geometry",
    "UnitSystem",
    "force_from_gradient",
    "lithium6_system",
    "__version__",
]
