"""Harmonic-oscillator unit system and SI conversions.

Every solver in this package works in dimensionless oscillator units of a
reference harmonic trap of frequency omega for a particle of mass m:

    length  x0 = sqrt(hbar / (m omega))
    energy  e0 = hbar omega
    time    t0 = 1 / omega
    force   f0 = hbar omega / x0

A UnitSystem pins (m, omega) and converts between SI and dimensionless
values.  For a lithium-6 atom in a 2 pi x 1 kHz trap the oscillator length
is about 1.30 um, so a trap of size 8.8 um is 6.79 oscillator lengths and
a hold of 218 ms is about 1.37e3 trap time units.

Magnetic forces enter through force_from_gradient, which converts a field
gradient (T/m) acting on a magnetic moment (J/T) into newtons; the default
moment is one Bohr magneton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# CODATA 2018
HBAR = 1.054_571_817e-34            # J s
BOHR_MAGNETON = 9.274_010_0783e-24  # J / T
ATOMIC_MASS = 1.660_539_066_60e-27  # kg

LITHIUM6_MASS = 6.015_1228 * ATOMIC_MASS  # kg


@dataclass(frozen=True)
class UnitSystem:
    """Oscillator unit system for a particle of `mass` in a trap of `omega`.

    Parameters
    ----------
    mass : float
        Particle mass in kg, > 0.
    omega : float
        Trap angular frequency in rad/s, > 0.
    """

    mass: float
    omega: float

    def __post_init__(self):
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise DomainError(f"mass must be positive and finite, got {self.mass}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise DomainError(f"omega must be positive and finite, got {self.omega}")

    @property
    def length_scale(self) -> float:
        """Oscillator length sqrt(hbar / (m omega)) in meters."""
        return math.sqrt(HBAR / (self.mass * self.omega))

    @property
    def energy_scale(self) -> float:
        """Level spacing hbar omega in joules."""
        return HBAR * self.omega

    @property
    def time_scale(self) -> float:
        """Trap time unit 1/omega in seconds."""
        return 1.0 / self.omega

    @property
    def force_scale(self) -> float:
        """Force unit hbar omega / x0 in newtons."""
        return self.energy_scale / self.length_scale

    # SI -> dimensionless
    def length_to_dimensionless(self, meters: float) -> float:
        return meters / self.length_scale

    def time_to_dimensionless(self, seconds: float) -> float:
        return seconds / self.time_scale

    def force_to_dimensionless(self, newtons: float) -> float:
        return newtons / self.force_scale

    # dimensionless -> SI
    def length_to_si(self, value: float) -> float:
        return value * self.length_scale

    def time_to_si(self, value: float) -> float:
        return value * self.time_scale


def lithium6_system(omega: float) -> UnitSystem:
    """Unit system for a single lithium-6 atom at angular frequency omega."""
    return UnitSystem(mass=LITHIUM6_MASS, omega=omega)


def force_from_gradient(gradient_t_per_m: float, moment: float = BOHR_MAGNETON) -> float:
    """Force in newtons on a magnetic moment in a field gradient.

    Parameters
    ----------
    gradient_t_per_m : float
        Field gradient in tesla per meter (1 G/cm = 1e-2 T/m).
    moment : float
        Magnetic moment in J/T; defaults to one Bohr magneton.
    """
    if not math.isfinite(gradient_t_per_m):
        raise DomainError("gradient must be finite")
    if not (moment > 0.0 and math.isfinite(moment)):
        raise DomainError(f"moment must be positive and finite, got {moment}")
    return moment * gradient_t_per_m


GAUSS_PER_CM = 1e-2  # T/m per (G/cm)
