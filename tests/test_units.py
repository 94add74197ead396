"""Oscillator unit system: anchors, conversions, round trips, covariance."""

import math

import pytest

from atomprep.errors import DomainError
from atomprep.units import (
    BOHR_MAGNETON,
    GAUSS_PER_CM,
    HBAR,
    UnitSystem,
    force_from_gradient,
    lithium6_system,
)

OMEGA_1KHZ = 2.0 * math.pi * 1000.0

# Oracle values recomputed here from the raw constants, independently of
# the module's property implementations.
_M_LI6 = 6.0151228 * 1.66053906660e-27
_X0_LI6 = math.sqrt(1.054571817e-34 / (_M_LI6 * OMEGA_1KHZ))


class TestScales:
    def test_lithium6_length_scale(self):
        u = lithium6_system(OMEGA_1KHZ)
        assert u.length_scale == pytest.approx(_X0_LI6, rel=1e-12)
        assert u.length_scale == pytest.approx(1.296e-6, rel=1e-3)

    def test_unit_mass_gives_unit_length(self):
        # mass = hbar (kg) with omega = 1 makes x0 = sqrt(hbar/(hbar*1)) = 1
        u = UnitSystem(mass=HBAR, omega=1.0)
        assert u.length_scale == 1.0
        assert u.time_scale == 1.0

    def test_time_scale(self):
        u = lithium6_system(OMEGA_1KHZ)
        assert u.time_scale == pytest.approx(1.0 / OMEGA_1KHZ, rel=1e-15)
        assert u.time_scale == pytest.approx(1.5915e-4, rel=1e-3)

    def test_energy_and_force_scales(self):
        u = lithium6_system(OMEGA_1KHZ)
        assert u.energy_scale == pytest.approx(1.054571817e-34 * OMEGA_1KHZ, rel=1e-12)
        assert u.force_scale == pytest.approx(u.energy_scale / u.length_scale, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            UnitSystem(mass=0.0, omega=1.0)
        with pytest.raises(DomainError):
            UnitSystem(mass=1.0, omega=-2.0)
        with pytest.raises(DomainError):
            UnitSystem(mass=math.nan, omega=1.0)


class TestForceFromGradient:
    def test_zero_gradient(self):
        assert force_from_gradient(0.0) == 0.0

    def test_reference_gradient(self):
        # 0.66 G/cm on one Bohr magneton, expressed in trap force units
        u = lithium6_system(OMEGA_1KHZ)
        newtons = force_from_gradient(0.66 * GAUSS_PER_CM)
        f = u.force_to_dimensionless(newtons)
        assert newtons == pytest.approx(9.2740100783e-24 * 0.66e-2, rel=1e-12)
        assert f == pytest.approx(0.120, rel=5e-3)
        assert f == pytest.approx(0.119744842857, rel=1e-9)

    def test_moment_linearity(self):
        full = force_from_gradient(0.5, moment=BOHR_MAGNETON)
        half = force_from_gradient(0.5, moment=0.5 * BOHR_MAGNETON)
        assert half == pytest.approx(0.5 * full, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            force_from_gradient(math.inf)
        with pytest.raises(DomainError):
            force_from_gradient(1.0, moment=0.0)


class TestConversions:
    def test_reference_length(self):
        u = lithium6_system(OMEGA_1KHZ)
        assert u.length_to_dimensionless(8.8e-6) == pytest.approx(6.79, rel=2e-3)
        assert u.length_to_dimensionless(8.8e-6) == pytest.approx(
            8.8e-6 / _X0_LI6, rel=1e-12
        )

    def test_own_scale_maps_to_one(self):
        u = lithium6_system(OMEGA_1KHZ)
        assert u.length_to_dimensionless(u.length_scale) == pytest.approx(1.0, rel=1e-15)

    def test_reference_time(self):
        u = lithium6_system(OMEGA_1KHZ)
        assert u.time_to_dimensionless(0.218) == pytest.approx(1370.0, rel=1e-3)
        assert u.time_to_dimensionless(0.218) == pytest.approx(
            0.218 * OMEGA_1KHZ, rel=1e-12
        )

    @pytest.mark.parametrize("value", [1e-9, 3.7, 42.0])
    def test_round_trips(self, value):
        u = lithium6_system(OMEGA_1KHZ)
        for fwd, back in (
            (u.length_to_dimensionless, u.length_to_si),
            (u.time_to_dimensionless, u.time_to_si),
        ):
            assert back(fwd(value)) == pytest.approx(value, rel=1e-12)
            assert fwd(back(value)) == pytest.approx(value, rel=1e-12)


def test_scaling_covariance():
    # doubling omega: time unit halves, energy unit doubles, length /sqrt(2)
    base = UnitSystem(mass=3.2e-27, omega=5000.0)
    fast = UnitSystem(mass=3.2e-27, omega=10000.0)
    assert fast.time_scale == pytest.approx(0.5 * base.time_scale, rel=1e-14)
    assert fast.energy_scale == pytest.approx(2.0 * base.energy_scale, rel=1e-14)
    assert fast.length_scale == pytest.approx(base.length_scale / math.sqrt(2.0), rel=1e-14)
