"""Trap and double-well potentials: closed forms, continuity, geometry."""

import math

import numpy as np
import pytest

from atomprep.errors import DegenerateTrapError, DomainError
from atomprep.potential import (
    TrapSpec,
    eval_double_well,
    eval_trap,
    trap_geometry,
)

# grid of valid shapes reused by the property tests
SHAPES = [(4.4, 0.5), (4.0, 0.3), (5.2, 0.7), (12.0, 0.01), (2.5, 1.1), (8.0, 0.0)]


class TestTrapSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            TrapSpec(0.0, 0.1)
        with pytest.raises(DomainError):
            TrapSpec(-4.0, 0.1)
        with pytest.raises(DomainError):
            TrapSpec(4.0, -0.1)
        with pytest.raises(DegenerateTrapError):
            TrapSpec(4.0, 2.0)  # tilt = size/2 leaves no interior minimum
        with pytest.raises(DegenerateTrapError):
            TrapSpec(4.0, 2.5)

    def test_edge(self):
        assert TrapSpec(4.4, 0.5).edge == -2.2


class TestEvalTrap:
    def test_interior_minimum(self):
        assert eval_trap(TrapSpec(4.4, 0.5), -0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_edge_value_from_both_branches(self):
        spec = TrapSpec(4.4, 0.5)
        inner = eval_trap(spec, -2.2)
        outer = eval_trap(spec, np.nextafter(-2.2, -np.inf))
        assert inner == pytest.approx(1.32, abs=1e-12)
        assert outer == pytest.approx(inner, abs=1e-12)

    def test_flat_shelf_at_zero_tilt(self):
        spec = TrapSpec(4.4, 0.0)
        assert eval_trap(spec, -50.0) == pytest.approx(4.4**2 / 8.0, rel=1e-15)
        assert eval_trap(spec, -5000.0) == pytest.approx(4.4**2 / 8.0, rel=1e-15)

    def test_array_input(self):
        spec = TrapSpec(4.4, 0.5)
        x = np.array([-3.0, -2.2, 0.0, 1.5])
        v = eval_trap(spec, x)
        assert v.shape == x.shape
        assert v[2] == 0.0
        assert v[3] == pytest.approx(1.5**2 / 2.0 + 0.5 * 1.5, rel=1e-15)

    @pytest.mark.parametrize("z,f", SHAPES)
    def test_continuity_at_edge(self, z, f):
        e = -0.5 * z
        interior = e * e / 2.0 + f * e
        exterior = z * z / 8.0 + f * e
        assert abs(interior - exterior) < 1e-14 * max(1.0, abs(interior))

    @pytest.mark.parametrize("z,f", SHAPES)
    def test_exterior_slope_is_tilt(self, z, f):
        spec = TrapSpec(z, f)
        x1, x2 = spec.edge - 3.0, spec.edge - 1.0
        slope = (eval_trap(spec, x2) - eval_trap(spec, x1)) / (x2 - x1)
        assert slope == pytest.approx(f, abs=1e-12)


class TestTrapGeometry:
    def test_reference_shape(self):
        geo = trap_geometry(TrapSpec(4.4, 0.5))
        assert geo.edge_height == pytest.approx(1.32, abs=1e-12)
        assert geo.depth == pytest.approx((2.2 - 0.5) ** 2 / 2.0, abs=1e-12)

    def test_zero_tilt(self):
        geo = trap_geometry(TrapSpec(4.4, 0.0))
        assert geo.depth == geo.edge_height
        assert geo.depth == pytest.approx(2.42, abs=1e-12)

    def test_degenerate_limit(self):
        eps = 1e-3
        geo = trap_geometry(TrapSpec(2.0 + eps, 1.0))
        assert geo.depth == pytest.approx(eps * eps / 8.0, rel=1e-9)

    @pytest.mark.parametrize("z,f", SHAPES)
    def test_depth_identity(self, z, f):
        # the well minimum -f^2/2 lies depth below the barrier top
        geo = trap_geometry(TrapSpec(z, f))
        assert abs(geo.depth - (geo.edge_height + 0.5 * f * f)) < 1e-14

    @pytest.mark.parametrize("z,f", [(4.4, 0.5), (4.0, 0.3), (5.2, 0.7), (2.5, 1.1)])
    def test_edge_is_local_maximum(self, z, f):
        spec = TrapSpec(z, f)
        top = eval_trap(spec, spec.edge)
        for delta in (0.005, 0.002):
            assert eval_trap(spec, spec.edge - delta) < top
            assert eval_trap(spec, spec.edge + delta) < top


class TestDoubleWell:
    def test_collapses_to_harmonic(self):
        x = np.linspace(-4.0, 4.0, 41)
        assert np.allclose(eval_double_well(0.0, 0.0, x), 0.5 * x * x, atol=1e-15)

    def test_cusp_height(self):
        assert eval_double_well(4.0, 0.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_tilted_minima(self):
        assert eval_double_well(4.0, 0.1, 2.0) == pytest.approx(0.2, abs=1e-14)
        assert eval_double_well(4.0, 0.1, -2.0) == pytest.approx(-0.2, abs=1e-14)

    def test_cusp_continuity(self):
        for d in (1.0, 4.0, 7.3):
            left = eval_double_well(d, 0.2, np.nextafter(0.0, -1.0))
            right = eval_double_well(d, 0.2, 0.0)
            assert right == pytest.approx(d * d / 8.0, rel=1e-14)
            assert left == pytest.approx(right, abs=1e-14)

    def test_symmetry_without_tilt(self):
        x = np.linspace(0.0, 6.0, 601)
        for d in (0.0, 2.0, 4.82):
            assert np.max(np.abs(eval_double_well(d, 0.0, x) - eval_double_well(d, 0.0, -x))) < 1e-14

    @pytest.mark.parametrize("d,f", [(4.82, 0.12), (3.0, -0.16), (0.0, 0.0), (7.3, 0.2)])
    def test_bitwise_equal_to_two_branch_formula(self, d, f):
        half = 0.5 * d

        def two_branch(x):
            return np.where(x < 0.0, 0.5 * (x + half) ** 2, 0.5 * (x - half) ** 2) + f * x

        x = np.concatenate([np.linspace(-9.0, 9.0, 2113), [-0.0, 0.0, -half, half]])
        got, want = eval_double_well(d, f, x), two_branch(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for point in (-0.0, 0.0, -half, half, -1.3, 2.7):
            got, want = eval_double_well(d, f, point), float(two_branch(np.float64(point)))
            assert isinstance(got, float)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_validation(self):
        with pytest.raises(DomainError):
            eval_double_well(-1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            eval_double_well(1.0, math.nan, 0.0)
