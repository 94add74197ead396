"""Special-function layer checked against closed forms and mpmath oracles.

Every numeric expectation here is either a textbook closed form or an
independent high-precision evaluation (mpmath at 40 digits); nothing is
compared against the module's own backend.
"""

import math

import mpmath
import numpy as np
import pytest

from atomprep import specfun as sf
from atomprep.errors import DomainError

mpmath.mp.dps = 40


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _h(degree, x):
    return sf.hermite_pair(degree, x)[0]


def _dh(degree, x):
    return sf.hermite_pair(degree, x)[1]


def _mp_scaled(s: float, chi: float) -> tuple:
    # mpmath's pair at s, scaled by exp(+-chi) for the chi returned
    x, c = mpmath.mpf(s), mpmath.mpf(chi)
    return (mpmath.airyai(x) * mpmath.exp(c), mpmath.airyai(x, 1) * mpmath.exp(c),
            mpmath.airybi(x) * mpmath.exp(-c), mpmath.airybi(x, 1) * mpmath.exp(-c))


def _wronskian_residual(pair):
    # the scaled pair's Wronskian: the exp(+-chi) factors cancel
    return pair.ai_e * pair.bip_e - pair.aip_e * pair.bi_e - 1.0 / math.pi


class TestAiry:
    """Oracles for airy_scaled, the Airy pair the matcher runs."""

    def test_closed_forms_at_zero(self):
        pair = sf.airy_scaled(0.0)
        ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        bi0 = 3.0 ** (-1.0 / 6.0) / math.gamma(2.0 / 3.0)
        assert pair.chi == 0.0
        assert _rel(pair.ai_e, ai0) < 1e-14
        assert _rel(pair.bi_e, bi0) < 1e-14
        assert abs(pair.ai_e - 0.3550280539) < 1e-10
        assert abs(pair.bi_e - 0.6149266274) < 1e-10
        # derivatives at zero: -3^(-1/3)/Gamma(1/3) and 3^(1/6)/Gamma(1/3)
        assert _rel(pair.aip_e, -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)) < 1e-14
        assert _rel(pair.bip_e, 3.0 ** (1.0 / 6.0) / math.gamma(1.0 / 3.0)) < 1e-14

    def test_maclaurin_series_oracle_at_one(self):
        # Ai(s) = Ai(0) f(s) + Ai'(0) g(s), 30 terms of each series
        ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
        s = 1.0
        f_term, g_term = 1.0, s
        f_sum, g_sum = f_term, g_term
        for k in range(1, 30):
            f_term *= s**3 * (3.0 * k - 2.0) / ((3.0 * k) * (3.0 * k - 1.0) * (3.0 * k - 2.0))
            g_term *= s**3 * (3.0 * k - 1.0) / ((3.0 * k + 1.0) * (3.0 * k) * (3.0 * k - 1.0))
            f_sum += f_term
            g_sum += g_term
        oracle = ai0 * f_sum + aip0 * g_sum
        pair = sf.airy_scaled(s)
        ai = pair.ai_e * math.exp(-pair.chi)
        assert _rel(ai, oracle) < 1e-12
        assert abs(ai - 0.1352924163) < 1e-9

    @pytest.mark.parametrize("s", [-199.0, -45.3, -12.7, -3.2, -0.7, 0.4, 2.9, 8.0, 41.0, 102.5])
    def test_against_mpmath(self, s):
        # s <= 0 (chi = 0) compares the plain values; s > 0 the scaled ones
        pair = sf.airy_scaled(s)
        for got, ref in zip(pair[:4], _mp_scaled(s, pair.chi)):
            ref = float(ref)
            scale = max(abs(ref), 1e-30)
            assert abs(got - ref) / scale < 1e-10

    def test_wronskian_grid(self):
        grid = np.linspace(-20.0, 20.0, 1000)
        resid = _wronskian_residual(sf.airy_scaled(grid))
        assert resid.shape == grid.shape
        assert np.max(np.abs(resid)) <= 1e-12

    def test_wronskian_from_pair(self):
        for s in (-17.2, -4.4, 0.0, 1.32, 6.5, 19.9):
            assert abs(_wronskian_residual(sf.airy_scaled(s))) <= 1e-12

    @pytest.mark.parametrize("s", [-200.5, math.inf, math.nan])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            sf.airy_scaled(s)

    def test_boundary_arguments_accepted(self):
        assert math.isfinite(sf.airy_scaled(200.0).ai_e)
        assert math.isfinite(sf.airy_scaled(-200.0).ai_e)


class TestAiryScaled:
    def test_matches_plain_in_overlap(self):
        # unscaled, the pair is mpmath's where the plain values are
        # representable
        for s in (0.5, 4.0, 20.0, 60.0):
            scaled = sf.airy_scaled(s)
            grow, decay = math.exp(scaled.chi), math.exp(-scaled.chi)
            plain = (mpmath.airyai(s), mpmath.airyai(s, 1), mpmath.airybi(s), mpmath.airybi(s, 1))
            for value, factor, ref in zip(scaled[:4], (decay, decay, grow, grow), plain):
                assert _rel(value * factor, float(ref)) < 1e-12

    def test_chi_is_airy_phase_exponent(self):
        for s in (1.0, 9.0, 400.0):
            assert _rel(sf.airy_scaled(s).chi, (2.0 / 3.0) * s**1.5) < 1e-14

    def test_log_values_at_large_argument(self):
        # far beyond the overflow range of the plain pair
        s = 400.0
        scaled = sf.airy_scaled(s)
        log_ai = math.log(scaled.ai_e) - scaled.chi
        log_bi = math.log(scaled.bi_e) + scaled.chi
        assert _rel(log_ai, float(mpmath.log(mpmath.airyai(s)))) < 1e-12
        assert _rel(log_bi, float(mpmath.log(mpmath.airybi(s)))) < 1e-12

    def test_negative_side_unscaled(self):
        scaled = sf.airy_scaled(-3.7)
        assert scaled.chi == 0.0
        assert _rel(scaled.ai_e, float(mpmath.airyai(-3.7))) < 1e-13
        assert _rel(scaled.bip_e, float(mpmath.airybi(-3.7, 1))) < 1e-13

    def test_negative_domain_still_bounded(self):
        with pytest.raises(DomainError):
            sf.airy_scaled(-200.5)
        with pytest.raises(DomainError):
            sf.airy_scaled(np.array([1.0, -200.5]))

    def test_array_equals_scalar_calls(self):
        # each element takes the route of its own range: the plain pair
        # at s <= 0, the scaled plain pair up to AIRY_CEPHES_MAX and airye
        # beyond; the scan's float path and array path must agree bit
        # for bit, so the map's argument range is sampled densely
        edge = sf.AIRY_CEPHES_MAX
        special = [-7.5, -0.3, 0.0, 0.02, 3.1, 9.999, edge, 10.001, 60.0, 400.0]
        s = np.concatenate((special, np.random.default_rng(26).uniform(-0.71, 7.34, 1200)))
        pair = np.array(sf.airy_scaled(s))
        scalar = np.array([tuple(sf.airy_scaled(float(x))) for x in s]).T
        assert pair.tobytes() == scalar.tobytes()

    def test_scaled_pair_against_mpmath_across_routes(self):
        # (0, 12] spans the switch at AIRY_CEPHES_MAX = 10; measured worst
        # 1.2e-14 on the plain (Cephes) route and 3.2e-14 on airye (AMOS)
        for s in np.linspace(0.0, 12.0, 241)[1:].tolist():
            got = sf.airy_scaled(s)
            bound = 2e-14 if s <= sf.AIRY_CEPHES_MAX else 5e-14
            for value, ref in zip(got[:4], _mp_scaled(s, got.chi)):
                assert float(abs((value - ref) / ref)) < bound, s

    def test_continuous_at_route_switch(self):
        # the relative step of each field across 10 +- 1e-9 is the true
        # one (about 5e-11) to within the two routes' rounding
        below, above = sf.AIRY_CEPHES_MAX - 1e-9, sf.AIRY_CEPHES_MAX + 1e-9
        lo, hi = sf.airy_scaled(below), sf.airy_scaled(above)
        want_lo, want_hi = _mp_scaled(below, lo.chi), _mp_scaled(above, hi.chi)
        for k in range(4):
            step = hi[k] / lo[k] - 1.0
            assert abs(step - float(want_hi[k] / want_lo[k] - 1)) < 1e-13


class TestHermite:
    @pytest.mark.parametrize("x", [0.0, 1.0, 2.5])
    def test_degree_two_polynomial(self, x):
        want = 4.0 * x * x - 2.0
        assert abs(_h(2.0, x) - want) < 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("x", [-9.0, -1.3, 0.0, 0.4, 7.7])
    def test_degree_zero_is_one(self, x):
        assert _h(0.0, x) == pytest.approx(1.0, rel=1e-12)

    def test_real_degree_against_defining_combination(self):
        # independent evaluation of the M/Gamma combination at 40 digits
        nu, x = 3.5, 1.2
        with mpmath.workdps(40):
            combo = (
                mpmath.mpf(2) ** nu
                * mpmath.sqrt(mpmath.pi)
                * (
                    mpmath.hyp1f1(-nu / 2, mpmath.mpf(1) / 2, x * x)
                    / mpmath.gamma((1 - nu) / 2)
                    - 2
                    * x
                    * mpmath.hyp1f1((1 - nu) / 2, mpmath.mpf(3) / 2, x * x)
                    / mpmath.gamma(-nu / 2)
                )
            )
        assert _rel(_h(nu, x), float(combo)) < 1e-9

    @pytest.mark.parametrize(
        "nu,x",
        [(0.5, 0.3), (2.3, -3.0), (2.3, 3.0), (7.5, 1.1), (12.0, -2.0), (-0.8, 0.6)],
    )
    def test_against_mpmath_hermite(self, nu, x):
        want = float(mpmath.hermite(nu, x))
        assert _rel(_h(nu, x), want) < 1e-9

    def test_integer_recurrence(self):
        # H_{n+1} = 2x H_n - 2n H_{n-1}, degrees 0..10 across the x range
        xs = np.linspace(-10.0, 10.0, 41)
        for n in range(1, 10):
            for x in xs:
                h_prev = _h(float(n - 1), float(x))
                h_here = _h(float(n), float(x))
                h_next = _h(float(n + 1), float(x))
                want = 2.0 * x * h_here - 2.0 * n * h_prev
                scale = max(abs(h_next), abs(2.0 * x * h_here), abs(2.0 * n * h_prev), 1.0)
                assert abs(h_next - want) / scale < 1e-10

    @pytest.mark.parametrize("nu", [0.3, 1.7, 3.5])
    def test_real_degree_recurrence(self, nu):
        for x in np.linspace(-5.0, 5.0, 21):
            h_prev = _h(nu - 1.0, float(x))
            h_here = _h(nu, float(x))
            h_next = _h(nu + 1.0, float(x))
            resid = h_next - 2.0 * x * h_here + 2.0 * nu * h_prev
            scale = max(abs(h_next), abs(2.0 * x * h_here), abs(2.0 * nu * h_prev), 1.0)
            assert abs(resid) / scale <= 1e-8

    @pytest.mark.parametrize("nu", [0.5, 2.3])
    def test_gaussian_weighted_tail_decays(self, nu):
        start = math.sqrt(2.0 * nu + 1.0) + 2.0
        xs = np.arange(start, 15.0, 0.25)
        vals = [abs(math.exp(-0.5 * x * x) * _h(nu, float(x))) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.hermite_pair(-1.2, 0.0)
        with pytest.raises(DomainError):
            sf.hermite_pair(30.5, 0.0)
        with pytest.raises(DomainError):
            sf.hermite_pair(2.0, 15.5)
        with pytest.raises(DomainError):
            sf.hermite_pair(math.nan, 0.0)


class TestHermiteArrays:
    def test_array_calls_equal_scalar_calls(self):
        # degrees on both sides of 0 (the two derivative forms), x on both
        # routes and a degree that climbs the U-route recurrence
        degree = np.array([-0.6, -0.01, 0.0, 0.325, 2.0, 7.4, 7.4])
        x = np.array([-2.1, -1.7, 0.4, -0.2, 1.3, 3.0, -3.0])
        h, dh = sf.hermite_pair(degree, x)
        for i in range(len(x)):
            assert h[i] == _h(float(degree[i]), float(x[i]))
            assert dh[i] == _dh(float(degree[i]), float(x[i]))

    def test_scalar_degree_broadcasts_over_x(self):
        x = np.linspace(-4.0, 4.0, 41)
        h = _h(3.5, x)
        assert h.shape == x.shape
        assert all(h[i] == _h(3.5, float(v)) for i, v in enumerate(x))

    def test_array_domain_checked(self):
        with pytest.raises(DomainError):
            sf.hermite_pair(np.array([0.5, 31.0]), 0.0)
        with pytest.raises(DomainError):
            sf.hermite_pair(1.0, np.array([0.0, math.nan]))


class TestHermiteDeriv:
    def test_polynomial_derivative(self):
        # d/dx (4x^2 - 2) = 8x
        assert _rel(_dh(2.0, 1.0), 8.0) < 1e-12

    @pytest.mark.parametrize("x", [-3.0, 0.0, 1.2, 9.5])
    def test_degree_zero_derivative_vanishes(self, x):
        assert abs(_dh(0.0, x)) < 1e-12

    def test_central_difference_oracle(self):
        nu, x, h = 1.7, 0.5, 1e-5
        fd = (_h(nu, x + h) - _h(nu, x - h)) / (2.0 * h)
        assert _rel(_dh(nu, x), fd) < 1e-6

    @pytest.mark.parametrize("nu,x", [(0.8, -1.1), (3.5, 2.2), (12.0, 0.7)])
    def test_downward_identity(self, nu, x):
        want = 2.0 * nu * float(mpmath.hermite(nu - 1.0, x))
        assert _rel(_dh(nu, x), want) < 1e-8

    def test_bottom_of_degree_range_uses_upward_form(self):
        # degree -1 cannot recurse downward; identity 2x H_nu - H_{nu+1}
        nu, x = -1.0, 0.9
        want = 2.0 * x * float(mpmath.hermite(nu, x)) - float(mpmath.hermite(nu + 1.0, x))
        assert abs(_dh(nu, x) - want) < 1e-8 * max(1.0, abs(want))

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.hermite_pair(-1.2, 0.0)
        with pytest.raises(DomainError):
            sf.hermite_pair(2.0, -15.5)
