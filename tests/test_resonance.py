"""Lineshape fitting and survival laws.

The Lorentzian fitter is exercised on a hand-built spectrum sampled from
an exact Lorentzian (recovery to 1e-6), on the reference trap (residual
ordering, phase-slope agreement), and against the time-domain decay
oracle; the fits themselves equal scipy's curve_fit bit for bit.
Survival checks compare the spectral transform with the closed
exponential at several times and document the Fourier truncation bound.
"""

import dataclasses
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeWarning, curve_fit

from atomprep import cli, resonance, scattering
from atomprep.culling import culling_point
from atomprep.errors import DomainError, NumericalError, WidthUnresolvedError
from atomprep.potential import TrapSpec, trap_geometry
from atomprep.resonance import (
    fit_lorentzian,
    phase_slope_width,
    survival_exponential,
    survival_from_spectrum,
)
from atomprep.scattering import Peak, Spectrum, interior_wave, match_amplitude, scan_spectrum
from atomprep.tdse import decay_run, uniform_grid, truncated_resonance_state

FIG = TrapSpec(4.4, 0.5)


def _synthetic_lorentzian(e0=0.4, gamma=1e-3, amp=1.0, background=0.0):
    energies = np.linspace(0.35, 0.45, 2001)
    half = 0.5 * gamma
    responses = amp * half * half / ((energies - e0) ** 2 + half * half) + background
    peak = Peak(
        center=e0,
        resolved=True,
        width_estimate=gamma,
        territory=(float(energies[0]), float(energies[-1])),
    )
    return Spectrum(
        trap=FIG,
        energies=energies,
        log_responses=np.log(responses),
        phases=np.zeros_like(energies),
        peaks=(peak,),
    )


class TestFitLorentzian:
    def test_recovers_exact_lorentzian(self):
        sp = _synthetic_lorentzian()
        res = fit_lorentzian(sp, 0)
        assert res.e0 == pytest.approx(0.4, rel=1e-6)
        assert res.gamma == pytest.approx(1e-3, rel=1e-6)
        assert res.log_amplitude == pytest.approx(0.0, abs=1e-6)
        assert res.fit_residual_lorentz < 1e-8
        assert res.fit_residual_lorentz < res.fit_residual_gauss

    def test_recovers_with_background(self):
        sp = _synthetic_lorentzian(background=0.05)
        res = fit_lorentzian(sp, 0)
        assert res.gamma == pytest.approx(1e-3, rel=1e-5)
        # the unit line height above the background, and a residual that
        # an unfitted background of 0.05 would leave far above 1e-8
        assert res.log_amplitude == pytest.approx(0.0, abs=1e-6)
        assert res.fit_residual_lorentz < 1e-8

    def test_line_taller_than_the_float_range(self):
        # a peak response of e^800 overflows a float; the fit runs in
        # peak-scaled units and the record keeps only its logarithm
        sp = _synthetic_lorentzian()
        sp = dataclasses.replace(sp, log_responses=sp.log_responses + 800.0)
        res = fit_lorentzian(sp, 0)
        assert res.gamma == pytest.approx(1e-3, rel=1e-6)
        assert res.log_amplitude == pytest.approx(800.0, abs=1e-6)

    def test_reference_ground_peak(self, ground_res):
        assert ground_res.e0 == pytest.approx(0.366, abs=0.015)
        assert ground_res.tau == pytest.approx(1.0 / ground_res.gamma, rel=1e-12)
        # lineshape ordering seen in the reference trap
        assert ground_res.fit_residual_lorentz < ground_res.fit_residual_gauss

    def test_reference_excited_peak(self, excited_res):
        assert excited_res.e0 == pytest.approx(1.29, abs=0.03)
        assert excited_res.tau == pytest.approx(1.0 / excited_res.gamma, rel=1e-12)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_out_of_range(self, fig_spectrum, index):
        # -1 must not fit the last peak
        message = "out of range" if index >= 0 else "at least 0, got -1"
        with pytest.raises(DomainError, match=message):
            fit_lorentzian(fig_spectrum, index)

    def test_phase_slope_too_steep_for_probe_step(self, monkeypatch):
        # probes ordered (e0 +- h, e0 + far, e0 + near, e0 - near, e0 - far):
        # a central phase step of 3.14 rad and falling background secants
        # put h * slope above pi/2
        steep = np.array([3.14, 0.0, 0.0, 1.0, 0.0, 1.0])
        monkeypatch.setattr(
            scattering, "match_amplitude",
            lambda spec, energies: SimpleNamespace(phase=steep),
        )
        with pytest.raises(NumericalError, match="too steep for the probe step"):
            phase_slope_width(FIG, 0.4, 1e-3)

    @pytest.mark.parametrize("gamma_scale", [math.nan, math.inf, 0.0])
    def test_phase_slope_width_rejects_bad_gamma_scale(self, gamma_scale):
        # NaN would reach the matcher as a probe energy, and an infinite
        # scale never shrinks into the window
        with pytest.raises(DomainError, match="gamma_scale must be positive and finite"):
            phase_slope_width(FIG, 0.4, gamma_scale)

    @pytest.mark.parametrize("e0", [-1.0, 0.0, math.nan])
    def test_phase_slope_width_rejects_e0_outside_the_window(self, e0):
        # the probe pattern cannot shrink into (0, cap) around e0 <= 0
        with pytest.raises(DomainError, match=rf"^e0={e0:g} outside the usable window \(0, "):
            phase_slope_width(FIG, e0, 1e-3)

    def test_phase_slope_width_rejects_a_step_below_float_spacing(self):
        # e0 +- h round to e0: the central phase step would be 0, and the
        # subtracted tail term alone would make a tiny "width"
        with pytest.raises(DomainError, match=r"gamma_scale 1e-300 too small: probes e0 \+- "):
            phase_slope_width(FIG, 0.366, 1e-300)

    def test_phase_slope_consistency_on_reference(self, ground_res):
        assert abs(ground_res.gamma - ground_res.gamma_phase) <= 0.02 * ground_res.gamma

    def test_decay_rate_oracle(self, fig_spectrum, excited_res):
        # time-domain propagation of the truncated state; ln-survival
        # slope over [0.1 tau, 2 tau] against the fitted width
        run = decay_run(FIG, excited_res, 2.0 * excited_res.tau, dt=0.004)
        mask = (run.times >= 0.1 * excited_res.tau) & (run.times <= 2.0 * excited_res.tau)
        slope = -np.polyfit(run.times[mask], np.log(run.survival[mask]), 1)[0]
        assert slope == pytest.approx(excited_res.gamma, rel=0.05)


class TestFitAgainstCurveFit:
    """_fit calls MINPACK through leastsq; curve_fit is the reference."""

    @pytest.mark.parametrize("index", [0, 1])
    def test_fits_equal_curve_fit_bit_for_bit(self, fig_spectrum, index, monkeypatch):
        # the two Lorentzian windows of each FIG peak; the Gaussian one
        # is fitted when fit_residual_gauss is first read
        calls = []
        fit = resonance._fit

        def recorded(shape, xi, q, width0):
            calls.append((shape, xi, q, width0))
            return fit(shape, xi, q, width0)

        monkeypatch.setattr(resonance, "_fit", recorded)
        res = fit_lorentzian(fig_spectrum, index)
        assert [c[0] for c in calls] == [resonance._lorentz] * 2
        res.fit_residual_gauss
        assert [c[0] for c in calls] == [resonance._lorentz] * 2 + [resonance._gauss]
        for shape, xi, q, width0 in calls:
            p, residual = fit(shape, xi, q, width0)
            b0 = float(np.min(q))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OptimizeWarning)
                want, _ = curve_fit(shape, xi, q, p0=(1.0 - b0, 0.0, width0, b0),
                                    maxfev=20000)
            assert p.tobytes() == want.tobytes(), shape.__name__
            assert residual == float(np.sqrt(np.mean((shape(xi, *want) - q) ** 2))) / abs(want[0])

    def test_unconverged_fit_raises(self, fig_spectrum, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "leastsq", lambda *a, **k: (np.ones(4), 5))
        with pytest.raises(NumericalError, match=r"lorentz fit did not converge \(MINPACK info 5\)"):
            fit_lorentzian(fig_spectrum, 0)

    def test_non_finite_window_raises(self):
        sp = _synthetic_lorentzian()
        log_r = sp.log_responses.copy()
        log_r[1000] = math.nan  # the peak sample, inside every fit window
        bad = Spectrum(sp.trap, sp.energies, log_r, sp.phases, sp.peaks)
        with pytest.raises(NumericalError, match="non-finite sample in the fit window"):
            fit_lorentzian(bad, 0)


def _eager_diagnostics(spectrum, index):
    """gamma_phase and fit_residual_gauss as the fit used to compute them:
    the fit window walked again from the peak, the Gaussian fitted on the
    final one, the phase width probed at the final center and width."""

    peak = spectrum.peaks[index]
    e0, gamma = peak.center, peak.width_estimate
    for _ in range(2):
        sel = spectrum.window_slice(
            max(e0 - resonance.FIT_WINDOW_WIDTHS * gamma, peak.territory[0]),
            min(e0 + resonance.FIT_WINDOW_WIDTHS * gamma, peak.territory[1]),
        )
        log_r = spectrum.log_responses[sel]
        xi = (spectrum.energies[sel] - e0) / gamma
        q = np.exp(log_r - float(np.max(log_r)))
        (_, x0, w, _), _ = resonance._fit(resonance._lorentz, xi, q, 1.0)
        e0, gamma = e0 + float(x0) * gamma, abs(float(w)) * gamma
    _, res_g = resonance._fit(resonance._gauss, xi, q, 1.0 / 2.3548)
    return phase_slope_width(spectrum.trap, e0, gamma), res_g


class _Untouchable:
    """A window stand-in that fails any comparison or repr."""

    def __eq__(self, other):
        raise AssertionError("window compared")

    def __repr__(self):
        raise AssertionError("window printed")


class TestLazyDiagnostics:
    """gamma_phase and fit_residual_gauss are computed on first read."""

    @pytest.fixture
    def counted(self, monkeypatch):
        # fits per shape and phase-width calls, counted through the
        # module globals the fit and the properties use
        counts = {"_lorentz": 0, "_gauss": 0, "phase_slope_width": 0}
        fit, width = resonance._fit, resonance.phase_slope_width

        def counted_fit(shape, *args):
            counts[shape.__name__] += 1
            return fit(shape, *args)

        def counted_width(*args):
            counts["phase_slope_width"] += 1
            return width(*args)

        monkeypatch.setattr(resonance, "_fit", counted_fit)
        monkeypatch.setattr(resonance, "phase_slope_width", counted_width)
        return counts

    def test_culling_point_computes_no_diagnostics(self, counted):
        culling_point(4.4, 0.5)
        assert counted == {"_lorentz": 4, "_gauss": 0, "phase_slope_width": 0}

    @pytest.mark.parametrize("index", [0, 1])
    def test_values_equal_eager_reconstruction(self, fig_spectrum, index):
        res = fit_lorentzian(fig_spectrum, index)
        gamma_phase, res_g = _eager_diagnostics(fig_spectrum, index)
        assert res.gamma_phase.hex() == gamma_phase.hex()
        assert res.fit_residual_gauss.hex() == res_g.hex()

    def test_second_read_does_not_recompute(self, fig_spectrum, counted):
        res = fit_lorentzian(fig_spectrum, 0)
        first = (res.gamma_phase, res.fit_residual_gauss)
        assert counted == {"_lorentz": 2, "_gauss": 1, "phase_slope_width": 1}
        assert (res.gamma_phase, res.fit_residual_gauss) == first
        assert counted == {"_lorentz": 2, "_gauss": 1, "phase_slope_width": 1}

    def test_steep_phase_slope_raises_on_read(self, fig_spectrum, monkeypatch):
        # the probes of test_phase_slope_too_steep_for_probe_step
        steep = np.array([3.14, 0.0, 0.0, 1.0, 0.0, 1.0])
        monkeypatch.setattr(
            scattering, "match_amplitude",
            lambda spec, energies: SimpleNamespace(phase=steep),
        )
        res = fit_lorentzian(fig_spectrum, 0)
        with pytest.raises(NumericalError, match="too steep for the probe step"):
            res.gamma_phase

    def test_unconverged_gaussian_raises_on_read(self, fig_spectrum, monkeypatch):
        res = fit_lorentzian(fig_spectrum, 0)
        monkeypatch.setattr(scipy.optimize, "leastsq", lambda *a, **k: (np.ones(4), 5))
        with pytest.raises(NumericalError, match=r"gauss fit did not converge"):
            res.fit_residual_gauss

    def test_eq_and_repr_leave_the_window_alone(self, ground_res):
        a = dataclasses.replace(ground_res, _window=_Untouchable())
        b = dataclasses.replace(ground_res, _window=_Untouchable())
        assert a == b == ground_res
        text = repr(a)
        assert "_window" not in text and "_trap" not in text
        assert "gamma_phase" not in text


class TestEstimatorAgreementGrid:
    POINTS = [(4.4, 0.5), (4.6, 0.55), (4.8, 0.5), (5.0, 0.55), (5.2, 0.45), (5.2, 0.5)]

    @pytest.mark.parametrize("z,f", POINTS)
    def test_fit_width_matches_phase_width(self, z, f):
        sp = scan_spectrum(TrapSpec(z, f), 0.05, 1.5)
        assert len(sp.peaks) >= 2
        for idx in (0, 1):
            res = fit_lorentzian(sp, idx)
            assert abs(res.gamma - res.gamma_phase) / res.gamma <= 0.02


class TestUnresolvedPeaks:
    def test_fit_raises_with_floor_bound(self, deep_spectrum):
        with pytest.raises(WidthUnresolvedError) as err:
            fit_lorentzian(deep_spectrum, 0)
        assert err.value.width_upper_bound <= 1e-10

    def test_phase_only_fallback(self, tmp_path):
        # the resonances CLI writes an unresolved line as its phase-slope
        # bound at the resolution floor, with no lineshape residuals; the
        # (5.4, 0.3) window holds an unresolved ground line and two
        # resolved lines
        out = tmp_path / "res.csv"
        window = ["--emin", "0.02", "--emax", "3.0"]
        assert cli.run(["resonances", "--z", "5.4", "--f", "0.3", *window,
                        "--out", str(out)]) == 0
        spec = TrapSpec(5.4, 0.3)
        ground = scan_spectrum(spec, 0.02, 3.0).peaks[0]
        assert not ground.resolved
        w = phase_slope_width(
            spec, ground.center, max(ground.width_estimate, scattering.RESOLUTION_FLOOR))
        row = ",".join(cli.FLOAT_FMT % v for v in (ground.center, w, 1.0 / w, w))
        assert out.read_text().splitlines()[1] == row + ",nan,nan"
        manifest = json.loads((tmp_path / "res.manifest.json").read_text())
        lines = manifest["results"]["resonances"]
        assert [r["resolved"] for r in lines] == [False, True, True]
        assert (lines[0]["e0"], lines[0]["gamma"]) == (ground.center, w)


class TestSurvivalExponential:
    def test_anchor_times(self, ground_res):
        assert survival_exponential(ground_res, 0.0) == 1.0
        assert survival_exponential(ground_res, ground_res.tau) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_residual_threshold_time(self, ground_res):
        # gamma t = ln(1e5) leaves exactly the 1e-5 target
        t = math.log(1e5) / ground_res.gamma
        assert survival_exponential(ground_res, t) == pytest.approx(1e-5, rel=1e-12)

    def test_negative_time_rejected(self, ground_res):
        for t in (-0.1, math.nan, math.inf, np.array([0.0, math.nan])):
            with pytest.raises(DomainError):
                survival_exponential(ground_res, t)

    def test_vectorized(self, ground_res):
        out = survival_exponential(ground_res, np.array([0.0, ground_res.tau]))
        assert out.shape == (2,)
        assert out[0] == 1.0


class TestSurvivalFromSpectrum:
    def test_normalized_at_zero(self, ground_res):
        assert survival_from_spectrum(FIG, ground_res, 0.0, window=100.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_lorentzian_line_gives_exponential(self, ground_res):
        # the ground line is Lorentzian to ~1e-3 residual, so its
        # transform at t = tau reproduces 1/e to the same scale
        s = survival_from_spectrum(FIG, ground_res, ground_res.tau, window=100.0)
        assert abs(s - math.exp(-1.0)) <= 1e-3

    def test_matches_exponential_at_reference_times(self, ground_res):
        for mult in (0.5, 1.0, 2.0):
            t = mult * ground_res.tau
            spectral = survival_from_spectrum(FIG, ground_res, t, window=100.0)
            closed = survival_exponential(ground_res, t)
            assert abs(spectral - closed) / closed <= 0.02

    @pytest.mark.parametrize("window,bound", [(20.0, 1.0 / 20.0), (50.0, 1.0 / 50.0)])
    def test_fourier_truncation_bound(self, ground_res, window, bound):
        # finite integration range leaves a relative error ~< 1/window
        for mult in (0.5, 1.0, 2.0):
            t = mult * ground_res.tau
            spectral = survival_from_spectrum(FIG, ground_res, t, window=window)
            closed = survival_exponential(ground_res, t)
            assert abs(spectral - closed) / closed <= bound

    def test_window_below_minimum_rejected(self, ground_res):
        with pytest.raises(DomainError):
            survival_from_spectrum(FIG, ground_res, 1.0, window=19.0)

    def test_non_finite_window_rejected_before_matching(self, ground_res, monkeypatch):
        calls = []
        match = scattering.match_amplitude
        monkeypatch.setattr(scattering, "match_amplitude",
                            lambda *a: calls.append(a) or match(*a))
        for window in (math.nan, math.inf):
            with pytest.raises(DomainError, match="window"):
                survival_from_spectrum(FIG, ground_res, 1.0, window=window)
        assert calls == []

    def test_window_leaving_usable_range_rejected(self, ground_res):
        with pytest.raises(DomainError):
            survival_from_spectrum(FIG, ground_res, 1.0, window=250.0)

    def test_negative_time_rejected(self, ground_res, monkeypatch):
        # before any matcher call: the t = 0 norm is not integrated first
        calls = []
        match = scattering.match_amplitude
        monkeypatch.setattr(scattering, "match_amplitude",
                            lambda *a: calls.append(a) or match(*a))
        for t in (-1.0, np.array([0.0, -1.0]), math.nan, math.inf, np.array([0.0, math.inf])):
            with pytest.raises(DomainError, match="time must be nonnegative"):
                survival_from_spectrum(FIG, ground_res, t, window=100.0)
        assert calls == []


class TestTruncatedStateOverlap:
    def test_spectral_selectivity(self, ground_res):
        # the normalized truncated state is unit-weight on the trap and
        # couples to off-resonant scattering states only through the
        # Lorentzian amplitude: ten widths out the squared overlap is
        # below 5% of its on-resonance value
        grid = uniform_grid(-4.0, 4.0, 0.005)
        state = truncated_resonance_state(FIG, ground_res, grid)
        inside = np.abs(grid) <= 0.5 * FIG.size
        dx = state.spacing
        self_overlap = float(np.sum(np.abs(state.values[inside]) ** 2) * dx)
        assert self_overlap >= 0.99

        def overlap_sq(energy):
            raw = np.zeros_like(grid)
            for i in np.nonzero(inside)[0]:
                raw[i], _ = interior_wave(FIG, energy, float(grid[i]))
            response = math.exp(match_amplitude(FIG, energy).log_response)
            inner = float(np.sum(raw * state.values.real) * dx)
            return response * inner * inner

        on = overlap_sq(ground_res.e0)
        for sgn in (-1.0, 1.0):
            off = overlap_sq(ground_res.e0 + sgn * 10.0 * ground_res.gamma)
            assert off / on <= 0.05
