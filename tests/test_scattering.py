"""Stationary-state machinery: interior solutions, edge matching, scans.

Oracles: closed-form harmonic solutions at zero tilt, direct Runge-Kutta
integration of the interior equation, and an independently constructed
bound-state proxy (hard wall at the outer classical turning point, where
the exterior ramp admits an exact Airy solution).
"""

import gc
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import airy

from atomprep.culling import scan_window
from atomprep.errors import DomainError, NumericalError
from atomprep import scattering
from atomprep.potential import TrapSpec, trap_geometry
from atomprep.scattering import (
    PEAK_GRID_POINTS,
    PEAK_GRID_SPAN,
    _MIN_PHASE_RISE,
    _MIN_PROMINENCE,
    PHASE_JUMP,
    RESOLUTION_FLOOR,
    _bisect,
    _detect_resolved,
    _half_max_cross,
    _merge_markers,
    _unwrap,
    _wrap,
    energy_cap,
    interior_wave,
    match_amplitude,
    scan_spectra,
    scan_spectrum,
)

FIG = TrapSpec(4.4, 0.5)


class TestInteriorWave:
    def test_zero_tilt_ground_is_gaussian(self):
        # E = 1/2 at f = 0: psi ~ exp(-x^2/2), log-derivative -x
        spec = TrapSpec(8.0, 0.0)
        for x in (-1.2, 0.3, 1.5):
            val, der = interior_wave(spec, 0.5, x)
            assert der / val == pytest.approx(-x, abs=1e-9)
        v1, _ = interior_wave(spec, 0.5, 0.5)
        v2, _ = interior_wave(spec, 0.5, 1.5)
        assert v2 / v1 == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_zero_tilt_first_excited(self):
        # E = 3/2 at f = 0: psi ~ x exp(-x^2/2), log-derivative 1/x - x
        spec = TrapSpec(8.0, 0.0)
        for x in (0.7, -1.3):
            val, der = interior_wave(spec, 1.5, x)
            assert der / val == pytest.approx(1.0 / x - x, rel=1e-9)

    def test_default_position_is_downhill_edge(self):
        got = interior_wave(FIG, 0.366)
        explicit = interior_wave(FIG, 0.366, FIG.edge)
        assert got == explicit

    def test_array_of_positions_equals_per_point_calls(self):
        # the truncated state samples the interior wave on a whole grid in
        # one call: both Hermite routes (u <= 0 and u > 0) in one array
        for e in (0.366, 1.29):
            xs = np.linspace(-0.5 * FIG.size, 0.5 * FIG.size, 301)
            val, der = interior_wave(FIG, e, xs)
            for i, x in enumerate(xs):
                v1, d1 = interior_wave(FIG, e, float(x))
                assert abs(val[i] - v1) <= 1e-14 * abs(v1)
                assert abs(der[i] - d1) <= 1e-14 * abs(d1)

    def test_shooting_oracle(self):
        # integrate psi'' = (x^2 + 2 f x - 2E) psi from deep under the
        # uphill barrier down to the edge; compare log-derivatives
        e, f = 0.366, FIG.tilt

        def rhs(x, y):
            return [y[1], (x * x + 2.0 * f * x - 2.0 * e) * y[0]]

        x0 = 8.0
        kappa = math.sqrt(x0 * x0 + 2.0 * f * x0 - 2.0 * e)
        sol = solve_ivp(
            rhs,
            (x0, FIG.edge),
            [1.0, -kappa],
            rtol=1e-11,
            atol=1e-14,
            dense_output=True,
        )
        psi, dpsi = sol.y[0, -1], sol.y[1, -1]
        val, der = interior_wave(FIG, e, FIG.edge)
        assert der / val == pytest.approx(dpsi / psi, rel=1e-9)


class TestMatchAmplitude:
    @pytest.mark.parametrize("e", [0.1, 0.366, 0.8, 1.29, 1.5])
    def test_exterior_coefficients_on_unit_circle(self, e):
        m = match_amplitude(FIG, e)
        assert m.ai_coeff**2 + m.bi_coeff**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("e", [0.2, 0.366, 1.1])
    def test_recomposition_continuous_at_edge(self, e):
        # the exterior alpha Ai(s) + beta Bi(s) at the edge, in the
        # interior solution's normalization
        m = match_amplitude(FIG, e)
        inside, _ = interior_wave(FIG, e, FIG.edge)
        sigma = (2.0 * FIG.tilt) ** (1.0 / 3.0)
        turning = (e - 0.125 * FIG.size**2) / FIG.tilt
        ai, _, bi, _ = airy(sigma * (FIG.edge - turning))
        outside = (m.ai_coeff * ai + m.bi_coeff * bi) / m.interior_amplitude
        assert outside == pytest.approx(inside, rel=1e-10)

    def test_response_is_exp_log_response(self):
        m = match_amplitude(FIG, 0.7)
        assert m.response == pytest.approx(math.exp(m.log_response), rel=1e-12)

    def test_on_resonance_response_dominates(self):
        on = match_amplitude(FIG, 0.366).response
        off = match_amplitude(FIG, 0.3).response
        assert on / off >= 1e3

    def test_far_tail_is_small_relative_to_peak(self):
        # ten widths off the ground resonance the response has fallen to
        # the percent scale of the peak (Lorentzian tail ~ 1/401)
        e0, gamma = 0.3655242, 1.6363e-3
        p0 = match_amplitude(FIG, e0).response
        for sgn in (-1.0, 1.0):
            tail = match_amplitude(FIG, e0 + sgn * 10.0 * gamma).response
            assert tail <= 0.02 * p0

    def test_scalar_call_equals_array_call_bit_for_bit(self):
        # one kernel: a float energy runs the same arithmetic as an array
        # element, on both sides of the barrier top (both Airy branches)
        top = trap_geometry(FIG).edge_height
        energies = np.linspace(top - 0.6, top + 0.6, 50)
        batch = match_amplitude(FIG, energies)
        for i, e in enumerate(energies):
            one = match_amplitude(FIG, float(e))
            for name in ("ai_coeff", "bi_coeff", "interior_amplitude", "phase",
                         "log_response"):
                assert getattr(one, name) == getattr(batch, name)[i], (name, e)

    def test_array_error_names_first_bad_energy(self):
        with pytest.raises(DomainError, match="energy -0.1 outside"):
            match_amplitude(FIG, np.array([0.5, -0.1, -0.2]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_small_arrays_equal_the_full_array_call_bit_for_bit(self, n, monkeypatch):
        # a short array runs the one array kernel in one call and gets the
        # full call's bits; windows straddle the barrier top, so both Airy
        # branches show up at every size
        top = trap_geometry(FIG).edge_height
        energies = np.linspace(top - 0.6, top + 0.6, 50)
        full = match_amplitude(FIG, energies)
        kernel_calls = []
        kernel = scattering._match

        def counted(trap, energy):
            kernel_calls.append(np.ndim(energy))
            return kernel(trap, energy)

        monkeypatch.setattr(scattering, "_match", counted)
        for start in range(0, 50 - n + 1, 7):
            kernel_calls.clear()
            window = energies[start:start + n].copy()
            small = match_amplitude(FIG, window)
            assert kernel_calls == [1]
            assert small.energy is window
            for name in ("ai_coeff", "bi_coeff", "interior_amplitude", "phase",
                         "log_response"):
                got, want = getattr(small, name), getattr(full, name)[start:start + n]
                assert got.dtype == want.dtype and got.shape == (n,), name
                assert got.tobytes() == want.tobytes(), (name, start)

    def test_small_array_keeps_its_shape(self):
        grid = np.array([[0.3, 0.4], [1.3, 1.4]])
        small = match_amplitude(FIG, grid)
        full = match_amplitude(FIG, np.linspace(0.3, 1.4, 12))
        assert small.phase.shape == (2, 2)
        assert small.phase[1, 1] == full.phase[-1]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_small_array_error_names_first_bad_energy(self, n):
        window = np.linspace(0.3, 1.4, n)
        window[(n - 1) // 2], window[-1] = -0.1, -0.2
        with pytest.raises(DomainError, match="energy -0.1 outside"):
            match_amplitude(FIG, window)
        # above the shelf size^2/8 = 2.42 but inside the matching window:
        # the interior solver's check names the first such energy
        window[(n - 1) // 2], window[-1] = 3.0, 4.0
        with pytest.raises(DomainError, match="energy 3 not finite or at or above"):
            match_amplitude(FIG, window)


class TestScanSpectrum:
    def test_reference_trap_has_two_peaks(self, fig_spectrum):
        assert len(fig_spectrum.peaks) == 2
        g, x = fig_spectrum.peaks
        assert g.center == pytest.approx(0.366, abs=0.015)
        assert x.center == pytest.approx(1.29, abs=0.03)
        assert g.resolved and x.resolved

    def test_peak_metadata_nested(self, fig_spectrum):
        for pk in fig_spectrum.peaks:
            half = 0.5 * pk.width_estimate
            t_lo, t_hi = pk.territory
            assert t_lo < pk.center - half < pk.center < pk.center + half < t_hi
            assert pk.width_estimate > 0

    def test_samples_sorted_and_consistent(self, fig_spectrum):
        e = fig_spectrum.energies
        assert np.all(np.diff(e) > 0)
        assert len(fig_spectrum) == len(e)
        assert np.allclose(
            fig_spectrum.log_responses, np.log(fig_spectrum.responses), atol=1e-12
        )
        first = next(iter(fig_spectrum.rows()))
        assert first == (e[0], fig_spectrum.responses[0], fig_spectrum.phases[0])

    def test_window_slice(self, fig_spectrum):
        sl = fig_spectrum.window_slice(0.3, 0.45)
        e = fig_spectrum.energies[sl]
        assert e.min() >= 0.3 and e.max() <= 0.45
        assert len(e) > 50  # refinement concentrates samples near the peak

    def test_deep_trap_harmonic_ladder(self, deep_spectrum):
        # tilt f = 0.01 shifts each level by f^2/2 = 5e-5; centers stay
        # within 1e-3 of the harmonic ladder
        assert len(deep_spectrum.peaks) == 3
        for i, pk in enumerate(deep_spectrum.peaks):
            assert pk.center == pytest.approx(0.5 + i, abs=1e-3)

    def test_empty_window(self):
        sp = scan_spectrum(FIG, 0.55, 0.9)
        assert len(sp.peaks) == 0
        # no resonance: the scattering phase stays nearly flat
        assert np.max(np.abs(np.diff(sp.phases))) < 0.01

    def test_scan_above_cap_rejected(self):
        assert energy_cap(FIG) == pytest.approx(2.42, rel=1e-12)
        with pytest.raises(DomainError):
            scan_spectrum(FIG, 0.05, 5.0)

    def test_level_synchronous_bisection_samples_depth_first_energies(self):
        # reference: bisect each base interval of each trap depth-first,
        # one energy at a time, as a stack; lock-step bisection of both
        # traps at once must sample the same energies on each trap
        specs = (FIG, TrapSpec(5.0, 0.3))
        base = np.linspace(0.05, 1.5, 160)
        want = []
        for spec in specs:
            phase = {float(e): match_amplitude(spec, float(e)).phase for e in base}
            stack = [(float(lo), float(hi)) for lo, hi in zip(base[:-1], base[1:])]
            while stack:
                lo, hi = stack.pop()
                step = math.remainder(phase[hi] - phase[lo], 2.0 * math.pi)
                mid = 0.5 * (lo + hi)
                if abs(step) <= PHASE_JUMP or hi - lo <= RESOLUTION_FLOOR or not lo < mid < hi:
                    continue
                phase[mid] = match_amplitude(spec, mid).phase
                stack += [(lo, mid), (mid, hi)]
            want.append(phase)
        chunks = []

        def match(energies, trap):
            raw = np.empty(len(energies))
            for t, spec in enumerate(specs):
                raw[trap == t] = match_amplitude(spec, energies[trap == t]).phase
            chunks.append((energies, trap, raw))
            return raw

        trap = np.repeat([0, 1], 160)
        raw = match(np.tile(base, 2), trap).reshape(2, 160)
        lo, hi = np.tile(base[:-1], 2), np.tile(base[1:], 2)
        markers = _bisect(match, lo, hi, raw[:, :-1].ravel(), raw[:, 1:].ravel(),
                          np.repeat([0, 1], 159))
        assert markers == []
        assert any(set(c[1].tolist()) == {0, 1} for c in chunks[1:])  # levels shared
        energies, trap, raw = (np.concatenate(field) for field in zip(*chunks))
        for t, phase in enumerate(want):
            order = np.argsort(energies[trap == t])
            assert np.array_equal(energies[trap == t][order], sorted(phase))
            assert np.array_equal(raw[trap == t][order], [phase[e] for e in sorted(phase)])

    def test_vector_unwrap_equals_sequential_unwrap(self):
        raw = np.random.default_rng(3).uniform(-math.pi, math.pi, 500)
        ref = [raw[0]]
        for prev, here in zip(raw[:-1], raw[1:]):
            ref.append(ref[-1] + math.remainder(here - prev, 2.0 * math.pi))
        assert np.array_equal(_unwrap(raw), ref)

    def test_culling_window_sample_count(self):
        # level-synchronous bisection samples the energies of a
        # depth-first bisection: 360 on the culling window of FIG
        assert len(scan_spectrum(FIG, *scan_window(FIG))) == 360

    def test_degenerate_window_rejected(self):
        with pytest.raises(DomainError):
            scan_spectrum(FIG, 0.9, 0.9)


class _ReferenceSamples:
    """The sample store kept sorted after every matcher call; kept as the
    reference the once-per-read sort of scan_spectrum must reproduce."""

    def __init__(self, spec):
        self.spec = spec
        self.energies = self.log_r = self.raw = np.empty(0)

    def add(self, energies):
        m = scattering.match_amplitude(self.spec, energies)
        merged = np.concatenate((self.energies, energies))
        order = np.argsort(merged, kind="stable")
        self.energies = merged[order]
        self.log_r = np.concatenate((self.log_r, m.log_response))[order]
        self.raw = np.concatenate((self.raw, m.phase))[order]
        return m.phase


def _reference_bisect(samples, lo, hi, p_lo, p_hi):
    """Level-synchronous bisection that keeps each level's halves in
    energy order, interleaved per split interval."""

    markers = []
    while True:
        step = _wrap(p_hi - p_lo)
        jump = np.abs(step) > PHASE_JUMP
        mid = 0.5 * (lo + hi)
        floored = (hi - lo <= RESOLUTION_FLOOR) | (mid <= lo) | (mid >= hi)
        stop = jump & floored
        markers.extend(zip(lo[stop], hi[stop], step[stop]))
        split = jump & ~floored
        if not split.any():
            return markers
        lo, mid, hi, p_lo, p_hi = lo[split], mid[split], hi[split], p_lo[split], p_hi[split]
        p_mid = samples.add(mid)
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
        p_lo = np.column_stack((p_lo, p_mid)).ravel()
        p_hi = np.column_stack((p_mid, p_hi)).ravel()


def _reference_scan(spec, e_min, e_max, base_points=160):
    """scan_spectrum on the always-sorted store: (energies, log-responses,
    unwrapped phases, peaks)."""

    samples = _ReferenceSamples(spec)
    base = np.linspace(e_min, e_max, base_points)
    raw = samples.add(base)
    narrow = _merge_markers(
        _reference_bisect(samples, base[:-1], base[1:], raw[:-1], raw[1:]), RESOLUTION_FLOOR
    )
    blocked = [p.center for p in narrow]
    grids = []
    for center, width, _, _ in _detect_resolved(
        samples.energies, samples.log_r, _unwrap(samples.raw), blocked
    ):
        width = max(width, 8.0 * RESOLUTION_FLOOR)
        lo = max(center - PEAK_GRID_SPAN * width, e_min)
        hi = min(center + PEAK_GRID_SPAN * width, e_max)
        grids.append(np.linspace(lo, hi, PEAK_GRID_POINTS))
    if grids:
        samples.add(np.setdiff1d(np.concatenate(grids), samples.energies))
    e, log_r, phases = samples.energies, samples.log_r, _unwrap(samples.raw)
    resolved = [
        scattering.Peak(center=c, resolved=True, width_estimate=w, territory=(t_lo, t_hi))
        for c, w, t_lo, t_hi in _detect_resolved(e, log_r, phases, blocked)
    ]
    return e, log_r, phases, sorted(resolved + narrow, key=lambda p: p.center)


def _peak_bits(peak):
    return (peak.resolved,) + tuple(
        float(x).hex()
        for x in (peak.center, peak.width_estimate, *peak.territory)
    )


class TestSampleStoreEquivalence:
    """The chunked store, sorted once per read, gives the always-sorted
    store's spectrum bit for bit from the same matcher calls."""

    @pytest.mark.parametrize("spec,window,n_peaks,n_narrow", [
        (FIG, scan_window(FIG), 2, 0),
        (TrapSpec(12.0, 0.01), (0.3, 3.0), 3, 3),
        (TrapSpec(5.0, 0.3), scan_window(TrapSpec(5.0, 0.3)), 3, 0),
        (FIG, (0.55, 0.9), 0, 0),
    ], ids=["fig-culling-window", "deep-unresolved", "three-peak-map-cell", "empty"])
    def test_spectrum_bitwise_equal(self, spec, window, n_peaks, n_narrow, monkeypatch):
        # the reference's match_amplitude calls reach the same kernel
        calls = []
        match = scattering._match

        def recorded(trap, energy):
            calls.append(np.sort(energy))
            return match(trap, energy)

        monkeypatch.setattr(scattering, "_match", recorded)
        sp = scan_spectrum(spec, *window)
        got_calls, calls[:] = calls[:], []
        e, log_r, phases, peaks = _reference_scan(spec, *window)

        assert len(got_calls) == len(calls)
        for got, want in zip(got_calls, calls):
            assert np.array_equal(got, want)
        for got, want in [(sp.energies, e), (sp.log_responses, log_r), (sp.phases, phases),
                          (sp.responses, np.exp(log_r))]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert [_peak_bits(p) for p in sp.peaks] == [_peak_bits(p) for p in peaks]
        assert len(peaks) == n_peaks
        assert sum(not p.resolved for p in peaks) == n_narrow


def _spectrum_bits(sp):
    return (sp.energies.tobytes(), sp.log_responses.tobytes(), sp.phases.tobytes(),
            [_peak_bits(p) for p in sp.peaks])


# ok map cells, a width-floor error cell (6.0, 0.3), FIG's excited line
# 0.03 below its barrier top, and a deep trap with three unresolved lines
BLOCK_TRAPS = [(TrapSpec(z, f), scan_window(TrapSpec(z, f)))
               for z, f in ((4.4, 0.5), (5.0, 0.3), (6.0, 0.3), (4.6, 0.45), (5.6, 0.2))]
BLOCK_TRAPS.append((TrapSpec(12.0, 0.01), (0.3, 3.0)))


class TestBlockScan:
    """scan_spectra matches many traps per call and gives each trap its
    scan_spectrum bit for bit, in any partition into blocks."""

    @pytest.fixture(scope="class")
    def single(self):
        return [_spectrum_bits(scan_spectrum(spec, *w)) for spec, w in BLOCK_TRAPS]

    @pytest.mark.parametrize("partition", [
        [[0, 1, 2, 3, 4, 5]],
        [[5, 4, 3, 2, 1, 0]],
        [[0, 2, 4], [1, 3, 5]],
        [[3], [1, 0], [5, 2, 4]],
    ], ids=["one-block", "reversed", "interleaved", "uneven"])
    def test_partitions_equal_single_scans(self, single, partition):
        for block in partition:
            scans = scan_spectra([(BLOCK_TRAPS[k][0], *BLOCK_TRAPS[k][1]) for k in block])
            assert [_spectrum_bits(sp) for sp in scans] == [single[k] for k in block]

    def test_line_near_barrier_top_and_floor_peaks_survive(self, single):
        fig, deep = scan_spectra([(BLOCK_TRAPS[0][0], *BLOCK_TRAPS[0][1]),
                                  (BLOCK_TRAPS[5][0], *BLOCK_TRAPS[5][1])])
        top = trap_geometry(FIG).edge_height
        assert fig.peaks[1].resolved and 0.0 < top - fig.peaks[1].center < 0.05
        assert [p.resolved for p in deep.peaks] == [False, False, False]

    @pytest.mark.parametrize("n", [2, 6, 40])
    def test_block_kernel_equals_per_trap_calls(self, n):
        # energies of three traps in one call
        specs = [spec for spec, _ in BLOCK_TRAPS[:3]]
        trap = np.arange(n) % 3
        energies = np.linspace(0.3, 1.3, n)
        columns = np.array([scattering._Trap.of(spec) for spec in specs]).T.copy()
        block = scattering._match(scattering._Trap(*columns[:, trap]), energies)
        for t, spec in enumerate(specs):
            m = match_amplitude(spec, energies[trap == t])
            want = (m.ai_coeff, m.bi_coeff, m.interior_amplitude, m.phase, m.log_response)
            for got, field in zip(block, want):
                assert got[trap == t].tobytes() == np.asarray(field).tobytes()

    def test_one_matcher_call_per_level(self, monkeypatch):
        calls = []
        match = scattering._match

        def counted(trap, energy):
            calls.append(energy)
            return match(trap, energy)

        monkeypatch.setattr(scattering, "_match", counted)
        single = []
        for spec, w in BLOCK_TRAPS:
            calls.clear()
            scan_spectrum(spec, *w)
            # every call, the deep levels of 1-3 energies too, reaches the
            # kernel as one array
            assert all(type(e) is np.ndarray for e in calls)
            single.append(len(calls))
        assert min(e.size for e in calls) <= 3
        calls.clear()
        scan_spectra([(spec, *w) for spec, w in BLOCK_TRAPS])
        # base grids, each bisection level and the peak grids: at most one
        # call more than the deepest single scan
        assert len(calls) <= max(single) + 1 < sum(single)
        assert calls[0].size == 160 * len(BLOCK_TRAPS)

    def test_scan_leaves_no_reference_cycle(self):
        # a block's samples are freed when its scan returns, not at the
        # next garbage collection
        scan_spectra([(spec, *w) for spec, w in BLOCK_TRAPS[:3]])
        gc.collect()
        gc.disable()
        try:
            scan_spectra([(spec, *w) for spec, w in BLOCK_TRAPS[:3]])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_empty_and_invalid_windows(self):
        assert scan_spectra([]) == []
        with pytest.raises(DomainError):
            scan_spectra([(FIG, *scan_window(FIG)), (FIG, 0.05, 5.0)])
        for base_points in (1, 2.5):
            with pytest.raises(DomainError, match="base_points"):
                scan_spectra([(FIG, *scan_window(FIG))], base_points=base_points)
        # a flat exterior is rejected before any trap of the block is matched
        flat = TrapSpec(5.0, 0.0)
        with pytest.raises(DomainError, match="zero tilt"):
            scan_spectra([(FIG, *scan_window(FIG)), (flat, *scan_window(flat))])


class TestBlockScanFailures:
    """A matcher failure of one trap ends the whole scan with that trap's
    error, and a DomainError propagates.  Keeping a failure in its own
    cell is the map's work (test_culling)."""

    TRAPS = [(TrapSpec(z, 0.4), scan_window(TrapSpec(z, 0.4))) for z in (4.8, 5.0, 5.2)]

    @pytest.mark.parametrize("call", [0, 3], ids=["base-grid", "bisection-level"])
    def test_one_trap_error_ends_the_scan(self, break_airy, call):
        # the first matcher call matches the base grids, the fourth a
        # bisection level; the traps share both
        break_airy(*self.TRAPS[1], call)
        with pytest.raises(NumericalError, match="Airy Wronskian lost") as alone:
            scan_spectrum(self.TRAPS[1][0], *self.TRAPS[1][1])
        with pytest.raises(NumericalError) as block:
            scan_spectra([(spec, *w) for spec, w in self.TRAPS])
        assert str(block.value) == str(alone.value)

    def test_domain_error_propagates(self, break_airy):
        break_airy(*self.TRAPS[1], 3, DomainError("broken Airy argument"))
        with pytest.raises(DomainError, match="broken Airy argument"):
            scan_spectra([(spec, *w) for spec, w in self.TRAPS])


def _reference_detect(e, log_r, phases, blocked):
    """The original per-sample peak detection loop over numpy arrays;
    kept as the reference the one-pass detection must reproduce."""

    found = []
    for i in range(1, len(e) - 1):
        if not (log_r[i] > log_r[i - 1] and log_r[i] >= log_r[i + 1]):
            continue
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
        half = log_r[i] + math.log(0.5 * (1.0 + math.exp(saddle - log_r[i])))
        lo = _half_max_cross(e, log_r, i, -1, half)
        hi = _half_max_cross(e, log_r, i, +1, half)
        found.append((e[i], hi - lo, e[left], e[right]))
    return found


def _bits(found):
    return [tuple(float(x).hex() for x in peak) for peak in found]


def _lorentz_line(center, width, n=101):
    """Energies on [0, 1], log of a Lorentzian line, its Breit-Wigner phase."""
    e = np.linspace(0.0, 1.0, n)
    x = 2.0 * (e - center) / width
    return e, -np.log1p(x * x), np.arctan(x)


class TestDetectResolvedOnePass:
    """The one-pass detection returns the reference loop's tuples bit for bit."""

    def _same(self, e, log_r, phases, blocked=()):
        got = _detect_resolved(e, log_r, phases, list(blocked))
        want = _reference_detect(e, log_r, phases, list(blocked))
        assert _bits(got) == _bits(want)
        return got

    def _scan_calls(self, monkeypatch, spec, e_min, e_max):
        calls = []

        def recorded(e, log_r, phases, blocked):
            calls.append((e, log_r, phases, list(blocked)))
            return _detect_resolved(e, log_r, phases, blocked)

        monkeypatch.setattr(scattering, "_detect_resolved", recorded)
        sp = scan_spectrum(spec, e_min, e_max)
        assert len(calls) == 2  # before and after the dense peak grids
        return sp, calls

    def test_fig_scan(self, monkeypatch):
        sp, calls = self._scan_calls(monkeypatch, FIG, 0.05, 1.5)
        for args in calls:
            assert len(self._same(*args)) == 2
        assert len(sp.peaks) == 2

    def test_three_peak_map_shape(self, monkeypatch):
        spec = TrapSpec(5.0, 0.3)
        sp, calls = self._scan_calls(monkeypatch, spec, *scan_window(spec))
        for args in calls:
            assert len(self._same(*args)) == 3
        assert len(sp.peaks) == 3

    def test_plateau_of_equal_neighbors(self):
        e, log_r, phases = _lorentz_line(0.5, 0.05)
        log_r[49:52] = log_r[50]  # a flat top: the maximum is its first sample
        log_r[30:33] = log_r[31]  # a flat step on the flank
        found = self._same(e, log_r, phases)
        assert [peak[0] for peak in found] == [e[49]]

    @pytest.mark.parametrize("offset,kept", [(0.0, False), (1e-11, False), (1e-9, True)])
    def test_blocked_center(self, offset, kept):
        e, log_r, phases = _lorentz_line(0.5, 0.05)
        found = self._same(e, log_r, phases, [e[50] + offset])
        assert len(found) == int(kept)

    @pytest.mark.parametrize("index", [1, 99])
    def test_maxima_next_to_window_ends(self, index):
        # a tent one sample from an end, with a phase step of 2 across it
        k = np.arange(101)
        e, log_r = np.linspace(0.0, 1.0, 101), -np.abs(k - index).astype(float)
        phases = np.where(k > index, 2.0, 0.0)
        assert len(self._same(e, log_r, phases)) == 1
        # a flat top reaching the end sample is no peak
        log_r[0 if index == 1 else 100] = 0.0
        assert self._same(e, log_r, phases) == []

    def test_random_ties(self):
        # integer levels make plateaus and tied saddles everywhere
        rng = np.random.default_rng(7)
        for n in (0, 1, 2, 3, 5, 40):
            for _ in range(50):
                e = np.sort(rng.uniform(0.0, 1.0, n))
                log_r = rng.integers(0, 4, n).astype(float)
                phases = np.cumsum(rng.uniform(0.0, 1.0, n))
                self._same(e, log_r, phases)


class TestPhaseTheorem:
    def test_pi_rise_across_narrow_resonance(self, fig_spectrum):
        # Breit-Wigner: the scattering phase climbs by pi across a
        # resonance whose territory spans many widths
        pk = fig_spectrum.peaks[0]
        sl = fig_spectrum.window_slice(*pk.territory)
        phase = np.unwrap(fig_spectrum.phases[sl])
        rise = phase[-1] - phase[0]
        assert abs(math.pi - rise) < 0.05

    def test_barrier_top_resonance_rise_positive_but_truncated(self, fig_spectrum):
        # the upper resonance is within one width of the barrier top, so
        # its territory covers only ~1 width above center: the phase
        # rise is substantial but cannot complete the full pi
        pk = fig_spectrum.peaks[1]
        sl = fig_spectrum.window_slice(*pk.territory)
        phase = np.unwrap(fig_spectrum.phases[sl])
        rise = phase[-1] - phase[0]
        assert 1.5 < rise < math.pi + 0.05


class _Rescaled:
    """Spectrum view with responses multiplied by a smooth function."""

    def __init__(self, sp, fn):
        self.energies = sp.energies
        self.responses = sp.responses * fn(sp.energies)
        self.peaks = sp.peaks

    def window_slice(self, low, high):
        lo = int(np.searchsorted(self.energies, low, side="left"))
        hi = int(np.searchsorted(self.energies, high, side="right"))
        return slice(lo, hi)


def _fwhm_and_argmax(sp, idx):
    pk = sp.peaks[idx]
    sl = sp.window_slice(*pk.territory)
    e = sp.energies[sl]
    p = sp.responses[sl]
    i0 = int(np.argmax(p))
    half = 0.5 * (p[i0] + p.min())
    il = i0
    while il > 0 and p[il] > half:
        il -= 1
    ir = i0
    while ir < len(p) - 1 and p[ir] > half:
        ir += 1
    left = np.interp(half, [p[il], p[il + 1]], [e[il], e[il + 1]])
    right = np.interp(half, [p[ir], p[ir - 1]], [e[ir], e[ir - 1]])
    return right - left, e[i0]


class TestNormalizationInvariance:
    def test_smooth_rescale_leaves_peak_structure(self, fig_spectrum):
        # multiplying the response by a gentle linear-in-E factor must
        # not move argmax centers nor the FWHM ratio between peaks
        fn = lambda e: 1.0 + 0.02 * (e - 0.05) / 1.45  # noqa: E731
        scaled = _Rescaled(fig_spectrum, fn)
        w0a, c0a = _fwhm_and_argmax(fig_spectrum, 0)
        w1a, c1a = _fwhm_and_argmax(fig_spectrum, 1)
        w0b, c0b = _fwhm_and_argmax(scaled, 0)
        w1b, c1b = _fwhm_and_argmax(scaled, 1)
        assert c0b == c0a and c1b == c1a
        ratio_a, ratio_b = w1a / w0a, w1b / w0b
        assert abs(ratio_b - ratio_a) / ratio_a <= 1e-3


def _turning_point_wall_roots(spec, center, half_width):
    """Eigenvalues of the trap closed by a hard wall at the outer turning point.

    For x below the edge the ramp is linear, so the closed-problem
    solution is the Airy combination vanishing at the turning point;
    rooting the log-derivative match at the edge gives the bound levels
    with no discretization error.
    """
    geo = trap_geometry(spec)
    sigma = (2.0 * spec.tilt) ** (1.0 / 3.0)
    ai0, aip0, bi0, bip0 = airy(0.0)

    def mismatch(e):
        u_edge = sigma * (geo.edge_height - e) / spec.tilt
        ai, aip, bi, bip = airy(u_edge)
        w = ai * bi0 - bi * ai0
        wp = aip * bi0 - bip * ai0
        val, der = interior_wave(spec, e, spec.edge)
        return der / val - sigma * wp / w

    es = np.linspace(center - half_width, center + half_width, 4001)
    vals = np.array([mismatch(e) for e in es])
    roots = []
    for i in range(len(es) - 1):
        a, b = vals[i], vals[i + 1]
        if np.isfinite(a) and np.isfinite(b) and a * b < 0:
            if min(abs(a), abs(b)) < 50.0:  # skip pole crossings
                roots.append(brentq(mismatch, es[i], es[i + 1], xtol=1e-15))
    return roots


class TestBoundStateProxy:
    @pytest.mark.parametrize(
        "z,f,e_min,e_max",
        [(4.4, 0.5, 0.05, 1.5), (6.0, 0.3, 0.1, 3.0)],
    )
    def test_wall_eigenvalues_match_resonance_centers(self, z, f, e_min, e_max):
        spec = TrapSpec(z, f)
        geo = trap_geometry(spec)
        sp = scan_spectrum(spec, e_min, e_max)
        assert sp.peaks
        checked = 0
        for pk in sp.peaks:
            width = pk.width_estimate
            if geo.edge_height - pk.center <= width:
                continue  # barrier-top resonance: no turning-point separation
            roots = _turning_point_wall_roots(
                spec, pk.center, max(5.0 * width, 1e-4)
            )
            assert roots, f"no wall eigenvalue near {pk.center}"
            best = min(roots, key=lambda r: abs(r - pk.center))
            assert abs(best - pk.center) <= 3.0 * width
            checked += 1
        assert checked >= 1
