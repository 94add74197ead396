"""Time propagation: unitarity, decay law, absorber quality, splitting.

The propagator is checked against exact stationary behavior (harmonic
recurrence, norm conservation), the spectral linewidths from the
frequency side (exponential decay-law points), and its own convergence
under time-step halving at the decay settings used by the verification
run.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded

from atomprep import _grid
from atomprep.errors import ConfigurationError, DomainError, NumericalError
from atomprep.potential import TrapSpec, eval_double_well, trap_geometry
from atomprep.resonance import fit_lorentzian
from atomprep.scattering import scan_spectrum
from atomprep.splitting import GridSpec, default_grid, solve_double_well
from atomprep.tdse import (
    MAX_DT,
    WavePacket,
    absorber_reflection,
    decay_run,
    downhill_absorber,
    propagate,
    split_fidelity,
    truncated_resonance_state,
    uniform_grid,
)

FIG = TrapSpec(4.4, 0.5)


def _reference_propagate(psi0, potential, dt, t_final, absorber=None):
    """Final state of the original per-step Crank-Nicolson loop.

    The band is rebuilt and handed to solve_banded at every step; kept
    as the reference the shared stepper must reproduce.
    """
    grid, h = psi0.grid, psi0.spacing
    n_steps = max(1, int(round(t_final / dt)))
    step = t_final / n_steps
    pot = potential if callable(potential) else (lambda t: potential)
    k_off = -0.5 / (h * h)
    k_diag = 1.0 / (h * h)
    psi = psi0.values.astype(complex).copy()
    band = np.zeros((3, len(grid)), dtype=complex)
    for k in range(n_steps):
        diag = k_diag + pot((k + 0.5) * step).astype(complex)
        if absorber is not None:
            diag = diag - 1j * absorber
        a_main = 1.0 + 0.5j * step * diag
        a_off = 0.5j * step * k_off
        b_main = 1.0 - 0.5j * step * diag
        rhs = b_main * psi
        rhs[1:] -= a_off * psi[:-1]
        rhs[:-1] -= a_off * psi[1:]
        band[0, 1:] = a_off
        band[1, :] = a_main
        band[2, :-1] = a_off
        psi = solve_banded((1, 1), band, rhs)
    return psi


def _reference_levels(separation, tilt, n_states, spec):
    """Original eigensolve: explicit stencil, eigh_tridiagonal, trapezoid sign rule."""
    x = spec.points()
    h = spec.spacing
    diag = 1.0 / (h * h) + eval_double_well(separation, tilt, x)
    off = np.full(len(x) - 1, -0.5 / (h * h))
    energies, vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_states - 1)
    )
    waves = (vecs / math.sqrt(h)).T.copy()
    for row in waves:
        if np.trapezoid(row, x) < 0.0:
            row *= -1.0
    return energies, waves


def _harmonic_ground(half_width=8.0, spacing=0.02):
    grid = uniform_grid(-half_width, half_width, spacing)
    values = np.exp(-0.5 * grid * grid).astype(complex)
    packet = WavePacket(grid=grid, values=values)
    return WavePacket(grid=grid, values=values / math.sqrt(packet.norm)), grid


class TestGridAndPacket:
    def test_uniform_grid_spacing(self):
        grid = uniform_grid(-1.0, 1.0, 0.1)
        assert grid[0] == pytest.approx(-1.0)
        assert grid[-1] >= 1.0 - 1e-12
        assert np.allclose(np.diff(grid), grid[1] - grid[0], rtol=0, atol=1e-15)

    def test_norm_and_overlap(self):
        psi, grid = _harmonic_ground()
        assert psi.norm == pytest.approx(1.0, rel=1e-12)
        assert abs(psi.overlap(psi) - 1.0) < 1e-12

    def test_overlap_needs_matching_grids(self):
        psi, _ = _harmonic_ground()
        other, _ = _harmonic_ground(half_width=6.0)
        with pytest.raises(ConfigurationError):
            psi.overlap(other)


class TestTruncatedState:
    def test_unit_norm(self, ground_res):
        grid = uniform_grid(-4.0, 4.0, 0.005)
        state = truncated_resonance_state(FIG, ground_res, grid)
        # normalization shares the sharp-cutoff cell weights of the
        # survival functional; the plain trapezoid norm differs by the
        # half cell carrying the jump at the edge, |psi(edge)|^2 dx / 2
        edge_idx = int(np.argmin(np.abs(grid + 0.5 * FIG.size)))
        halfcell = 0.5 * abs(state.values[edge_idx]) ** 2 * state.spacing
        assert state.norm == pytest.approx(1.0, abs=2.0 * halfcell + 1e-12)
        outside = np.abs(grid) > 0.5 * FIG.size
        assert np.all(state.values[outside] == 0.0)

    def test_deep_trap_ground_is_gaussian(self):
        # zero tilt, deep trap: the lowest interior solution at E = 1/2
        # reduces to the harmonic ground state
        spec = TrapSpec(12.0, 0.0)
        grid = uniform_grid(-7.0, 7.0, 0.005)
        state = truncated_resonance_state(spec, 0.5, grid)
        # no edge discontinuity here, so trapezoid and cutoff weights agree
        assert state.norm == pytest.approx(1.0, abs=1e-10)
        gauss = np.exp(-0.5 * grid * grid)
        gauss /= math.sqrt(float(np.trapezoid(gauss * gauss, grid)))
        fidelity = abs(np.trapezoid(gauss * state.values.real, grid)) ** 2
        assert fidelity >= 0.999

    def test_near_orthogonality_of_levels(self):
        spec = TrapSpec(12.0, 0.0)
        grid = uniform_grid(-7.0, 7.0, 0.005)
        ground = truncated_resonance_state(spec, 0.5, grid)
        excited = truncated_resonance_state(spec, 1.5, grid)
        assert abs(ground.overlap(excited)) <= 1e-3

    def test_grid_must_cover_trap(self, ground_res):
        grid = uniform_grid(-1.0, 1.0, 0.005)
        with pytest.raises(ConfigurationError):
            truncated_resonance_state(FIG, ground_res, grid)


class TestPropagate:
    def test_harmonic_recurrence(self):
        psi0, grid = _harmonic_ground()
        run = propagate(psi0, 0.5 * grid * grid, 0.004, 2.0 * math.pi)
        fidelity = abs(psi0.overlap(run.final_state)) ** 2
        assert fidelity >= 0.9999

    def test_unitarity_over_long_run(self):
        # 1e4 steps without absorber: norm drift below 1e-8
        psi0, grid = _harmonic_ground()
        run = propagate(psi0, 0.5 * grid * grid, 0.004, 40.0)
        assert abs(run.final_state.norm - 1.0) <= 1e-8

    def test_survival_starts_at_one(self, ground_res):
        run = decay_run(FIG, ground_res, 2.0, dt=0.01)
        assert run.survival[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(run.survival >= 0.0)
        assert len(run.times) >= 100

    def test_time_step_bound(self):
        psi0, grid = _harmonic_ground()
        with pytest.raises(ConfigurationError):
            propagate(psi0, 0.5 * grid * grid, MAX_DT + 1e-3, 1.0)

    def test_sample_budget_enforced(self):
        psi0, grid = _harmonic_ground()
        with pytest.raises(ConfigurationError):
            propagate(psi0, 0.5 * grid * grid, 0.01, 0.05)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_non_finite_duration_raises(self, t_final):
        psi0, grid = _harmonic_ground()
        with pytest.raises(DomainError, match="t_final"):
            propagate(psi0, 0.5 * grid * grid, 0.01, t_final)

    @pytest.mark.parametrize("where", ["initial state", "potential", "absorber"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arrays_raise(self, where, bad):
        psi0, grid = _harmonic_ground()
        arrays = {"initial state": psi0.values.copy(), "potential": 0.5 * grid * grid,
                  "absorber": np.zeros_like(grid)}
        arrays[where][len(grid) // 2] = bad
        psi0 = WavePacket(grid=grid, values=arrays["initial state"])
        with pytest.raises(DomainError, match=where):
            propagate(psi0, arrays["potential"], 0.01, 1.0, absorber=arrays["absorber"],
                      min_samples=2)

    def test_driven_potential_turning_non_finite_raises(self):
        psi0, grid = _harmonic_ground()

        def potential(t):
            return 0.5 * grid * grid if t < 0.01 else np.full_like(grid, math.nan)

        with pytest.raises(DomainError, match="step 2 of 100"):
            propagate(psi0, potential, 0.01, 1.0, min_samples=2)

    def test_failed_tridiagonal_solve_raises(self, monkeypatch):
        psi0, grid = _harmonic_ground()

        def singular(dl, d, du, b, *overwrite):
            return dl, d, du, b, 3

        monkeypatch.setattr(_grid, "zgtsv", singular)
        with pytest.raises(NumericalError, match="step 1"):
            propagate(psi0, lambda t: 0.5 * grid * grid, 0.01, 1.0, min_samples=2)


class TestAgainstReferenceLoop:
    def test_static_run_with_absorber(self):
        # a packet sliding down a tilt into the absorbing ramp
        grid = uniform_grid(-20.0, 8.0)
        psi0 = WavePacket(grid=grid, values=np.exp(-((grid + 15.0) ** 2) - 4j * grid))
        potential = 0.5 * grid
        cap = downhill_absorber(grid, 0.0)
        run = propagate(psi0, potential, 0.004, 0.8, absorber=cap, min_samples=2)
        want = _reference_propagate(psi0, potential, 0.004, 0.8, absorber=cap)
        assert np.array_equal(run.final_state.values, want)
        assert run.final_state.norm < 0.5 * psi0.norm

    def test_driven_double_well_run(self):
        start = solve_double_well(0.0, 0.12, 1, default_grid(3.0, 0.12, 0.01))
        grid = start.grid
        psi0 = WavePacket(grid=grid, values=start.wavefunctions[0].astype(complex))

        def potential(t):
            return eval_double_well(3.0 * t, 0.12, grid)

        run = propagate(psi0, potential, 0.005, 1.0, min_samples=2)
        want = _reference_propagate(psi0, potential, 0.005, 1.0)
        assert np.array_equal(run.final_state.values, want)

    @pytest.mark.parametrize(
        "separation,tilt,spec",
        [(4.82, 0.12, None), (0.0, 0.0, GridSpec(8.0, 0.01)), (8.0, 0.0, GridSpec(12.0, 0.002))],
    )
    def test_levels_match_reference_eigensolve(self, separation, tilt, spec):
        levels = solve_double_well(separation, tilt, 3, spec)
        spec = spec or default_grid(separation, tilt)
        energies, waves = _reference_levels(separation, tilt, 3, spec)
        assert np.array_equal(levels.energies, energies)
        assert np.array_equal(levels.wavefunctions, waves)


class TestAbsorber:
    def test_profile_zero_uphill_of_edge(self):
        grid = uniform_grid(-40.0, 10.0, 0.02)
        cap = downhill_absorber(grid, 0.0)
        assert np.all(cap >= 0.0)
        assert np.all(cap[grid > -30.0] == 0.0)  # ramp sits in the outer 20%

    def test_reflection_small_at_escape_momentum(self):
        # quasi-bound decay products reach the ramp at k ~ 3-6 after
        # falling down the tilt; the quadratic absorber is transparent
        # there even though slow packets (k ~ 1) see a harder wall
        assert absorber_reflection(3.0) <= 1e-4

    def test_reflection_monotone_in_momentum(self):
        refl = [absorber_reflection(k) for k in (1.0, 1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(refl, refl[1:]))

    def test_momentum_must_be_positive(self):
        with pytest.raises(DomainError):
            absorber_reflection(0.0)


class TestExponentialLaw:
    @pytest.mark.parametrize("z,f", [(5.1, 0.55), (5.2, 0.5)])
    def test_ln_survival_linear_with_spectral_slope(self, z, f):
        spec = TrapSpec(z, f)
        sp = scan_spectrum(spec, 0.05, 1.5)
        res = fit_lorentzian(sp, 1)
        run = decay_run(spec, res, 2.05 * res.tau, dt=0.004)
        mask = (run.times >= 0.1 * res.tau) & (run.times <= 2.0 * res.tau)
        x, y = run.times[mask], np.log(run.survival[mask])
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        r_sq = 1.0 - float(np.sum((y - pred) ** 2)) / float(np.sum((y - np.mean(y)) ** 2))
        assert r_sq >= 0.999
        assert -slope == pytest.approx(res.gamma, rel=0.05)


class TestConvergence:
    def test_halving_dt_at_decay_settings(self, excited_res):
        # settings of the decay-law verification run
        t_final = 2.0 * excited_res.tau
        coarse = decay_run(FIG, excited_res, t_final, dt=0.0005)
        fine = decay_run(FIG, excited_res, t_final, dt=0.00025)
        assert abs(coarse.survival[-1] - fine.survival[-1]) <= 1e-6


class TestSplitFidelity:
    def test_zero_duration_identity(self):
        assert split_fidelity([(0.0, 0.0, 0.12)]) >= 1.0 - 1e-8

    def test_sudden_quench_fails(self):
        fid = split_fidelity([(0.0, 0.0, 0.12), (1e-6, 4.82, 0.12)])
        assert fid < 0.9

    def test_ramp_validation(self):
        with pytest.raises(DomainError):
            split_fidelity([])
        with pytest.raises(DomainError):
            split_fidelity([(0.5, 0.0, 0.1), (1.0, 1.0, 0.1)])  # late start
        with pytest.raises(DomainError):
            split_fidelity([(0.0, 1.0, 0.1), (1.0, 2.0, 0.1)])  # d0 != 0
        with pytest.raises(DomainError):
            split_fidelity([(0.0, 0.0, 0.1), (1.0, 1.0, 0.1), (1.0, 2.0, 0.1)])
        with pytest.raises(DomainError):
            split_fidelity([(0.0, 0.0, 0.1), (1.0, 2.0, 0.1), (2.0, 1.0, 0.1)])

    @pytest.mark.parametrize(
        "ramp",
        [
            [(0.0, 0.0, 0.1), (math.nan, 1.0, 0.1)],
            [(0.0, 0.0, 0.1), (math.inf, 1.0, 0.1)],
            [(0.0, 0.0, 0.1), (1.0, math.nan, 0.1)],
            [(0.0, 0.0, math.nan), (1.0, 1.0, 0.1)],
        ],
    )
    def test_non_finite_ramp_entries_raise(self, ramp):
        with pytest.raises(DomainError, match="ramp"):
            split_fidelity(ramp)
