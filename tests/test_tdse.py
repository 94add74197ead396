"""Time propagation: unitarity, decay law, absorber quality, splitting.

The propagator is checked against exact stationary behavior (harmonic
recurrence, norm conservation), the spectral linewidths from the
frequency side (exponential decay-law points), and its own convergence
under time-step halving at the decay settings used by the verification
run.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded

from atomprep import _grid, tdse
from atomprep.errors import ConfigurationError, DomainError, NumericalError
from atomprep.potential import TrapSpec, eval_double_well, trap_geometry
from atomprep.resonance import fit_lorentzian
from atomprep.scattering import scan_spectrum
from atomprep.splitting import (
    GridSpec,
    default_grid,
    gap_adaptive_ramp,
    gap_map,
    plan_split_path,
    solve_double_well,
)
from atomprep.tdse import (
    MAX_DT,
    Drive,
    WavePacket,
    _split_drive,
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
    """The eigensolve lowest_levels replaced: explicit stencil and
    eigh_tridiagonal, states normalized on the grid (signs are not compared)."""
    x = spec.points()
    h = spec.spacing
    diag = 1.0 / (h * h) + eval_double_well(separation, tilt, x)
    off = np.full(len(x) - 1, -0.5 / (h * h))
    energies, vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_states - 1)
    )
    return energies, (vecs / math.sqrt(h)).T


def _short_ramp(separation, tilt, duration=40.0):
    """Smoothstep separation ramp with the tilt rising from tilt/2, on 9 knots."""
    return [(duration * s, separation * s * s * (3.0 - 2.0 * s), tilt * (0.5 + 0.5 * s))
            for s in np.linspace(0.0, 1.0, 9)]


def _harmonic_basis(psi0):
    """A one-column basis spanning psi0: its values, unit under the plain sum."""
    values = psi0.values.real
    return (values / np.linalg.norm(values))[:, np.newaxis]


def _harmonic_drive(psi0, weights):
    """Drive of the single profile x^2/2 with the given weight function,
    in the span of psi0."""
    grid = psi0.grid
    return Drive((0.5 * grid * grid)[np.newaxis], weights, _harmonic_basis(psi0))


def _harmonic_ground(half_width=8.0, spacing=0.02):
    grid = uniform_grid(-half_width, half_width, spacing)
    values = np.exp(-0.5 * grid * grid).astype(complex)
    packet = WavePacket(grid=grid, values=values)
    return WavePacket(grid=grid, values=values / math.sqrt(packet.norm)), grid


def _split_run(ramp, dt):
    """The split's K-space run and the reference loop's grid run of one
    ramp, from the ground state at its first row.

    Returns K, the two final states' grid distance, and the two
    infidelities against the ground state at the last row.
    """
    times, seps, tilts = np.array(ramp).T.copy()
    spec = default_grid(float(seps.max()), float(np.abs(tilts).max()), 0.01)
    drive, start, target = _split_drive(times, seps, tilts, spec)
    grid = start.grid
    psi0 = WavePacket(grid=grid, values=start.wavefunctions[0].astype(complex))
    ghost = WavePacket(grid=grid, values=target.wavefunctions[0].astype(complex))

    def potential(t):
        return eval_double_well(float(np.interp(t, times, seps)),
                                float(np.interp(t, times, tilts)), grid)

    run = propagate(psi0, drive, dt, float(times[-1]), min_samples=2).final_state
    want = WavePacket(grid=grid, values=_reference_propagate(psi0, potential, dt,
                                                             float(times[-1])))
    distance = WavePacket(grid=grid, values=run.values - want.values).norm ** 0.5
    return (drive.basis.shape[1], distance, 1.0 - abs(ghost.overlap(run)) ** 2,
            1.0 - abs(ghost.overlap(want)) ** 2)


class TestGridAndPacket:
    def test_uniform_grid_spacing(self):
        grid = uniform_grid(-1.0, 1.0, 0.1)
        assert grid[0] == pytest.approx(-1.0)
        assert grid[-1] >= 1.0 - 1e-12
        assert np.allclose(np.diff(grid), grid[1] - grid[0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("x_lo, x_hi, spacing", [
        (-1.0, 1.0, 0.0), (-1.0, 1.0, math.nan), (-1.0, 1.0, -0.1), (-1.0, math.inf, 0.1),
        (-math.inf, 1.0, 0.1), (math.nan, 1.0, 0.1), (1.0, 1.0, 0.1),
    ], ids=["zero-spacing", "nan-spacing", "negative-spacing", "infinite-hi", "infinite-lo",
            "nan-lo", "empty"])
    def test_uniform_grid_rejects_bad_arguments(self, x_lo, x_hi, spacing):
        with pytest.raises(ConfigurationError, match="grid"):
            uniform_grid(x_lo, x_hi, spacing)

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

    @pytest.mark.parametrize("dt,t_final,n_steps", [
        (0.02, 0.05, 3),  # round(2.5) = 2 steps of 0.025 would exceed MAX_DT
        (0.02, 400.0, 20000),  # an exact multiple keeps its count
        (0.015, 0.05, 3),  # rounded down, but 0.05 / 3 is within MAX_DT
        (0.004, 2.0, 500),
    ])
    def test_steps_never_exceed_max_dt(self, dt, t_final, n_steps, monkeypatch):
        calls = []
        monkeypatch.setattr(_grid, "crank_nicolson",
                            lambda psi, h, step, n, *rest: calls.append((step, n)) or iter(()))
        psi0, grid = _harmonic_ground()
        propagate(psi0, 0.5 * grid * grid, dt, t_final, min_samples=2)
        [(step, n)] = calls
        assert n == n_steps
        assert step <= MAX_DT

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

    def test_driven_potential_turning_non_finite_raises(self, monkeypatch):
        # the weights are checked for every step before the first one runs
        psi0, grid = _harmonic_ground()
        solves = []
        monkeypatch.setattr(_grid, "zgesv", lambda *args: solves.append(args))
        drive = _harmonic_drive(psi0, lambda t: np.where(t < 0.01, 1.0, math.nan)[:, None])
        with pytest.raises(DomainError, match="step 2 of 100"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)
        assert solves == []

    def test_failed_tridiagonal_solve_raises(self, monkeypatch):
        psi0, grid = _harmonic_ground()

        def singular(a, b, *overwrite):
            return a, np.arange(len(b)), b, 3

        monkeypatch.setattr(_grid, "zgesv", singular)
        drive = _harmonic_drive(psi0, lambda t: np.ones((len(t), 1)))
        with pytest.raises(NumericalError, match="step 1"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)

    @pytest.mark.parametrize("shape", ["short rows", "one row, flat"])
    def test_drive_profiles_must_match_grid(self, shape):
        psi0, grid = _harmonic_ground()
        profiles = {"short rows": np.zeros((2, len(grid) - 1)),
                    "one row, flat": 0.5 * grid * grid}[shape]
        drive = Drive(profiles, lambda t: np.ones((len(t), 1)), _harmonic_basis(psi0))
        with pytest.raises(ConfigurationError, match="profiles"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)

    def test_drive_weights_must_have_one_column_per_profile(self):
        psi0, grid = _harmonic_ground()
        drive = _harmonic_drive(psi0, lambda t: np.ones((len(t), 2)))
        with pytest.raises(ConfigurationError, match="weights have shape"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_drive_profiles_raise(self, bad):
        psi0, grid = _harmonic_ground()
        profiles = np.array([0.5 * grid * grid, grid])
        profiles[1, len(grid) // 2] = bad
        drive = Drive(profiles, lambda t: np.ones((len(t), 2)), _harmonic_basis(psi0))
        with pytest.raises(DomainError, match="drive profiles"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)

    @pytest.mark.parametrize("shape", ["short rows", "no columns", "flat"])
    def test_drive_basis_must_match_grid(self, shape):
        psi0, grid = _harmonic_ground()
        basis = {"short rows": _harmonic_basis(psi0)[1:], "no columns": np.zeros((len(grid), 0)),
                 "flat": _harmonic_basis(psi0)[:, 0]}[shape]
        drive = Drive((0.5 * grid * grid)[np.newaxis], lambda t: np.ones((len(t), 1)), basis)
        with pytest.raises(ConfigurationError, match="basis does not match"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)

    def test_non_finite_drive_basis_raises(self):
        psi0, grid = _harmonic_ground()
        basis = _harmonic_basis(psi0)
        basis[len(grid) // 2] = math.nan
        drive = Drive((0.5 * grid * grid)[np.newaxis], lambda t: np.ones((len(t), 1)), basis)
        with pytest.raises(DomainError, match="drive basis"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)

    def test_non_orthonormal_basis_raises(self):
        # columns of unit length, 1e-6 away from orthogonal
        psi0, grid = _harmonic_ground()
        first = _harmonic_basis(psi0)[:, 0]
        odd = grid * first
        odd /= np.linalg.norm(odd)
        skew = odd + 1e-6 * first
        basis = np.column_stack([first, skew / np.linalg.norm(skew)])
        drive = Drive((0.5 * grid * grid)[np.newaxis], lambda t: np.ones((len(t), 1)), basis)
        with pytest.raises(ConfigurationError, match="not orthonormal"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)

    def test_initial_state_outside_basis_raises(self):
        # the harmonic ground state against a basis of its first excited state
        psi0, grid = _harmonic_ground()
        odd = grid * psi0.values.real
        drive = Drive((0.5 * grid * grid)[np.newaxis], lambda t: np.ones((len(t), 1)),
                      (odd / np.linalg.norm(odd))[:, np.newaxis])
        with pytest.raises(ConfigurationError, match="outside the drive basis"):
            propagate(psi0, drive, 0.01, 1.0, min_samples=2)

    def test_callable_potential_raises(self):
        psi0, grid = _harmonic_ground()
        with pytest.raises(ConfigurationError, match="array or a Drive"):
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
        # A 20-unit ramp to (3, 0.12) on 9 knots, run in K-space (K = 26)
        # and by the grid loop.  The grid run leaves the basis's span by
        # a grid distance of 8.8e-6 (against the 2e-5 asserted), too little
        # to show in the infidelity: 4.8e-10 relative (5e-9 asserted).
        size, distance, infidelity, want = _split_run(_short_ramp(3.0, 0.12, 20.0), 0.01)
        assert size < 40
        assert distance <= 2e-5
        assert infidelity == pytest.approx(want, rel=5e-9, abs=0.0)

    @pytest.mark.parametrize("separation,tilt", [(4.82, 0.12), (5.0, 0.14)])
    def test_split_ramps_against_grid_loop(self, separation, tilt):
        # test_short_ramps_pinned's ramps (infidelity 5%): K = 29 and 30,
        # grid distances 5.5e-6 and 5.1e-6 (2e-5 asserted), infidelities
        # 2.1e-11 and 2.7e-10 relative (5e-9 asserted).
        size, distance, infidelity, want = _split_run(_short_ramp(separation, tilt), 0.02)
        assert size < 40
        assert distance <= 2e-5
        assert infidelity == pytest.approx(want, rel=5e-9, abs=0.0)

    def test_driven_run_with_absorber(self):
        # no pipeline drives an absorbed run, and the K-space steps have no
        # absorber term
        grid = uniform_grid(-20.0, 8.0)
        psi0 = WavePacket(grid=grid, values=np.exp(-((grid + 15.0) ** 2) - 4j * grid))
        basis = (psi0.values.real / np.linalg.norm(psi0.values.real))[:, np.newaxis]
        drive = Drive(grid[np.newaxis], lambda t: (0.5 + t)[:, np.newaxis], basis)
        with pytest.raises(ConfigurationError, match="no absorber"):
            propagate(psi0, drive, 0.004, 0.8, absorber=downhill_absorber(grid, 0.0),
                      min_samples=2)

    def test_driven_norm_conserved_over_ten_thousand_steps(self):
        # |c|^2 of the K-space coefficients (K = 8); measured drift: 1.4e-14
        times, seps, tilts = np.array([0.0, 50.0]), np.array([0.0, 3.0]), np.array([0.12, 0.12])
        drive, start, _ = _split_drive(times, seps, tilts, default_grid(3.0, 0.12, 0.02))
        c = drive.basis.T @ (start.wavefunctions[0] * math.sqrt(0.02)).astype(complex)
        for c_end in _grid.driven_crank_nicolson(c, 0.02, 0.005, 10000, drive):
            pass
        assert abs(np.vdot(c_end, c_end).real - np.vdot(c, c).real) <= 1e-12

    @pytest.mark.parametrize(
        "separation,tilt,spec",
        [(4.82, 0.12, None), (0.0, 0.0, GridSpec(8.0, 0.01)), (8.0, 0.0, GridSpec(12.0, 0.002))],
    )
    def test_levels_match_reference_eigensolve(self, separation, tilt, spec):
        # Energies within 2 eps |H|; observed at most 0.37 eps |H| (5.4e-11
        # at h = 0.0015, 1.6e-12 at h = 0.01).  States closer than 1e-3 in
        # energy form one group (the (8, 0) doublet, 5.1e-7 wide); each
        # group spans the reference's subspace to within
        # 2 * _RESIDUAL * sqrt(k) eps |H| over its distance to the nearest
        # other level: Davis-Kahan for either solver, whose residuals are at
        # most _RESIDUAL eps |H| (LAPACK's inverse iteration measured at most
        # 6.4), plus the triangle inequality.  Observed: at most 2.8% of that
        # bound for single states (3.0e-10 for the (4.82, 0.12) ground
        # state, where an extra Rayleigh step moves this solver's vector by
        # 5e-13), and 7% (3.6e-10) for the (8, 0) doublet, whose vectors are
        # each determined only to 8.7e-6.
        levels = solve_double_well(separation, tilt, 3, spec)
        spec = spec or default_grid(separation, tilt)
        energies, waves = _reference_levels(separation, tilt, 4, spec)
        h = spec.spacing
        v_max = float(np.max(eval_double_well(separation, tilt, spec.points())))
        unit = np.finfo(float).eps * (2.0 / (h * h) + v_max)  # eps |H|, row-sum norm
        assert np.max(np.abs(levels.energies - energies[:3])) <= 2.0 * unit
        for group in np.split(np.arange(3), np.flatnonzero(np.diff(energies[:3]) > 1e-3) + 1):
            rest = np.delete(energies, group)
            distance = np.min(np.abs(energies[group][:, None] - rest))
            mine = levels.wavefunctions[group].T * math.sqrt(h)
            ref = waves[group].T * math.sqrt(h)
            outside = np.linalg.norm(mine - ref @ (ref.T @ mine), 2)
            assert outside <= 2.0 * _grid._RESIDUAL * math.sqrt(len(group)) * unit / distance


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

    @pytest.mark.parametrize("k0", [math.nan, math.inf, -math.inf])
    def test_momentum_must_be_finite(self, k0):
        # rejected by name before any grid is built, so numpy never warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="k0 must be positive and finite"):
                absorber_reflection(k0)


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


class TestSplitDrive:
    @pytest.mark.parametrize("separation,tilt", [(4.82, 0.12), (5.0, 0.14)])
    def test_weights_equal_scalar_interpolation(self, separation, tilt):
        times, seps, tilts = np.array(_short_ramp(separation, tilt)).T.copy()
        spec = default_grid(separation, tilt, spacing=0.01)
        midpoints = (np.arange(2000) + 0.5) * 0.02
        got = _split_drive(times, seps, tilts, spec)[0].weights(midpoints)
        for t, row in zip(midpoints, got):
            half = 0.5 * float(np.interp(t, times, seps))
            f = float(np.interp(t, times, tilts))
            assert row.tolist() == [1.0, -half, f, 0.5 * half * half]

    @pytest.mark.parametrize("separation,tilt", [(4.82, 0.12), (5.0, 0.14)])
    def test_profiles_times_weights_equal_the_double_well(self, separation, tilt):
        # On the split's grid (|x| <= 10.63, V < 58) the affine sum rounds
        # differently from eval_double_well: 2.1e-14 at most on both ramps,
        # against the 1e-12 asserted.
        times, seps, tilts = np.array(_short_ramp(separation, tilt)).T.copy()
        spec = default_grid(separation, tilt, spacing=0.01)
        grid = spec.points()
        midpoints = (np.arange(2000) + 0.5) * 0.02
        drive = _split_drive(times, seps, tilts, spec)[0]
        affine = drive.weights(midpoints) @ drive.profiles
        for t, row in zip(midpoints, affine):
            want = eval_double_well(float(np.interp(t, times, seps)),
                                    float(np.interp(t, times, tilts)), grid)
            assert np.max(np.abs(row - want)) <= 1e-12


class TestSplitFidelity:
    @pytest.mark.parametrize(
        "separation,tilt,infidelity",
        # recorded with the per-step potential and explicit right-hand side
        # the drive replaced; 2000 steps each
        [(4.82, 0.12, 0.05144527561285728), (5.0, 0.14, 0.041292745843514944)],
    )
    def test_short_ramps_pinned(self, separation, tilt, infidelity):
        fid = split_fidelity(_short_ramp(separation, tilt), dt=0.02)
        assert 1.0 - fid == pytest.approx(infidelity, rel=1e-8, abs=0.0)


    def test_zero_duration_identity(self):
        assert split_fidelity([(0.0, 0.0, 0.12)]) >= 1.0 - 1e-8

    def test_sudden_quench_fails(self):
        fid = split_fidelity([(0.0, 0.0, 0.12), (1e-6, 4.82, 0.12)])
        assert fid < 0.9

    def test_sudden_quench_equals_grid_run(self):
        # One step of 1e-6 to (4.82, 0.12) in the span of the two rows' 4
        # lowest states (K = 8), from the same start state as the grid
        # loop: the infidelities differ by 1.1e-16, against the 1e-12
        # asserted.
        _, _, infidelity, want = _split_run([(0.0, 0.0, 0.12), (1e-6, 4.82, 0.12)], 0.005)
        assert abs(infidelity - want) <= 1e-12

    def test_snapshot_counts_converged(self, monkeypatch):
        # The paper point: the default survey's path to (4.82, 0.12), 400
        # ramp rows over T = 400, dt = 0.02.  Twice the snapshot rows and 6
        # states a row (K = 30 -> 33) move the infidelity by 1.4e-9
        # relative, against the 1e-7 asserted.
        survey = gap_map((0.0, 5.0), (0.08, 0.16), 26, 5, spacing=0.01)
        path = plan_split_path(survey, 4.82, 0.05, f_bias=0.12)
        ramp = gap_adaptive_ramp(survey, path, 400.0, samples=400)
        infidelity = 1.0 - split_fidelity(ramp, dt=0.02)
        monkeypatch.setattr(tdse, "SNAPSHOT_ROWS", 22)
        monkeypatch.setattr(tdse, "SNAPSHOT_STATES", 6)
        assert 1.0 - split_fidelity(ramp, dt=0.02) == pytest.approx(infidelity, rel=1e-7, abs=0.0)

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
