"""Double-well eigensolver and adiabatic path planning.

Oracles: the exact harmonic spectrum at zero separation, the analytic
tilt shift, a WKB estimate of the large-separation tunneling doublet,
and observed second-order convergence of the finite-difference stencil.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from atomprep import _grid
from atomprep.errors import ConfigurationError, DomainError, NumericalError, PathNotFoundError
from atomprep.potential import eval_double_well
from atomprep.splitting import (
    GridSpec,
    default_grid,
    gap_adaptive_ramp,
    gap_map,
    path_gap,
    plan_split_path,
    solve_double_well,
)


class TestSolveDoubleWell:
    def test_harmonic_collapse(self):
        # d = 0, f = 0 is a single harmonic well
        levels = solve_double_well(0.0, 0.0, n_states=3)
        for i, e in enumerate(levels.energies):
            assert e == pytest.approx(0.5 + i, abs=1e-6)

    @pytest.mark.parametrize("f", [0.1, 0.3])
    def test_tilt_shift_identity(self, f):
        # completing the square: a linear tilt rigidly lowers the
        # spectrum by f^2/2 at zero separation
        plain = solve_double_well(0.0, 0.0, n_states=3)
        tilted = solve_double_well(0.0, f, n_states=3)
        for e0, ef in zip(plain.energies, tilted.energies):
            assert ef == pytest.approx(e0 - 0.5 * f * f, abs=1e-6)

    def test_gap_and_wavefunction_structure(self):
        levels = solve_double_well(2.0, 0.05, n_states=2)
        assert levels.gap == pytest.approx(levels.energies[1] - levels.energies[0], rel=1e-14)
        for wf in levels.wavefunctions:
            norm = float(np.trapezoid(wf * wf, levels.grid))
            assert norm == pytest.approx(1.0, abs=1e-8)
        # node counts: ground has none, first excited exactly one
        interior = np.abs(levels.grid) < 6.0
        signs0 = np.sign(levels.wavefunctions[0][interior])
        signs1 = np.sign(levels.wavefunctions[1][interior])
        flips0 = np.count_nonzero(np.diff(signs0[signs0 != 0]))
        flips1 = np.count_nonzero(np.diff(signs1[signs1 != 0]))
        assert flips0 == 0
        assert flips1 == 1

    def test_second_order_convergence(self):
        # ground energy error against a fine-grid reference falls ~h^2
        grid9 = lambda h: GridSpec(half_width=9.6, spacing=h)  # noqa: E731
        ref = solve_double_well(3.0, 0.1, 1, grid9(0.00125)).energies[0]
        hs = np.array([0.04, 0.02, 0.01])
        errs = np.array(
            [abs(solve_double_well(3.0, 0.1, 1, grid9(h)).energies[0] - ref) for h in hs]
        )
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_spacing_halving_stable(self):
        a = solve_double_well(4.82, 0.12, 2, GridSpec(11.0, 0.0015))
        b = solve_double_well(4.82, 0.12, 2, GridSpec(11.0, 0.00075))
        assert abs(a.energies[0] - b.energies[0]) <= 1e-6
        assert abs(a.energies[1] - b.energies[1]) <= 1e-6

    def test_wide_separation_doublet_vs_wkb(self):
        # deep symmetric double well: tunneling splitting within a
        # factor ~1.6 of the standard barrier-action estimate
        levels = solve_double_well(8.0, 0.0, n_states=2, grid_spec=GridSpec(12.0, 0.002))
        gap = levels.gap
        e_mid = 0.5 * (levels.energies[0] + levels.energies[1])
        x_turn = 4.0 - math.sqrt(2.0 * e_mid)

        def kappa(x):
            v = 0.5 * (abs(x) - 4.0) ** 2
            return math.sqrt(2.0 * (v - e_mid))

        action, _ = quad(kappa, -x_turn, x_turn)
        estimate = math.exp(-action) / math.pi
        assert 0.7 <= gap / estimate <= 1.6

    def test_tilt_localizes_ground_state(self):
        levels = solve_double_well(8.0, 0.1, n_states=1)
        assert levels.ground_centroid <= -3.5

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_double_well(-1.0, 0.0)
        with pytest.raises(DomainError):
            solve_double_well(1.0, 0.0, n_states=0)
        with pytest.raises(ConfigurationError):
            solve_double_well(1.0, 0.0, 2, GridSpec(8.0, 0.05))  # too coarse
        with pytest.raises(ConfigurationError):
            GridSpec(-1.0, 0.01)

    @pytest.mark.parametrize("separation,tilt,name", [
        (math.nan, 0.1, "separation"), (math.inf, 0.1, "separation"),
        (1.0, math.nan, "tilt"), (1.0, -math.inf, "tilt"),
    ])
    def test_non_finite_input_named(self, separation, tilt, name):
        # named before the default grid is built from it
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            solve_double_well(separation, tilt)

    def test_default_grid_covers_wells(self):
        gs = default_grid(6.0, 0.2)
        assert gs.half_width >= 3.0 + 1.0  # minima at +-d/2 plus margin
        assert gs.spacing <= 0.04


def _stencil(separation, tilt, spec):
    """Nodes, spacing, potential and the (diagonal, off-diagonal) of H."""
    x, h = spec.points(), spec.spacing
    v = eval_double_well(separation, tilt, x)
    return x, h, v, _grid._diagonal(h, v), _grid._off_diagonal(h)


class TestLevelIteration:
    """lowest_levels: certified indices, the first-lobe sign rule and the
    wall margin."""

    @pytest.mark.parametrize("spec", [GridSpec(12.0, 0.002), GridSpec(10.5, 0.01)])
    def test_sturm_count_matches_eigh_tridiagonal_across_doublets(self, spec):
        # (8, 0): tunnelling doublets 5.1e-7 and 1.5e-5 wide
        x, h, v, diag, off = _stencil(8.0, 0.0, spec)
        levels = eigh_tridiagonal(diag, np.full(len(x) - 1, off), eigvals_only=True,
                                  select="i", select_range=(0, 6))
        for k, level in enumerate(levels[:-1]):
            step = 0.25 * min(np.abs(levels[k] - np.delete(levels, k)))
            assert _grid._count_at_most(diag, off, float(v.min()), level - step) == k
            assert _grid._count_at_most(diag, off, float(v.min()), level + step) == k + 1

    def test_wrong_level_landing_raises(self, monkeypatch):
        # starts that skip the ground state land on levels 1 and 2, and the
        # spare on level 3; the index shift for the missing ground state is
        # moved up to 10, so its iteration lands on a high level too, and the
        # count finds 3 levels at or below level 2
        start_block = _grid._start_block

        def skip_ground(diag, off, shift, width):
            values, vectors = start_block(diag, off, shift, width + 1)
            return values[1:], vectors[:, 1:]

        monkeypatch.setattr(_grid, "_start_block", skip_ground)
        monkeypatch.setattr(_grid, "_index_shifts", lambda *args: np.array([10.0]))
        with pytest.raises(NumericalError, match="not certified"):
            solve_double_well(4.82, 0.12, 2, GridSpec(9.03, 0.01))

    def test_index_shift_finds_the_skipped_level(self, monkeypatch):
        spec = GridSpec(9.03, 0.01)
        want = solve_double_well(4.82, 0.12, 2, spec)
        start_block = _grid._start_block

        def skip_ground(diag, off, shift, width):
            values, vectors = start_block(diag, off, shift, width + 1)
            return values[1:], vectors[:, 1:]

        monkeypatch.setattr(_grid, "_start_block", skip_ground)
        got = solve_double_well(4.82, 0.12, 2, spec)
        assert np.max(np.abs(got.energies - want.energies)) <= 1e-12
        assert np.max(np.abs(got.wavefunctions - want.wavefunctions)) <= 1e-8

    def test_harmonic_levels_to_eight(self):
        # E_n = n + 1/2 - (h^2/32)(2n^2 + 2n + 1) + O(h^4) for the three-point
        # stencil (h^2/24 <p^4>); observed within 0.12% of that shift
        h = 0.0015
        levels = solve_double_well(0.0, 0.0, 8)
        n = np.arange(8)
        shift = h * h / 32.0 * (2 * n * n + 2 * n + 1)
        assert np.all(np.abs(levels.energies - (n + 0.5)) <= 2.0 * shift)

    def test_four_states_certified_where_the_start_block_misses(self):
        # The 32 shapes at h = 0.01 (d 0-9 by 0.25, f 0-0.5 by 0.05) where the
        # start block alone cannot certify 4 states; energies within 2 eps |H|
        # of eigh_tridiagonal (observed at most 0.58 eps |H| over n = 1-12
        # on all 407 shapes)
        shapes = [(6.0, 0.5), (6.25, 0.5), (6.5, 0.5), (6.75, 0.45), (6.75, 0.5),
                  (7.0, 0.45), (7.0, 0.5), (7.25, 0.45), (7.25, 0.5)]
        shapes += [(d, f) for d in (7.5, 7.75, 8.0, 8.25, 8.5) for f in (0.4, 0.45, 0.5)]
        shapes += [(d, f) for d in (8.75, 9.0) for f in (0.35, 0.4, 0.45, 0.5)]
        for separation, tilt in shapes:
            spec = default_grid(separation, tilt, 0.01)
            levels = solve_double_well(separation, tilt, 4, spec)
            x, h, v, diag, off = _stencil(separation, tilt, spec)
            want = eigh_tridiagonal(diag, np.full(len(x) - 1, off), eigvals_only=True,
                                    select="i", select_range=(0, 3))
            unit = np.finfo(float).eps * (2.0 / (h * h) + float(v.max()))
            assert np.max(np.abs(levels.energies - want)) <= 2.0 * unit

    @pytest.mark.parametrize("spacing", [0.01, 0.0015])
    @pytest.mark.parametrize("separation", [6.75, 7.0, 9.0])
    def test_three_states_across_a_tilt_crossing(self, separation, spacing):
        # f = 0.3: levels 2 and 3 are 0.025-0.7 apart, and the one spare
        # start lands on neither
        spec = default_grid(separation, 0.3, spacing)
        levels = solve_double_well(separation, 0.3, 3, spec)
        x, h, v, diag, off = _stencil(separation, 0.3, spec)
        want = eigh_tridiagonal(diag, np.full(len(x) - 1, off), eigvals_only=True,
                                select="i", select_range=(0, 2))
        unit = np.finfo(float).eps * (2.0 / (h * h) + float(v.max()))
        assert np.max(np.abs(levels.energies - want)) <= 2.0 * unit

    @pytest.mark.parametrize("n_states", [1, 3])
    def test_partner_within_the_count_margin(self, n_states):
        # (12, 0): each doublet is narrower than the count margin, so the
        # count at the top state's level is n_states + 1 and no count can
        # split the pair; the top state is either member
        spec = GridSpec(18.5, 0.01)
        levels = solve_double_well(12.0, 0.0, n_states, spec)
        x, h, v, diag, off = _stencil(12.0, 0.0, spec)
        want = eigh_tridiagonal(diag, np.full(len(x) - 1, off), eigvals_only=True,
                                select="i", select_range=(0, n_states))
        margin = n_states * _grid._RESIDUAL * np.finfo(float).eps * (
            float(np.max(np.abs(diag))) + 2.0 * abs(off))
        assert want[n_states] - want[n_states - 1] <= margin
        assert np.max(np.abs(levels.energies - want[:n_states])) <= margin

    @pytest.mark.parametrize(
        "separation,tilt,spec",
        [(8.0, 0.0, GridSpec(12.0, 0.002)), (0.0, 0.0, GridSpec(8.0, 0.01)),
         (4.82, 0.12, None), (2.0, 0.0, GridSpec(8.5, 0.01))],
    )
    def test_first_lobe_positive(self, separation, tilt, spec):
        levels = solve_double_well(separation, tilt, 3, spec)
        for row in levels.wavefunctions:
            mag = np.abs(row)
            assert row[np.argmax(mag >= 0.1 * mag.max())] > 0.0
        # a nodeless ground state is positive throughout, so its integral is too
        assert np.all(levels.wavefunctions[0] >= -1e-12)
        assert _grid.integral(levels.grid, levels.grid[1] - levels.grid[0],
                              levels.wavefunctions[0]) > 0.0

    @pytest.mark.parametrize(
        "separation,tilt,spec",
        [(8.0, 0.0, GridSpec(12.0, 0.002)), (0.0, 0.0, GridSpec(8.0, 0.01)),
         (2.0, 0.0, GridSpec(8.5, 0.01))],
    )
    def test_one_ulp_nudge_flips_no_sign(self, separation, tilt, spec):
        # the odd states' trapezoid integrals are round-off (5e-13 at
        # (0, 0)) or doublet mixing (3e-6 at (8, 0)); their first lobes are not
        x, h, v, _, _ = _stencil(separation, tilt, spec)
        _, base = _grid.lowest_levels(h, v, 3)
        up, down = np.nextafter(v, np.inf), np.nextafter(v, -np.inf)
        for nudged in (up, np.where(x < 0.0, up, v), np.where(x > 0.0, down, v)):
            _, moved = _grid.lowest_levels(h, nudged, 3)
            assert np.all(np.sum(base * moved, axis=1) > 0.0)

    @pytest.mark.parametrize("spacing", [0.01, 0.0015])
    @pytest.mark.parametrize("separation,tilt", [(0.0, 0.0), (4.82, 0.12), (8.0, 0.1)])
    def test_levels_insensitive_to_wall_margin(self, separation, tilt, spacing):
        # Walls GRID_MARGIN = 6.5 and 12.5 beyond the minima: 6.0 apart, a
        # whole number of nodes at both spacings, so only the walls move.
        # (At margin 12 the nodes at h = 0.0015 shift against the cusp at
        # x = 0 and the levels of (4.82, 0.12) move by 6.4e-8.)  Measured
        # difference at most 1.8e-12.
        near = solve_double_well(separation, tilt, 4, default_grid(separation, tilt, spacing))
        far = solve_double_well(separation, tilt, 4, GridSpec(
            0.5 * separation + abs(tilt) + 12.5, spacing))
        assert np.max(np.abs(near.energies - far.energies)) <= 1e-9


    @pytest.mark.parametrize("separation,tilt", [(4.82, 0.12), (2.0, 0.05)])
    def test_levels_insensitive_to_a_part_node_margin(self, separation, tilt):
        # Margin 7 moves the walls by 333.33 nodes at h = 0.0015; rounded
        # outward to whole spacings, the cusp at x = 0 stays a node.  Observed
        # at most 7.7e-13 (6.4e-8 and 1.5e-7 with the cusp between nodes).
        near = solve_double_well(separation, tilt, 4, default_grid(separation, tilt))
        far = solve_double_well(separation, tilt, 4, GridSpec(
            0.5 * separation + abs(tilt) + 7.0, 0.0015))
        assert np.max(np.abs(near.energies - far.energies)) <= 1e-11

    @pytest.mark.parametrize("spec", [GridSpec(9.03, 0.01), GridSpec(9.0301, 0.0015)])
    def test_cusp_on_a_node(self, spec):
        x = spec.points()
        assert np.count_nonzero(x == 0.0) == 1
        assert x[0] - spec.spacing <= -spec.half_width
        assert x[-1] + spec.spacing >= spec.half_width


@pytest.fixture(scope="module")
def small_map():
    return gap_map((0.0, 5.0), (0.0, 0.15), 6, 4, spacing=0.01)


class TestGapMap:
    def test_shapes_and_rows(self, small_map):
        rows = list(small_map.rows())
        assert len(rows) == 24
        assert all(len(r) == 6 for r in rows)

    def test_zero_separation_column_is_harmonic(self, small_map):
        # at d = 0 the gap is the harmonic spacing regardless of tilt
        for j in range(len(small_map.tilts)):
            assert small_map.gaps[0, j] == pytest.approx(1.0, abs=1e-4)

    def test_gap_shrinks_with_separation(self, small_map):
        col = small_map.gaps[:, 0]  # f = 0 row across separations
        assert all(a > b for a, b in zip(col, col[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            gap_map((0.0, 5.0), (0.0, 0.1), 0, 3)
        with pytest.raises(DomainError):
            gap_map((5.0, 0.0), (0.0, 0.1), 3, 3)

    @pytest.mark.parametrize("d_range,f_range", [
        ((0.0, 1.0), (math.nan, 0.1)), ((0.0, math.nan), (0.0, 0.1)), ((0.0, 1.0), (0.0, math.inf)),
    ])
    def test_non_finite_range_named(self, d_range, f_range):
        with pytest.raises(DomainError, match="^ranges must be finite"):
            gap_map(d_range, f_range, 2, 2)

    def test_bad_spacing_raises(self):
        # no cell can be solved, so the survey raises instead of
        # returning a table of unsolved cells
        with pytest.raises(ConfigurationError):
            gap_map((0.0, 1.0), (0.0, 0.1), 2, 2, spacing=0.0)


def _reference_ramp(survey, path, duration, samples):
    """gap_adaptive_ramp one sample at a time: a nearest-node gap lookup
    and two scalar interpolations per sample."""
    pts = np.asarray(path, dtype=float)
    seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
    arc = np.concatenate(([0.0], np.cumsum(seg)))

    def at(s):
        return float(np.interp(s, arc, pts[:, 0])), float(np.interp(s, arc, pts[:, 1]))

    def gap(d, f):
        i = int(np.argmin(np.abs(survey.separations - d)))
        j = int(np.argmin(np.abs(survey.tilts - f)))
        return float(survey.gaps[i, j])

    s_fine = np.linspace(0.0, arc[-1], samples)
    inv = np.array([1.0 / gap(*at(s)) ** 2 for s in s_fine])
    pseudo = np.concatenate(
        ([0.0], np.cumsum(0.5 * (inv[1:] + inv[:-1]) * np.diff(s_fine)))
    )
    times = np.linspace(0.0, duration, samples)
    u = times / duration
    progress = (u * u * (3.0 - 2.0 * u)) * pseudo[-1]
    s_of_t = np.interp(progress, pseudo, s_fine)
    return [(float(t), *at(float(s))) for t, s in zip(times, s_of_t)]


@pytest.fixture(scope="module")
def survey():
    return gap_map((0.0, 5.0), (0.08, 0.16), 26, 5, spacing=0.01)


class TestSurveyPinned:
    # The default split-gap survey as recorded before the level iteration
    # and the 6.5 wall margin: e0, e1 and gaps within 1e-10, centroids
    # within 1e-9 (moved by at most 3.1e-12 and 1.1e-11).
    CELLS = {
        (0, 2): (0.49279687497824365, 1.492784374825272, -0.12000000000012101),
        (12, 0): (0.3131439953664499, 0.6734682933585793, -0.6431057794734457),
        (24, 2): (0.2045407113740318, 0.7795802259180465, -2.518217487253821),
        (25, 4): (0.08708811587483065, 0.8860883266490638, -2.6592640507799676),
    }

    def test_named_cells(self, survey):
        for (i, j), (e0, e1, centroid) in self.CELLS.items():
            assert abs(survey.e0[i, j] - e0) <= 1e-10
            assert abs(survey.e1[i, j] - e1) <= 1e-10
            assert abs(survey.gaps[i, j] - (e1 - e0)) <= 1e-10
            assert abs(survey.centroids[i, j] - centroid) <= 1e-9

    def test_bottleneck_gap(self, survey):
        path = plan_split_path(survey, 4.82, 0.05, f_bias=0.12)
        assert len(path) == 27
        bottleneck = min(path_gap(survey, node) for node in path)
        assert bottleneck == pytest.approx(0.4568307376310239, rel=1e-10, abs=0.0)


class TestPathPlanning:

    def test_plan_reaches_target(self, survey):
        path = plan_split_path(survey, 4.82, 0.05, f_bias=0.12)
        assert path[0][0] == 0.0
        assert path[-1][0] == pytest.approx(4.82)
        ds = [p[0] for p in path]
        assert all(b >= a for a, b in zip(ds, ds[1:]))
        gaps = [path_gap(survey, p) for p in path]
        assert min(gaps) >= 0.05

    def test_unreachable_gap_floor(self, survey):
        with pytest.raises(PathNotFoundError) as err:
            plan_split_path(survey, 4.82, 0.5, f_bias=0.12)
        # the planner reports the best achievable bottleneck
        assert 0.3 < err.value.bottleneck_gap < 0.5

    def test_adaptive_ramp_structure(self, survey):
        path = plan_split_path(survey, 4.82, 0.05, f_bias=0.12)
        ramp = gap_adaptive_ramp(survey, path, 400.0, samples=400)
        assert len(ramp) == 400
        times = np.array([r[0] for r in ramp])
        seps = np.array([r[1] for r in ramp])
        tilts = np.array([r[2] for r in ramp])
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(400.0)
        assert np.all(np.diff(times) > 0)
        assert np.all(np.diff(seps) >= -1e-12)
        assert seps[-1] == pytest.approx(4.82)
        # the maximin route may detour through larger tilt mid-ramp but
        # starts and ends on the requested bias, inside the survey range
        assert tilts[0] == pytest.approx(0.12)
        assert tilts[-1] == pytest.approx(0.12)
        assert np.all((tilts >= 0.08 - 1e-12) & (tilts <= 0.16 + 1e-12))
        # smoothstep: the ramp starts and ends at rest
        dd = np.diff(seps)
        assert dd[0] <= 0.25 * dd.max()
        assert dd[-1] <= 0.25 * dd.max()

    @pytest.mark.parametrize("d_target,f_bias", [(4.82, 0.12), (3.0, 0.16)])
    def test_ramp_equals_per_sample_reference(self, survey, d_target, f_bias):
        path = plan_split_path(survey, d_target, 0.05, f_bias=f_bias)
        for duration, samples in ((400.0, 400), (160.0, len(path))):
            ramp = gap_adaptive_ramp(survey, path, duration, samples=samples)
            assert ramp == _reference_ramp(survey, path, duration, samples)

    def test_nan_target_or_gap_floor_raises(self, survey):
        # a NaN used to plan a path to the survey's last separation, or to
        # accept any bottleneck
        with pytest.raises(DomainError, match="d_target"):
            plan_split_path(survey, math.nan, 0.05, f_bias=0.12)
        with pytest.raises(DomainError, match="min_gap"):
            plan_split_path(survey, 4.82, math.nan, f_bias=0.12)

    def test_bias_outside_survey_tilts_raises(self, survey):
        # the survey spans tilts 0.08-0.16; a bias between nodes is allowed
        assert plan_split_path(survey, 1.0, 0.05, f_bias=0.13)[0][0] == 0.0
        for f_bias in (0.5, 0.07, -0.12):
            with pytest.raises(DomainError, match="tilts"):
                plan_split_path(survey, 4.82, 0.05, f_bias=f_bias)

    def test_ramp_validation(self, survey):
        path = plan_split_path(survey, 4.82, 0.05, f_bias=0.12)
        with pytest.raises(DomainError):
            gap_adaptive_ramp(survey, path, -1.0)
        for duration in (math.nan, math.inf):
            with pytest.raises(DomainError, match="duration"):
                gap_adaptive_ramp(survey, path, duration)
        with pytest.raises(DomainError):
            gap_adaptive_ramp(survey, path, 100.0, samples=3)
