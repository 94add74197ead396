"""Holding-time selection, the fidelity-loss map, and the SI hold report."""

import concurrent.futures
import math
import os

import numpy as np
import pytest
import scipy.optimize
from pytest import approx

from atomprep import cli, culling
from atomprep.culling import (
    CullingPoint,
    FidelityMap,
    MapCell,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OUT_OF_RANGE,
    culling_point,
    excited_level_estimate,
    excited_state_bound,
    fidelity_map,
    hold_and_restore_report,
    scan_window,
)
from atomprep.errors import DomainError, NumericalError, TrapShapeError
from atomprep.potential import TrapSpec, trap_geometry
from atomprep.resonance import fit_lorentzian
from atomprep.scattering import energy_cap, scan_spectrum
from atomprep.tdse import decay_run
from atomprep.units import UnitSystem

FIG = TrapSpec(4.4, 0.5)
LOG_TARGET = math.log(1e5)
LI6_MASS = 6.0151228 * 1.66053906660e-27


def assemble_point(ratio, t_hold=1370.0, size=4.4, tilt=0.22):
    """Build a CullingPoint from a lifetime ratio without running a scan."""
    gamma1 = LOG_TARGET / t_hold
    return CullingPoint(size=size, tilt=tilt, gamma0=gamma1 / ratio, gamma1=gamma1)


@pytest.fixture(scope="module")
def fig_point():
    return culling_point(4.4, 0.5)


@pytest.fixture(scope="module")
def region_map():
    return fidelity_map((4.0, 5.2), (0.3, 0.7), 5, 5)


@pytest.fixture(scope="module")
def mixed_map():
    # spans all three statuses: shallow shapes are flagged without scanning,
    # (6.0, 0.3) fails in-fit on the width resolution floor
    return fidelity_map((4.0, 6.0), (0.3, 0.5), 3, 2)


class TestCullingPoint:
    def test_figure_point_frozen_values(self, fig_point):
        assert fig_point.gamma0 == approx(1.636275926e-3, rel=1e-6)
        assert fig_point.gamma1 == approx(2.193725168e-1, rel=1e-6)
        assert fig_point.tau0_over_tau1 == approx(134.0682, rel=1e-5)
        assert fig_point.t_hold == approx(52.48117, rel=1e-5)
        assert fig_point.ground_loss == approx(0.0822898, rel=1e-5)
        assert fig_point.log10_loss == approx(-1.084654, rel=1e-5)

    def test_internal_identities(self, fig_point):
        p = fig_point
        assert p.t_hold == approx(LOG_TARGET / p.gamma1, rel=1e-12)
        assert p.ground_loss == approx(-math.expm1(-p.gamma0 * p.t_hold),
                                       rel=1e-12)
        assert p.tau0_over_tau1 == approx(p.gamma1 / p.gamma0, rel=1e-12)
        assert p.log10_loss == approx(math.log10(p.ground_loss), rel=1e-12)
        assert p.fidelity == approx(1.0 - p.ground_loss, rel=1e-12)

    def test_budget_is_bitwise_the_assembled_arithmetic(self, fig_point):
        # reference arithmetic for the derived budget: map files and hold
        # reports carry these numbers, so they must match bit for bit
        for p in (fig_point, assemble_point(50.0), culling_point(4.6, 0.5, 1e-3)):
            t_hold = -math.log(p.residual_target) / p.gamma1
            ground_loss = -math.expm1(-p.gamma0 * t_hold)
            assert p.tau0_over_tau1 == p.gamma1 / p.gamma0
            assert p.t_hold == t_hold
            assert p.ground_loss == ground_loss
            assert p.log10_loss == math.log10(ground_loss)

    def test_first_order_identity_exact(self, fig_point):
        # gamma0 * t_hold * (gamma1/gamma0) telescopes to -ln(residual)
        # irrespective of the fitted widths
        for p in (fig_point, assemble_point(50.0), assemble_point(7.53e5)):
            assert p.gamma0 * p.t_hold * p.tau0_over_tau1 == approx(
                LOG_TARGET, rel=1e-12
            )

    def test_full_loss_identity_in_small_loss_regime(self, region_map):
        # the exponential loss satisfies the budget identity only to first
        # order; the relative defect is ground_loss/2 at leading order
        checked = 0
        for _, _, p in region_map.ok_points():
            if p.ground_loss > 1e-3:
                continue
            rel = abs(p.ground_loss * p.tau0_over_tau1 - LOG_TARGET) / LOG_TARGET
            assert rel <= 0.55 * p.ground_loss + 1e-10
            assert p.gamma0 * p.t_hold * p.tau0_over_tau1 == approx(
                LOG_TARGET, rel=1e-10
            )
            checked += 1
        assert checked >= 3

    def test_headline_ratio_point(self):
        p = assemble_point(7.53e5)
        assert p.ground_loss == approx(LOG_TARGET / 7.53e5, rel=1e-5)
        assert p.fidelity == approx(0.9999847, abs=1e-7)
        assert p.fidelity > 0.99998

    def test_vanishing_ground_width_limit(self):
        losses = [assemble_point(r).ground_loss for r in (1e3, 1e6, 1e9, 1e12)]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-10

    def test_shape_errors(self):
        # too shallow: only one resonance below the barrier
        with pytest.raises(TrapShapeError, match="need the two lowest"):
            culling_point(4.0, 0.5)
        with pytest.raises(TrapShapeError):
            culling_point(4.2, 0.5)
        # too deep: ground width below the scan resolution floor
        with pytest.raises(TrapShapeError, match="resolution floor"):
            culling_point(6.0, 0.3)

    def test_validation(self):
        with pytest.raises(DomainError):
            culling_point(4.4, 0.5, residual_target=0.2)
        with pytest.raises(DomainError):
            culling_point(4.4, 0.5, residual_target=0.0)
        with pytest.raises(DomainError):
            assemble_point(0.5)  # excited state may not outlive the ground
        with pytest.raises(DomainError):
            CullingPoint(size=4.4, tilt=0.2, gamma0=0.0, gamma1=0.1)
        with pytest.raises(DomainError, match="residual_target"):
            CullingPoint(size=4.4, tilt=0.2, gamma0=0.01, gamma1=0.1,
                         residual_target=0.5)


class TestScanWindowAndBoundPredicate:
    def test_scan_window_figure_trap(self):
        lo, hi = scan_window(FIG)
        assert lo == approx(0.02)
        assert hi == approx(1.57)
        assert hi < energy_cap(FIG)

    def test_excited_level_estimate(self):
        assert excited_level_estimate(0.0) == 1.5
        assert excited_level_estimate(0.5) == approx(1.375)

    def test_bound_predicate_known_shapes(self):
        assert excited_state_bound(TrapSpec(4.6, 0.5))
        assert excited_state_bound(TrapSpec(4.2, 0.3))
        assert excited_state_bound(TrapSpec(4.4, 0.22))
        assert not excited_state_bound(TrapSpec(4.0, 0.5))
        # threshold at tilt 0.5 sits between these two sizes
        assert not excited_state_bound(TrapSpec(4.46, 0.5))
        assert excited_state_bound(TrapSpec(4.465, 0.5))

    def test_predicate_matches_geometry(self):
        for z, f in [(4.4, 0.5), (4.6, 0.5), (5.0, 0.3), (4.2, 0.45)]:
            spec = TrapSpec(z, f)
            expected = (
                trap_geometry(spec).edge_height >= excited_level_estimate(f)
            )
            assert excited_state_bound(spec) == expected

    def test_reference_shape_excluded_by_estimate(self, fig_point):
        # the harmonic estimate 1.375 sits above the 1.32 barrier even
        # though the fitted excited level 1.30 lies below it, so the map
        # skips this shape while the direct scan still resolves both widths
        assert not excited_state_bound(FIG)
        assert fig_point.gamma1 > 0.0


class TestFidelityMap:
    def test_grid_and_status_layout(self, region_map):
        assert len(region_map.cells) == 25
        assert len(region_map.status) == 5
        assert all(len(row) == 5 for row in region_map.status)
        counts = {}
        for row in region_map.status:
            for st in row:
                counts[st] = counts.get(st, 0) + 1
        assert counts == {STATUS_OK: 15, STATUS_OUT_OF_RANGE: 10}
        for i, row in enumerate(region_map.status):
            for j, st in enumerate(row):
                cell = region_map.cells[i * 5 + j]
                assert (cell.z, cell.f) == (region_map.z_grid[i], region_map.f_grid[j])
                assert cell.status == st
                assert (cell.point is None) == (st != STATUS_OK)

    def test_high_fidelity_region_exists(self, region_map):
        best = min(p.log10_loss for _, _, p in region_map.ok_points())
        assert best <= -4.7
        assert best == approx(-5.078011, rel=1e-5)

    def test_loss_decreases_with_size(self):
        points = [culling_point(z, 0.5) for z in (4.4, 4.6, 4.8, 5.0)]
        losses = [p.log10_loss for p in points]
        ratios = [p.tau0_over_tau1 for p in points]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_single_point_map_matches_direct(self):
        m = fidelity_map((4.6, 4.6), (0.5, 0.5), 1, 1)
        direct = culling_point(4.6, 0.5)
        assert m.status[0][0] == STATUS_OK
        p = m.cells[0].point
        for name in ("gamma0", "gamma1", "tau0_over_tau1", "t_hold",
                     "ground_loss", "log10_loss"):
            assert getattr(p, name) == getattr(direct, name)

    def test_rows_layout(self, mixed_map):
        rows = list(mixed_map.rows())
        assert len(rows) == 6
        assert all(len(r) == 8 for r in rows)
        assert rows[0][:2] == (4.0, 0.3)
        assert rows[0][-1] == STATUS_OUT_OF_RANGE
        assert all(math.isnan(v) for v in rows[0][2:7])
        by_cell = {(r[0], r[1]): r[-1] for r in rows}
        assert by_cell[(5.0, 0.3)] == STATUS_OK
        assert by_cell[(6.0, 0.3)] == STATUS_ERROR
        assert by_cell[(6.0, 0.5)] == STATUS_OK

    def test_error_cells_carry_notes(self, mixed_map):
        cell = mixed_map.cells[2 * 2 + 0]
        assert (cell.z, cell.f, cell.status) == (6.0, 0.3, STATUS_ERROR)
        assert cell.note.startswith("TrapShapeError")
        assert "resolution floor" in cell.note
        assert [c.note is not None for c in mixed_map.cells] == [
            c.status == STATUS_ERROR for c in mixed_map.cells]

    def test_unconverged_fit_becomes_an_error_cell(self, monkeypatch):
        monkeypatch.setattr(scipy.optimize, "leastsq", lambda *a, **k: (np.ones(4), 5))
        m = fidelity_map((4.6, 4.6), (0.5, 0.5), 1, 1)
        cell = m.cells[0]
        assert cell.status == STATUS_ERROR and cell.point is None
        assert cell.note.startswith("NumericalError: lorentz fit did not converge")

    def test_unexpected_exception_aborts_the_sweep(self, monkeypatch):
        # only culling_point's documented failures become error cells
        def broken(spectrum, peak_index):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(culling, "fit_lorentzian", broken)
        with pytest.raises(ZeroDivisionError):
            fidelity_map((4.6, 4.6), (0.5, 0.5), 1, 1)

    def test_document_structure(self, mixed_map):
        doc = mixed_map.as_document()
        assert sorted(doc.keys()) == ["cells", "f_grid", "residual_target",
                                      "z_grid"]
        assert doc["residual_target"] == 1e-5
        assert len(doc["cells"]) == 6
        by_cell = {(c["z"], c["f"]): c for c in doc["cells"]}
        ok = by_cell[(5.0, 0.3)]
        assert ok["status"] == STATUS_OK
        assert ok["tau0_over_tau1"] == approx(ok["gamma1"] / ok["gamma0"],
                                              rel=1e-12)
        err = by_cell[(6.0, 0.3)]
        assert err["status"] == STATUS_ERROR
        assert "note" in err and "gamma0" not in err
        oor = by_cell[(4.0, 0.5)]
        assert sorted(oor.keys()) == ["f", "status", "z"]

    def test_worker_count_does_not_change_output(self):
        serial = fidelity_map((4.6, 4.8), (0.45, 0.5), 2, 2, workers=1)
        pooled = fidelity_map((4.6, 4.8), (0.45, 0.5), 2, 2, workers=2)
        assert list(serial.rows()) == list(pooled.rows())

    @staticmethod
    def _check_broken_middle_cell(break_airy, call):
        """The three cells of (5.0, 0.3-0.5) share one block, whose scan
        raises: the middle trap loses its Airy Wronskian at one energy of
        its call-th matcher call.  Its cell alone is an error cell."""
        spec = TrapSpec(5.0, 0.4)
        break_airy(spec, scan_window(spec), call)
        with pytest.raises(NumericalError) as alone:
            culling_point(5.0, 0.4)
        m = fidelity_map((5.0, 5.0), (0.3, 0.5), 1, 3)
        ok_low, broken, ok_high = m.cells
        assert broken.status == STATUS_ERROR and broken.point is None
        assert broken.note == f"NumericalError: {alone.value}"
        assert broken.note.startswith("NumericalError: Airy Wronskian lost")
        assert ok_low.point == culling_point(5.0, 0.3)
        assert ok_high.point == culling_point(5.0, 0.5)

    def test_matcher_failure_stays_in_its_cell(self, break_airy):
        # the fourth matcher call matches a bisection level
        self._check_broken_middle_cell(break_airy, 3)

    def test_base_grid_failure_stays_in_its_cell(self, break_airy):
        # the first matcher call matches the base grids
        self._check_broken_middle_cell(break_airy, 0)

    def test_every_cell_failing_on_its_base_grid(self, break_airy):
        # each trap alone, and all of them in one block, fail on the base
        # grid; each error cell carries its own trap's note
        specs = [TrapSpec(z, 0.4) for z in (4.8, 5.0, 5.2)]
        for spec in specs:
            break_airy(spec, scan_window(spec), 0)
        alone = []
        for spec in specs:
            with pytest.raises(NumericalError) as exc:
                culling_point(spec.size, spec.tilt)
            alone.append(f"NumericalError: {exc.value}")
        m = fidelity_map((4.8, 5.2), (0.4, 0.4), 3, 1)
        assert [c.status for c in m.cells] == [STATUS_ERROR] * 3
        assert [c.note for c in m.cells] == alone
        assert len(set(alone)) == 3

    def test_domain_error_of_a_scan_aborts_the_sweep(self, break_airy):
        spec = TrapSpec(5.0, 0.4)
        break_airy(spec, scan_window(spec), 3, DomainError("broken Airy argument"))
        with pytest.raises(DomainError, match="broken Airy argument"):
            fidelity_map((5.0, 5.0), (0.3, 0.5), 1, 3)

    @pytest.mark.parametrize("nz", [3, 2], ids=["four-bound", "two-bound"])
    def test_map_bytes_equal_for_any_worker_count(self, tmp_path, nz):
        # both grids hold all three statuses; the second has fewer bound
        # cells than the largest worker count
        written = {}
        for workers in (1, 2, 3):
            for fmt in ("csv", "json"):
                out = tmp_path / f"map-w{workers}.{fmt}"
                assert cli.run(["fidelity-map", "--zmin", "4.0", "--zmax", "6.0",
                                "--fmin", "0.3", "--fmax", "0.5", "--nz", str(nz),
                                "--nf", "2", "--workers", str(workers), "--format", fmt,
                                "--out", str(out)]) == 0
                written.setdefault(fmt, []).append(out.read_bytes())
        for fmt, outputs in written.items():
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], fmt
        statuses = {c.split(",")[-1] for c in written["csv"][0].decode().splitlines()[1:]}
        assert statuses == {STATUS_OK, STATUS_ERROR, STATUS_OUT_OF_RANGE}

    def test_validation(self):
        with pytest.raises(DomainError):
            fidelity_map((4.0, 5.0), (0.3, 0.5), 0, 3)
        with pytest.raises(DomainError):
            fidelity_map((4.0, 5.0), (0.3, 0.5), 3, 3, residual_target=0.5)
        # grid corner violating tilt < size/2 is rejected before the sweep
        with pytest.raises(DomainError):
            fidelity_map((1.0, 5.0), (0.6, 0.7), 3, 3)
        with pytest.raises(DomainError):
            FidelityMap(z_grid=[4.0, 5.0], f_grid=[0.3],
                        cells=[MapCell(4.0, 0.3, STATUS_OUT_OF_RANGE)],
                        residual_target=1e-5)
        # reversed ranges are rejected, as gap_map rejects them
        for z_range, f_range in (((5.0, 4.0), (0.3, 0.5)), ((4.0, 5.0), (0.5, 0.3))):
            with pytest.raises(DomainError, match="low to high"):
                fidelity_map(z_range, f_range, 2, 2)
        for workers in (0, -2):
            with pytest.raises(DomainError, match="workers"):
                fidelity_map((4.0, 5.0), (0.3, 0.5), 3, 3, workers=workers)

    @staticmethod
    def _fake_pool(monkeypatch, cpus):
        """Record each pool's size and tasks' chunk size; map in-process."""
        sizes, chunks = [], []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                chunks.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        return sizes, chunks

    @pytest.mark.parametrize("workers, cpus, cells, started", [
        (8, 4, 6, 4),    # capped by the CPU count
        (3, 4, 6, 3),    # as asked
        (100, 64, 2, 2),  # capped by the bound-cell count
        (2, 1, 6, None),  # one CPU runs in-process
    ])
    def test_pool_size_is_bounded(self, monkeypatch, workers, cpus, cells, started):
        sizes, chunks = self._fake_pool(monkeypatch, cpus)
        # every cell of this grid is bound and scanned
        m = fidelity_map((4.6, 5.0), (0.45, 0.5), cells // 2, 2, workers=workers)
        assert sizes == ([] if started is None else [started])
        assert chunks == ([] if started is None else [1])  # one block per task
        assert all(st == STATUS_OK for row in m.status for st in row)

    def test_grid_without_bound_cells_starts_no_pool(self, monkeypatch):
        sizes, _ = self._fake_pool(monkeypatch, 4)
        m = fidelity_map((3.0, 4.0), (0.3, 0.7), 3, 2, workers=8)
        assert sizes == []
        assert all(st == STATUS_OUT_OF_RANGE for row in m.status for st in row)


class TestHoldAndRestoreReport:
    def test_si_holding_time_anchor(self):
        p = assemble_point(7.53e5, t_hold=1370.0)
        units = UnitSystem(mass=LI6_MASS, omega=2 * math.pi * 1000.0)
        rep = hold_and_restore_report(p, units)
        assert rep["t_hold_si"] == approx(1370.0 / (2 * math.pi * 1000.0),
                                          rel=1e-12)
        assert rep["t_hold_si"] == approx(0.218, abs=1e-3)

    def test_excited_lifetime_follows_from_residual(self):
        p = assemble_point(7.53e5, t_hold=1370.0)
        units = UnitSystem(mass=LI6_MASS, omega=2 * math.pi * 1000.0)
        rep = hold_and_restore_report(p, units)
        assert rep["tau1_si"] == approx(rep["t_hold_si"] / LOG_TARGET,
                                        rel=1e-12)
        assert rep["tau1_si"] == approx(18.9e-3, abs=1e-4)
        assert rep["excited_residual"] == approx(1e-5, rel=1e-12)

    def test_identity_units_pass_through(self):
        p = assemble_point(100.0, t_hold=52.0)
        rep = hold_and_restore_report(p, UnitSystem(mass=LI6_MASS, omega=1.0))
        assert rep["t_hold_si"] == p.t_hold
        assert rep["tau0_si"] == 1.0 / p.gamma0
        assert rep["tau1_si"] == 1.0 / p.gamma1

    def test_restore_stage_bookkeeping(self):
        p = assemble_point(7.53e5, t_hold=1370.0, size=4.4, tilt=0.22)
        units = UnitSystem(mass=LI6_MASS, omega=2 * math.pi * 1000.0)
        rep = hold_and_restore_report(p, units)
        geo = trap_geometry(TrapSpec(4.4, 0.22))
        assert rep["trap_depth"] == approx(geo.depth, rel=1e-12)
        assert rep["restore_depth_threshold"] == 1.5
        assert rep["depth_above_restore_threshold"] is True
        assert rep["fidelity"] == p.fidelity
        assert "restore" in rep["restore_note"]


class TestHoldSurvivalCrossCheck:
    def test_excited_survival_reaches_residual_at_t_hold(self, fig_point):
        spectrum = scan_spectrum(FIG, *scan_window(FIG))
        excited = fit_lorentzian(spectrum, 1)
        run = decay_run(FIG, excited, t_final=fig_point.t_hold, dt=0.004)
        survival_end = float(run.survival[-1])
        # the sharply cut initial state keeps ~1.6e-3 of its weight in the
        # long-lived ground resonance, which outlives the hold; the trap
        # survival therefore floors three decades above the residual target
        assert survival_end == approx(1e-5, rel=0.1)
