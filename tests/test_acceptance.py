"""End-to-end release gate: ten headline checks, one summary line each.

Every test recomputes its pipeline from scratch, prints the measured
numbers on a single [PASS]/[FAIL] line, then enforces the stated
tolerances with plain asserts, so the printed record and the pytest
verdict always agree.
"""

import math
import time

import numpy as np
from pytest import approx
from scipy import stats

from atomprep import cli
from atomprep import specfun as sf
from atomprep.culling import CullingPoint, culling_point, fidelity_map
from atomprep.dfg import FORMULA_NOTES, pairing_gap, thermal_ground_occupation
from atomprep.potential import TrapSpec, trap_geometry
from atomprep.resonance import (
    fit_lorentzian,
    survival_exponential,
    survival_from_spectrum,
)
from atomprep.scattering import scan_spectrum
from atomprep.splitting import (
    GridSpec,
    gap_adaptive_ramp,
    gap_map,
    plan_split_path,
    solve_double_well,
)
from atomprep.tdse import decay_run, split_fidelity

FIG = TrapSpec(4.4, 0.5)
LOG_TARGET = math.log(1e5)


def report(capsys, tag: str, ok: bool, detail: str) -> None:
    # lift the capture so the line lands in the live test log
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}", flush=True)


def test_01_resonance_positions_and_edge(capsys):
    t0 = time.perf_counter()
    sp = scan_spectrum(FIG, 0.05, 1.5)
    ground = fit_lorentzian(sp, 0)
    excited = fit_lorentzian(sp, 1)
    edge = trap_geometry(FIG).edge_height
    elapsed = time.perf_counter() - t0
    dev0 = abs(ground.e0 - 0.366)
    dev1 = abs(excited.e0 - 1.29)
    ok = (dev0 <= 0.015 and dev1 <= 0.03
          and edge == approx(1.32, abs=1e-12) and elapsed <= 60.0)
    report(capsys, "1 resonance positions", ok,
           f"ground {ground.e0:.5f} (dev {dev0:.4f} <= 0.015), "
           f"excited {excited.e0:.5f} (dev {dev1:.4f} <= 0.03), "
           f"edge {edge:.4f} = 1.32, {elapsed:.1f}s <= 60s")
    assert dev0 <= 0.015
    assert dev1 <= 0.03
    assert edge == approx(1.32, abs=1e-12)
    assert elapsed <= 60.0


def test_02_ground_lineshape_is_lorentzian(capsys):
    t0 = time.perf_counter()
    sp = scan_spectrum(FIG, 0.05, 1.5)
    ground = fit_lorentzian(sp, 0)
    elapsed = time.perf_counter() - t0
    ok = (ground.fit_residual_lorentz < ground.fit_residual_gauss
          and elapsed <= 10.0)
    report(capsys, "2 ground lineshape", ok,
           f"lorentz residual {ground.fit_residual_lorentz:.2e} < "
           f"gauss residual {ground.fit_residual_gauss:.2e}, "
           f"{elapsed:.1f}s <= 10s")
    assert ground.fit_residual_lorentz < ground.fit_residual_gauss
    assert elapsed <= 10.0


def test_03_decay_law(capsys):
    t0 = time.perf_counter()
    sp = scan_spectrum(FIG, 0.05, 1.5)
    ground = fit_lorentzian(sp, 0)
    excited = fit_lorentzian(sp, 1)
    tau1 = excited.tau
    run = decay_run(FIG, excited, t_final=2.0 * tau1, dt=0.0005)
    mask = (run.times >= 0.1 * tau1) & (run.times <= 2.0 * tau1)
    line = stats.linregress(run.times[mask], np.log(run.survival[mask]))
    r_squared = line.rvalue ** 2
    slope_dev = abs(-line.slope - excited.gamma) / excited.gamma
    # the spectral route needs its Fourier window inside the usable energy
    # range, which restricts it to the narrow ground line
    tau0 = ground.tau
    spectral_dev = max(
        abs(float(survival_from_spectrum(FIG, ground, t, window=100.0))
            - survival_exponential(ground, t)) / survival_exponential(ground, t)
        for t in (0.5 * tau0, tau0, 2.0 * tau0)
    )
    elapsed = time.perf_counter() - t0
    ok = (r_squared >= 0.999 and slope_dev <= 0.05
          and spectral_dev <= 0.02 and elapsed <= 300.0)
    report(capsys, "3 decay law", ok,
           f"R^2 {r_squared:.6f} (>= 0.999), "
           f"slope dev {slope_dev * 100:.2f}% <= 5%, "
           f"spectral vs exponential dev {spectral_dev * 100:.2f}% <= 2%, "
           f"{elapsed:.0f}s <= 300s")
    assert slope_dev <= 0.05
    assert spectral_dev <= 0.02
    assert elapsed <= 300.0
    # the truncated start keeps a non-resonant transient alive through the
    # early part of the window, which bends ln(survival) below this bar
    assert r_squared >= 0.999, f"R^2 {r_squared:.6f}"


def test_04_fidelity_identity_and_map_point(capsys):
    t0 = time.perf_counter()
    fig_pt = culling_point(4.4, 0.5)
    gamma1 = LOG_TARGET / 1370.0
    headline = CullingPoint(size=4.4, tilt=0.22, gamma0=gamma1 / 7.53e5, gamma1=gamma1)
    fmap = fidelity_map((4.30, 4.50), (0.20, 0.26), 5, 4)
    points = [fig_pt, headline] + [p for _, _, p in fmap.ok_points()]
    identity_dev = max(
        abs(p.gamma0 * p.t_hold * p.tau0_over_tau1 - LOG_TARGET) / LOG_TARGET
        for p in points
    )
    omega = 2.0 * math.pi * 1000.0
    qualifying = [
        (fmap.z_grid[i], fmap.f_grid[j], p.tau0_over_tau1, p.t_hold / omega)
        for i, j, p in fmap.ok_points()
        if 7.53e5 / 3.0 <= p.tau0_over_tau1 <= 7.53e5 * 3.0
        and 0.070 <= p.t_hold / omega <= 0.700
    ]
    elapsed = time.perf_counter() - t0
    ok = identity_dev <= 1e-10 and headline.fidelity > 0.99998 and qualifying
    example = (f"z={qualifying[0][0]:.2f} f={qualifying[0][1]:.2f} "
               f"ratio {qualifying[0][2]:.3g} hold {qualifying[0][3] * 1e3:.0f} ms"
               if qualifying else "none")
    report(capsys, "4 fidelity identity", ok,
           f"first-order loss x ratio = ln(1e5) rel {identity_dev:.1e} <= 1e-10 "
           f"({len(points)} points), fidelity(R=7.53e5) {headline.fidelity:.6f} "
           f"> 0.99998, {len(qualifying)} qualifying map cells ({example}), "
           f"{elapsed:.1f}s")
    assert identity_dev <= 1e-10
    assert headline.fidelity > 0.99998
    assert len(qualifying) >= 1


def test_05_harmonic_limit(capsys):
    t0 = time.perf_counter()
    sp = scan_spectrum(TrapSpec(12.0, 0.01), 0.3, 3.0)
    centers = [pk.center for pk in sp.peaks[:2]]
    elapsed = time.perf_counter() - t0
    dev0 = abs(centers[0] - 0.5)
    dev1 = abs(centers[1] - 1.5)
    ok = dev0 <= 1e-3 and dev1 <= 1e-3 and elapsed <= 60.0
    report(capsys, "5 harmonic limit", ok,
           f"centers {centers[0]:.5f}, {centers[1]:.5f} "
           f"(devs {dev0:.1e}, {dev1:.1e} <= 1e-3), {elapsed:.1f}s <= 60s")
    assert dev0 <= 1e-3
    assert dev1 <= 1e-3
    assert elapsed <= 60.0


def test_06_occupancy_formulas_and_notes(capsys):
    gap = pairing_gap(-0.3)
    occ = thermal_ground_occupation(0.1)
    gap_dev = abs(gap - 0.002661)
    occ_dev = abs(occ - (1.0 - 4.54e-5))
    notes_ok = (len(FORMULA_NOTES) == 2
                and any("t = 0.05" in n for n in FORMULA_NOTES)
                and any("gap" in n for n in FORMULA_NOTES))
    ok = gap_dev <= 1e-6 and occ_dev <= 1e-7 and notes_ok
    report(capsys, "6 occupancy formulas", ok,
           f"gap(-0.3) {gap:.6f} (dev {gap_dev:.1e} <= 1e-6), "
           f"thermal(0.1) {occ:.7f} (dev {occ_dev:.1e} <= 1e-7), "
           f"{len(FORMULA_NOTES)} discrepancy notes recorded")
    assert gap_dev <= 1e-6
    assert occ_dev <= 1e-7
    assert notes_ok


def test_07_double_well_solver(capsys):
    t0 = time.perf_counter()
    plain = solve_double_well(0.0, 0.0, n_states=3)
    ladder_dev = max(
        abs(e - (0.5 + i)) for i, e in enumerate(plain.energies)
    )
    tilted = solve_double_well(0.0, 0.3, n_states=3)
    shift_dev = max(
        abs(ef - (e0 - 0.5 * 0.3 * 0.3))
        for e0, ef in zip(plain.energies, tilted.energies)
    )
    grid9 = lambda h: GridSpec(half_width=9.6, spacing=h)  # noqa: E731
    ref = solve_double_well(3.0, 0.1, 1, grid9(0.00125)).energies[0]
    hs = np.array([0.04, 0.02, 0.01])
    errs = np.array(
        [abs(solve_double_well(3.0, 0.1, 1, grid9(h)).energies[0] - ref)
         for h in hs]
    )
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = ladder_dev <= 1e-6 and shift_dev <= 1e-6 and abs(slope - 2.0) <= 0.2
    report(capsys, "7 double well", ok,
           f"ladder dev {ladder_dev:.1e} <= 1e-6, "
           f"tilt-shift dev {shift_dev:.1e} <= 1e-6, "
           f"convergence order {slope:.2f} = 2 +- 0.2, {elapsed:.1f}s")
    assert ladder_dev <= 1e-6
    assert shift_dev <= 1e-6
    assert slope == approx(2.0, abs=0.2)


def test_08_splitting_fidelity(capsys):
    t0 = time.perf_counter()
    survey = gap_map((0.0, 5.0), (0.08, 0.16), 26, 5)
    path = plan_split_path(survey, 4.82, 0.05, f_bias=0.12)
    ramp = gap_adaptive_ramp(survey, path, 400.0, samples=400)
    adiabatic = split_fidelity(ramp, dt=0.005)
    sudden = split_fidelity([(0.0, 0.0, 0.12), (1e-6, 4.82, 0.12)], dt=0.005)
    elapsed = time.perf_counter() - t0
    ok = adiabatic >= 0.99998 and sudden < 0.9 and elapsed <= 600.0
    report(capsys, "8 splitting fidelity", ok,
           f"gap-adaptive ramp {adiabatic:.8f} >= 0.99998, "
           f"sudden quench {sudden:.4f} < 0.9, {elapsed:.0f}s <= 600s")
    assert adiabatic >= 0.99998
    assert sudden < 0.9
    assert elapsed <= 600.0


def test_09_special_function_ladder(capsys):
    # the scaled pair's Wronskian, the identity the matcher enforces: the
    # exp(+-chi) factors cancel
    p = sf.airy_scaled(np.linspace(-20.0, 20.0, 4001))
    wronskian_dev = float(np.max(np.abs(p.ai_e * p.bip_e - p.aip_e * p.bi_e - 1.0 / math.pi)))
    xs = np.linspace(-10.0, 10.0, 41)
    integer_dev = 0.0
    for n in range(1, 10):
        for x in xs:
            h_prev = sf.hermite_pair(float(n - 1), float(x))[0]
            h_here = sf.hermite_pair(float(n), float(x))[0]
            h_next = sf.hermite_pair(float(n + 1), float(x))[0]
            resid = h_next - 2.0 * x * h_here + 2.0 * n * h_prev
            scale = max(abs(h_next), abs(2.0 * x * h_here),
                        abs(2.0 * n * h_prev), 1.0)
            integer_dev = max(integer_dev, abs(resid) / scale)
    real_dev = 0.0
    for nu in (0.3, 1.7, 3.5):
        for x in np.linspace(-5.0, 5.0, 21):
            h_prev = sf.hermite_pair(nu - 1.0, float(x))[0]
            h_here = sf.hermite_pair(nu, float(x))[0]
            h_next = sf.hermite_pair(nu + 1.0, float(x))[0]
            resid = h_next - 2.0 * x * h_here + 2.0 * nu * h_prev
            scale = max(abs(h_next), abs(2.0 * x * h_here),
                        abs(2.0 * nu * h_prev), 1.0)
            real_dev = max(real_dev, abs(resid) / scale)
    ok = wronskian_dev <= 1e-12 and integer_dev <= 1e-10 and real_dev <= 1e-8
    report(capsys, "9 special functions", ok,
           f"Wronskian dev {wronskian_dev:.1e} <= 1e-12, "
           f"integer recurrence {integer_dev:.1e} <= 1e-10, "
           f"real-degree recurrence {real_dev:.1e} <= 1e-8")
    assert wronskian_dev <= 1e-12
    assert integer_dev <= 1e-10
    assert real_dev <= 1e-8


def test_10_fidelity_map_determinism(capsys, tmp_path):
    args = ["fidelity-map", "--zmin", "4", "--zmax", "5.2",
            "--fmin", "0.3", "--fmax", "0.7", "--nz", "2", "--nf", "2"]
    blobs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out = tmp_path / name
        assert cli.run(args + ["--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(capsys, "10 determinism", ok,
           f"3 runs (workers 1, 1, 2) -> {len(set(blobs))} distinct CSV "
           f"byte streams (want 1)")
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]
