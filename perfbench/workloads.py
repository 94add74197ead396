"""Seeded workloads of the atomprep benchmark.

Each workload turns a seed into an endless stream of jobs, runs one job
through the public API or the `atomprep` CLI (in-process), and checks the
job's outputs.  A job is the unit whose time is reported as `wall_s`; it
counts its own operations (a scanned map cell, a split, a decay run, a
spectral-survival value) and the ones that raised or failed a check.

Inputs are jittered around fixed centres so that every seed gives jobs of
nearly the same cost: run-to-run spread then reflects the program and the
machine, not the draw.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Functions are called through their modules so that traced runs, which
# patch module attributes, see every call.
from atomprep import cli, culling, dfg, resonance, scattering, tdse, units
from atomprep.potential import TrapSpec

# Failure kinds.  A "check" failure means the program produced a wrong or
# inconsistent result and makes the run incorrect.  A "limit" failure is a
# known accuracy miss of a method (the spectral survival route at 2 tau0 on
# the narrow cull-verify lines); it counts in failed_frac but leaves the
# verdict alone.
CHECK = "check"
LIMIT = "limit"


@dataclass
class Outcome:
    """Operations attempted and failed by one job, with failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    output: bytes = b""

    def op(self, checks):
        """Count one operation; checks is a list of (ok, kind, message)."""
        self.attempted += 1
        bad = [(kind, msg) for ok, kind, msg in checks if not ok]
        if bad:
            self.failed += 1
            self.notes.extend(bad)

    def crashed(self, ops: int, exc: BaseException):
        """Charge ops operations that never completed because exc was raised."""
        self.attempted += ops
        self.failed += ops
        line = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.notes.append((CHECK, f"raised {line}"))

    @property
    def incorrect(self) -> bool:
        return any(kind == CHECK for kind, _ in self.notes)


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _cli(argv) -> int:
    """Run one `atomprep` invocation in-process, swallowing its chatter."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run([str(a) for a in argv])


# ------------------------------------------------------------- culling map

MAP_NZ, MAP_NF = 13, 9
MAP_Z_SPAN, MAP_F_SPAN = 1.2, 0.4
LN_INV_RESIDUAL = math.log(1.0 / culling.RESIDUAL_DEFAULT)


def excited_bound(z: float, f: float) -> bool:
    """Closed-form bound test for a map cell, independent of the program.

    The harmonic first-excited estimate 3/2 - f^2/2 must sit at or below
    the barrier top z^2/8 - f*z/2.
    """
    return z * z / 8.0 - 0.5 * f * z >= 1.5 - 0.5 * f * f


class CullMap:
    """`fidelity-map` over a (size, tilt) grid that mixes bound and
    out-of-range cells.  The grid origin is jittered per job inside a box
    where 72 of the 117 cells are bound, so every job scans as many cells;
    size stays at or below 5.2, where the smallest tilt still has a
    resolvable ground width."""

    name = "cull-map"
    reference_key = "cull-map"
    kernel = "interpreter"
    trace_jobs = 2

    def __init__(self, workers: int = 1):
        self.workers = workers

    def jobs(self, seed: int):
        # one stream for both map workloads, so outputs compare byte for byte
        rng = random.Random(f"cull-map:{seed}")
        while True:
            zmin = round(4.0 - rng.uniform(0.0, 0.025), 4)
            fmin = round(0.28 + rng.uniform(0.0, 0.02), 4)
            yield {"zmin": zmin, "zmax": round(zmin + MAP_Z_SPAN, 4),
                   "fmin": fmin, "fmax": round(fmin + MAP_F_SPAN, 4)}

    def warm(self, workdir: Path) -> None:
        _cli(["fidelity-map", "--zmin", 4.4, "--zmax", 4.5, "--fmin", 0.45,
              "--fmax", 0.5, "--nz", 1, "--nf", 2, "--workers", self.workers,
              "--out", workdir / "warm-map.csv"])

    def run(self, job: dict, workdir: Path, lap=None, workers: int | None = None) -> Outcome:
        workers = self.workers if workers is None else workers
        z_grid = np.linspace(job["zmin"], job["zmax"], MAP_NZ)
        f_grid = np.linspace(job["fmin"], job["fmax"], MAP_NF)
        bound = [[excited_bound(float(z), float(f)) for f in f_grid] for z in z_grid]
        n_bound = sum(map(sum, bound))
        out = Outcome()
        path = workdir / f"map-w{workers}.csv"
        try:
            code = _cli(["fidelity-map", "--zmin", job["zmin"], "--zmax", job["zmax"],
                         "--fmin", job["fmin"], "--fmax", job["fmax"],
                         "--nz", MAP_NZ, "--nf", MAP_NF, "--workers", workers,
                         "--out", path])
            if code != 0:
                raise RuntimeError(f"atomprep fidelity-map exited with {code}")
            out.output = path.read_bytes()
        except Exception as exc:  # a job that dies still counts its cells
            out.crashed(n_bound, exc)
            return out

        rows = [line.split(",") for line in out.output.decode().splitlines()[1:]]
        if len(rows) != MAP_NZ * MAP_NF:
            out.crashed(n_bound, RuntimeError(f"map has {len(rows)} rows"))
            return out
        ok_cells = []
        for k, row in enumerate(rows):
            i, j = divmod(k, MAP_NF)
            status = row[7]
            if not bound[i][j] and status == "out-of-range":
                continue
            checks = [(bound[i][j], CHECK, f"cell ({i},{j}) scanned but unbound"),
                      (status == "ok", CHECK, f"cell ({i},{j}) status {status}")]
            if status == "ok":
                g0, g1, ratio, t_hold = (float(v) for v in row[2:6])
                checks.append((_rel_close(g0 * t_hold * ratio, LN_INV_RESIDUAL, 1e-10),
                               CHECK, f"cell ({i},{j}) hold identity"))
                ok_cells.append([i, j, g0, g1])
            out.op(checks)
        out.fingerprint = {"status": [row[7] for row in rows], "ok_cells": ok_cells}
        return out


class CullMapPar(CullMap):
    """The same grids as cull-map through the process-pool dispatch."""

    name = "cull-map-par"

    def cross_check(self, job: dict, par: Outcome, workdir: Path) -> None:
        """Run job serially; if the pool's bytes differ, fail all its cells."""
        serial = self.run(job, workdir, workers=1)
        if serial.output != par.output:
            par.failed = par.attempted
            par.notes.append((CHECK, "pool output bytes differ from the serial output"))


# ------------------------------------------------------------------ split

# Every table case takes SPLIT_STEPS Crank-Nicolson steps (dt = duration /
# steps, at most tdse.MAX_DT = 0.02), so all cases cost the same.  Seed 0
# starts with the paper point, which needs twice the steps at dt = 0.02; its
# fidelity there, 0.99998779, is within 1e-7 of the CLI default dt = 0.005.
SPLIT_STEPS = 10000
SPLIT_MAX_DT = 0.02
SPLIT_PAPER = (4.82, 0.12, 400.0)
SPLIT_PAPER_MIN_FIDELITY = 0.99998
SPLIT_TABLE = [
    (d, f, t)
    for d in (4.5, 4.82, 5.0)
    for f in (0.10, 0.12, 0.14)
    for t in (160.0, 180.0, 200.0)
]


class SplitVerify:
    """`split-fidelity`: gap survey, widest-bottleneck path, gap-adaptive
    ramp and time-dependent Crank-Nicolson propagation."""

    name = "split-verify"
    reference_key = name
    kernel = "banded"
    workers = 1
    trace_jobs = 1

    def jobs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        if seed == 0:
            yield SPLIT_PAPER
        while True:
            yield rng.choice(SPLIT_TABLE)

    def warm(self, workdir: Path) -> None:
        _cli(["split-fidelity", "--d-target", 1.0, "--dmax", 1.0, "--nd", 3,
              "--nf", 2, "--duration", 2.0, "--samples", 10, "--dt", 0.02,
              "--out", workdir / "warm-split.json"])

    def run(self, job, workdir: Path, lap=None) -> Outcome:
        d_target, f_bias, duration = job
        out = Outcome()
        path = workdir / "split.json"
        try:
            code = _cli(["split-fidelity", "--d-target", d_target, "--f-bias", f_bias,
                         "--duration", duration,
                         "--dt", min(duration / SPLIT_STEPS, SPLIT_MAX_DT),
                         "--out", path])
            if code != 0:
                raise RuntimeError(f"atomprep split-fidelity exited with {code}")
            doc = json.loads(path.read_text())
        except Exception as exc:
            out.crashed(1, exc)
            return out
        fid = doc["fidelity"]
        checks = [(0.0 <= fid <= 1.0, CHECK, f"fidelity {fid} outside [0, 1]")]
        if tuple(job) == SPLIT_PAPER:
            checks.append((fid >= SPLIT_PAPER_MIN_FIDELITY, CHECK,
                           f"paper-point fidelity {fid} < {SPLIT_PAPER_MIN_FIDELITY}"))
        out.op(checks)
        out.fingerprint = {"infidelity": 1.0 - fid,
                           "bottleneck_gap": doc["bottleneck_gap"],
                           "path_nodes": doc["path_nodes"]}
        return out


# ----------------------------------------------------------- cull + verify

# One shape per stratum in every job, so every seed meets the same mix.
# Ground lifetimes run from ~6e2 to ~1e6.  The three narrower lines have a
# spectral survival at 2 tau0 that misses the 2% tolerance: 7.6% off at
# (4.8, 0.55), where the jitter moves it across the tolerance, and ~100%
# off at (4.5, 0.4) and (4.2, 0.25).  Only those values are limit checks;
# every other spectral value must meet the tolerance.
CULL_STRATA = ((4.4, 0.5), (4.8, 0.55), (4.5, 0.4), (4.2, 0.25))
NARROW_STRATA = CULL_STRATA[1:]
CULL_JITTER = (0.01, 0.005)
SURVIVAL_TIMES = (0.5, 1.0, 2.0)  # in units of the ground lifetime
KNOWN_MISS_TIME = 2.0  # the survival time that misses on narrow lines
SPECTRAL_WINDOW = 100.0
SPECTRAL_TOL = 0.02
SLOPE_TOL = 0.05
PHASE_WIDTH_TOL = 0.02
DECAY_SPAN = 2.05  # decay runs cover this many excited lifetimes


class CullVerify:
    """Library pipeline per trap shape: dfg occupancy, culling_point, SI
    hold report, decay run of the excited line, spectral survival of the
    ground line at three times."""

    name = "cull-verify"
    reference_key = name
    kernel = "banded"  # decay runs take most of the time
    workers = 1
    trace_jobs = 1

    def jobs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            shapes = []
            for z, f in CULL_STRATA:
                shapes.append({
                    "size": round(z + rng.uniform(-1, 1) * CULL_JITTER[0], 4),
                    "tilt": round(f + rng.uniform(-1, 1) * CULL_JITTER[1], 4),
                    "kf_a": round(rng.uniform(-0.5, -0.2), 4),
                    "t_over_tf": round(rng.uniform(0.05, 0.2), 4),
                    "omega_hz": round(rng.uniform(800.0, 1200.0), 2),
                    "narrow": (z, f) in NARROW_STRATA,
                })
            yield shapes

    def warm(self, workdir: Path) -> None:
        dfg.thermal_ground_occupation(0.1)
        dfg.bcs_ground_occupation(dfg.pairing_gap(-0.3))
        spec = TrapSpec(4.4, 0.5)
        point = culling.culling_point(4.4, 0.5)
        culling.hold_and_restore_report(point, units.lithium6_system(2.0 * math.pi * 1000.0))
        ground = resonance.fit_lorentzian(
            scattering.scan_spectrum(spec, *culling.scan_window(spec)), 0)
        tdse.decay_run(spec, ground, t_final=0.4, min_samples=2)
        resonance.survival_from_spectrum(spec, ground, ground.tau, window=SPECTRAL_WINDOW)

    def run(self, job, workdir: Path, lap=None) -> Outcome:
        out = Outcome()
        shapes = []
        lap = lap or (lambda: None)
        for k, shape in enumerate(job):
            if k:
                lap()  # re-calibrate often within this long job
            before = out.attempted
            try:
                shapes.append(self._shape(shape, out, lap))
            except Exception as exc:
                out.crashed(1 + len(SURVIVAL_TIMES) - (out.attempted - before), exc)
        out.fingerprint = {"shapes": shapes}
        return out

    def _shape(self, shape: dict, out: Outcome, lap) -> dict:
        z, f = shape["size"], shape["tilt"]
        occ_bcs = dfg.bcs_ground_occupation(dfg.pairing_gap(shape["kf_a"]))
        occ_th = dfg.thermal_ground_occupation(shape["t_over_tf"])
        point = culling.culling_point(z, f)
        si = units.lithium6_system(2.0 * math.pi * shape["omega_hz"])
        report = culling.hold_and_restore_report(point, si)

        spec = TrapSpec(z, f)
        spectrum = scattering.scan_spectrum(spec, *culling.scan_window(spec))
        ground = resonance.fit_lorentzian(spectrum, 0)
        excited = resonance.fit_lorentzian(spectrum, 1)
        run = tdse.decay_run(spec, excited, t_final=DECAY_SPAN * excited.tau)
        tau1 = excited.tau
        mask = (run.times >= 0.1 * tau1) & (run.times <= 2.0 * tau1)
        slope = -float(np.polyfit(run.times[mask], np.log(run.survival[mask]), 1)[0])
        lap()

        # the shape's planning checks are charged to its decay run
        identity = report["gamma0"] * report["t_hold"] * report["lifetime_ratio"]
        out.op([
            (0.5 < occ_bcs <= 1.0 and 0.5 <= occ_th <= 1.0, CHECK,
             f"{z},{f}: occupations {occ_bcs}, {occ_th}"),
            (_rel_close(identity, LN_INV_RESIDUAL, 1e-10), CHECK,
             f"{z},{f}: gamma0*t_hold*ratio = {identity!r}"),
            (_rel_close(ground.gamma, point.gamma0, 1e-9)
             and _rel_close(excited.gamma, point.gamma1, 1e-9), CHECK,
             f"{z},{f}: rescanned widths differ from culling_point"),
            (abs(ground.gamma_phase - ground.gamma) <= PHASE_WIDTH_TOL * ground.gamma,
             CHECK, f"{z},{f}: ground gamma_phase {ground.gamma_phase} vs {ground.gamma}"),
            (abs(run.survival[0] - 1.0) <= 1e-12, CHECK,
             f"{z},{f}: decay survival starts at {run.survival[0]!r}"),
            (abs(slope - excited.gamma) <= SLOPE_TOL * excited.gamma, CHECK,
             f"{z},{f}: ln-survival slope {slope} vs gamma1 {excited.gamma}"),
        ])
        spectral_values = []
        for mult in SURVIVAL_TIMES:
            t = mult * ground.tau
            spectral = float(resonance.survival_from_spectrum(spec, ground, t, window=SPECTRAL_WINDOW))
            closed = resonance.survival_exponential(ground, t)
            dev = abs(spectral - closed) / closed
            kind = LIMIT if shape["narrow"] and mult == KNOWN_MISS_TIME else CHECK
            out.op([(dev <= SPECTRAL_TOL, kind,
                     f"{z},{f}: spectral survival at {mult} tau0 off by {dev:.2%}")])
            spectral_values.append(spectral)
        return {"e0": ground.e0, "gamma0": ground.gamma, "gamma1": excited.gamma,
                "t_hold": point.t_hold, "decay_end": float(run.survival[-1]),
                "decay_slope": slope, "spectral": spectral_values}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {w.name: w for w in
             (CullMap(), CullMapPar(workers=nproc()), SplitVerify(), CullVerify())}
