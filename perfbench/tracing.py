"""Spans around every public function of the atomprep modules.

The tracer patches each public function on the module that defines it and
on every other atomprep module that bound it by value (`from .x import f`),
records one span per call (name, start, end, parent, run id) in flat
arrays, and derives the per-layer metrics from them at the end.  A layer's
self time is its spans' durations minus the time covered by their direct
child spans.

Only the process that installed the tracer records spans: a forked pool
worker switches it off, so the workers of a process pool are not traced.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array
from pathlib import Path

import numpy as np

import atomprep
from atomprep import (
    cli, culling, dfg, potential, resonance, scattering, specfun, splitting, tdse, units,
)

MODULES = (units, specfun, potential, scattering, resonance, culling, dfg,
           splitting, tdse, cli)

# By-value bindings the spans must also cover: (module, attribute).
REQUIRED_BINDINGS = (
    (culling, "scan_spectrum"), (culling, "fit_lorentzian"),
    (culling, "energy_cap"), (culling, "trap_geometry"),
    (tdse, "interior_wave"), (tdse, "eval_trap"), (tdse, "eval_double_well"),
    (splitting, "eval_double_well"), (scattering, "trap_geometry"),
)

# Per-layer metrics: name -> (unit, better).  Layers that a workload does
# not run report 0.
LAYER_METRICS = {
    "specfun.calls": ("count", "lower"),
    "specfun.self_s": ("s", "lower"),
    "scattering.scan_calls": ("count", "lower"),
    "scattering.scan_self_s": ("s", "lower"),
    "scattering.match_calls": ("count", "lower"),
    "scattering.match_self_s": ("s", "lower"),
    "scattering.samples_per_scan": ("count", "lower"),
    "scattering.fit_window_ratio": ("ratio", "higher"),
    "resonance.fit_calls": ("count", "lower"),
    "resonance.fit_self_s": ("s", "lower"),
    "resonance.phase_width_self_s": ("s", "lower"),
    "resonance.spectral_calls": ("count", "lower"),
    "resonance.spectral_self_s": ("s", "lower"),
    "resonance.match_calls_per_spectral": ("count", "lower"),
    "culling.cells": ("count", "higher"),
    "culling.cells_scanned": ("count", "higher"),
    "culling.ok_ratio": ("ratio", "higher"),
    "culling.point_ms_p50": ("ms", "lower"),
    "culling.point_ms_p90": ("ms", "lower"),
    "culling.point_samples": ("count", "higher"),
    "culling.map_s": ("s", "lower"),
    "potential.eval_calls": ("count", "lower"),
    "potential.eval_self_s": ("s", "lower"),
    "splitting.eigensolves": ("count", "lower"),
    "splitting.eig_self_s": ("s", "lower"),
    "splitting.grid_points": ("count", "lower"),
    "splitting.survey_s": ("s", "lower"),
    "splitting.plan_s": ("s", "lower"),
    "splitting.ramp_s": ("s", "lower"),
    "tdse.propagate_calls": ("count", "lower"),
    "tdse.steps": ("count", "lower"),
    "tdse.propagate_self_s": ("s", "lower"),
    "tdse.step_us": ("us", "lower"),
    "tdse.grid_points": ("count", "lower"),
    "tdse.bytes_per_step_computed": ("B", "lower"),
    "tdse.state_prep_s": ("s", "lower"),
    "cli.run_self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "units.calls": ("count", "lower"),
    "dfg.calls": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

WRITERS = ("cli.write_csv", "cli.write_json", "cli.write_manifest")


def _propagate_bytes_per_step(n: int, time_dependent: bool, absorbed: bool) -> int:
    """Bytes of the arrays one Crank-Nicolson step creates, from their sizes.

    Complex (16 B) arrays: diagonal, the two CN diagonals, right-hand side,
    the three-row band and the new state; a time-dependent potential adds
    its float (8 B) sample and an absorber one more complex diagonal.
    Computed, not measured: cache traffic is not counted.
    """
    return n * (16 * 8 + (8 if time_dependent else 0) + (16 if absorbed else 0))


class Tracer:
    """Flat in-memory span store plus the counts observed at span ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.enabled = False
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, label: str, fn, observe=None):
        nid = self._ids.setdefault(label, len(self._ids))
        if nid == len(self.names):
            self.names.append(label)
        name, start, end, parent, run, stack = (
            self.name, self.start, self.end, self.parent, self.run, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every public function of every module and its bindings."""
        originals = {}
        for mod in MODULES:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    label = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(label, obj, OBSERVERS.get(label)))
        for mod in MODULES + (atomprep,):
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for mod, attr in REQUIRED_BINDINGS:
            if not hasattr(getattr(mod, attr), "__wrapped__"):
                raise RuntimeError(f"{mod.__name__}.{attr} was not patched")
        os.register_at_fork(after_in_child=self._forked)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _forked(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------ metrics

    def arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        name = np.frombuffer(self.name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        return name, start, end, parent

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counts."""
        name, start, end, parent = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_t, minlength=n_names)
        total_s = np.bincount(name, weights=dur, minlength=n_names)
        ids = {label: i for i, label in enumerate(self.names)}
        layer_of = np.array([label.split(".", 1)[0] for label in self.names])
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def of(labels, table):
            return float(sum(table[ids[x]] for x in labels if x in ids))

        def layer(prefix, table):
            return float(table[layer_of == prefix].sum())

        def named(label, column=name):
            return column == ids.get(label, -2)

        c = self.counts.get
        scans = of(["scattering.scan_spectrum"], calls)
        spectral = of(["resonance.survival_from_spectrum"], calls)
        steps = c("tdse.steps", 0.0)
        eigs = of(["splitting.solve_double_well"], calls)
        point_ms = dur[named("culling.culling_point")] * 1e3
        writer_ids = [ids.get(label, -2) for label in WRITERS]
        top_writes = np.isin(name, writer_ids) & ~np.isin(parent_name, writer_ids)
        prep = named("tdse.truncated_resonance_state") | (
            named("splitting.solve_double_well")
            & named("tdse.split_fidelity", parent_name))
        spectral_matches = (named("scattering.match_amplitude")
                            & named("resonance.survival_from_spectrum", parent_name))
        scanned = c("culling.cells_scanned", 0.0)

        m = {
            "specfun.calls": layer("specfun", calls),
            "specfun.self_s": layer("specfun", self_s),
            "scattering.scan_calls": scans,
            "scattering.scan_self_s": of(["scattering.scan_spectrum"], self_s),
            "scattering.match_calls": of(["scattering.match_amplitude"], calls),
            "scattering.match_self_s": of(["scattering.match_amplitude"], self_s),
            "scattering.samples_per_scan": c("scan_samples", 0.0) / scans if scans else 0.0,
            "scattering.fit_window_ratio":
                c("fit_window_samples", 0.0) / c("scan_samples") if c("scan_samples") else 0.0,
            "resonance.fit_calls": of(["resonance.fit_lorentzian"], calls),
            "resonance.fit_self_s": of(["resonance.fit_lorentzian"], self_s),
            "resonance.phase_width_self_s": of(["resonance.phase_slope_width"], self_s),
            "resonance.spectral_calls": spectral,
            "resonance.spectral_self_s": of(["resonance.survival_from_spectrum"], self_s),
            "resonance.match_calls_per_spectral":
                float(spectral_matches.sum()) / spectral if spectral else 0.0,
            "culling.cells": c("culling.cells", 0.0),
            "culling.cells_scanned": scanned,
            "culling.ok_ratio": c("culling.cells_ok", 0.0) / scanned if scanned else 0.0,
            "culling.point_ms_p50": float(np.percentile(point_ms, 50)) if len(point_ms) else 0.0,
            "culling.point_ms_p90": float(np.percentile(point_ms, 90)) if len(point_ms) else 0.0,
            "culling.point_samples": float(len(point_ms)),
            "culling.map_s": of(["culling.fidelity_map"], total_s),
            "potential.eval_calls": of(["potential.eval_trap", "potential.eval_double_well"], calls),
            "potential.eval_self_s":
                of(["potential.eval_trap", "potential.eval_double_well"], self_s),
            "splitting.eigensolves": eigs,
            "splitting.eig_self_s": of(["splitting.solve_double_well"], self_s),
            "splitting.grid_points": c("splitting.grid_points", 0.0) / eigs if eigs else 0.0,
            "splitting.survey_s": of(["splitting.gap_map"], total_s),
            "splitting.plan_s": of(["splitting.plan_split_path"], total_s),
            "splitting.ramp_s": of(["splitting.gap_adaptive_ramp"], total_s),
            "tdse.propagate_calls": of(["tdse.propagate"], calls),
            "tdse.steps": steps,
            "tdse.propagate_self_s": of(["tdse.propagate"], self_s),
            "tdse.step_us": of(["tdse.propagate"], self_s) / steps * 1e6 if steps else 0.0,
            "tdse.grid_points": c("tdse.point_steps", 0.0) / steps if steps else 0.0,
            "tdse.bytes_per_step_computed": c("tdse.bytes", 0.0) / steps if steps else 0.0,
            "tdse.state_prep_s": float(dur[prep].sum()),
            "cli.run_self_s": of(["cli.run"], self_s),
            "cli.write_s": float(dur[top_writes].sum()),
            "cli.bytes_written": c("cli.bytes_written", 0.0),
            "units.calls": layer("units", calls),
            "dfg.calls": layer("dfg", calls),
            "trace.spans": float(len(name)),
        }
        return m

    def dump(self, path: Path) -> None:
        """Write all spans (name table plus one row per span) to an .npz file."""
        name, start, end, parent = self.arrays()
        run = np.frombuffer(self.run, dtype=np.int32, count=len(name))
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start,
                            end=end, parent=parent, run=run)


# ------------------------------------------------ counts at span boundaries

def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _scan(tracer, fn, args, kwargs, spectrum):
    tracer._count("scan_samples", len(spectrum.energies))


def _fit(tracer, fn, args, kwargs, res):
    a = _bound(fn, args, kwargs)
    spectrum, peak = a["spectrum"], a["spectrum"].peaks[a["peak_index"]]
    half = resonance.FIT_WINDOW_WIDTHS * res.gamma
    lo = max(res.e0 - half, peak.territory[0])
    hi = min(res.e0 + half, peak.territory[1])
    e = spectrum.energies
    inside = np.searchsorted(e, hi, side="right") - np.searchsorted(e, lo, side="left")
    tracer._count("fit_window_samples", max(int(inside), 0))


def _propagate(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    t_final, dt = a["t_final"], a["dt"]
    steps = max(1, int(round(t_final / dt))) if t_final > 0.0 else 0
    n = len(a["psi0"].grid)
    tracer._count("tdse.steps", steps)
    tracer._count("tdse.point_steps", n * steps)
    tracer._count("tdse.bytes", steps * _propagate_bytes_per_step(
        n, callable(a["potential"]), a["absorber"] is not None))


def _eigensolve(tracer, fn, args, kwargs, levels):
    tracer._count("splitting.grid_points", len(levels.grid))


def _fidelity_map(tracer, fn, args, kwargs, fmap):
    status = [s for row in fmap.status for s in row]
    tracer._count("culling.cells", len(status))
    tracer._count("culling.cells_scanned", sum(s != culling.STATUS_OUT_OF_RANGE for s in status))
    tracer._count("culling.cells_ok", sum(s == culling.STATUS_OK for s in status))


def _written(tracer, fn, args, kwargs, result):
    tracer._count("cli.bytes_written", os.path.getsize(_bound(fn, args, kwargs)["path"]))


OBSERVERS = {
    "scattering.scan_spectrum": _scan,
    "resonance.fit_lorentzian": _fit,
    "tdse.propagate": _propagate,
    "splitting.solve_double_well": _eigensolve,
    "culling.fidelity_map": _fidelity_map,
    "cli.write_csv": _written,
    "cli.write_json": _written,
}
