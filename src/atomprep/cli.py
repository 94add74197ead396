"""Command-line entry point.

Each pipeline is a subcommand writing CSV or JSON data files with a
run-manifest JSON beside them.  All computations are deterministic, so
re-running a subcommand with the same configuration reproduces the data
files byte for byte; only the manifest timestamp differs.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 64 unknown
subcommand.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__, culling, dfg, resonance, scattering, splitting, tdse, units
from .errors import ConfigurationError, DomainError, NumericalError
from .potential import TrapSpec

# 12 significant digits, scientific: reproducible diffs
FLOAT_FMT = "%.11e"

# Marks a parameter that has no default and must be given.
REQUIRED = object()


@dataclass
class RunConfig:
    """Resolved parameters of one CLI run.

    Values come from hard defaults, then the --config JSON file, then
    explicit flags, later sources overriding earlier ones.  params keeps
    each value as given, for the manifest; cfg[name] is its typed form.
    """

    subcommand: str
    params: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    out: Path = Path(".")
    out_given: bool = False

    def __getitem__(self, key):
        return self.values[key]


# ---------------------------------------------------------------- output

def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    return FLOAT_FMT % float(value)


def write_csv(path: Path, header: str, rows) -> None:
    """Write rows under a single '#' header line naming columns and units."""
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + header + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def write_json(path: Path, document: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_path: Path, cfg: RunConfig, outputs, results,
                   started, t0) -> None:
    manifest = {
        "subcommand": cfg.subcommand,
        "inputs": {k: v for k, v in sorted(cfg.params.items())},
        "outputs": [str(p) for p in outputs],
        "results": results,
        "versions": {
            "atomprep": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "started_at": started,
        "wall_seconds": round(time.perf_counter() - t0, 3),
    }
    path = out_path.with_name(out_path.stem + ".manifest.json")
    write_json(path, manifest)


# ------------------------------------------------------------- parameters

def _number(value, name: str) -> float:
    """number"""
    if isinstance(value, bool):  # JSON true/false would pass float() as 1/0
        raise ConfigurationError(f"parameter {name} must be a number, got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"parameter {name} must be a number, got {value!r}")
    if not math.isfinite(out):
        raise ConfigurationError(f"parameter {name} must be finite, got {value!r}")
    return out


def _integer(value, name: str) -> int:
    """integer"""
    num = _number(value, name)
    if num != int(num):
        raise ConfigurationError(f"parameter {name} must be an integer, got {value!r}")
    return int(num)


_MASSES = {"li6": units.LITHIUM6_MASS}


def _mass(value, name: str) -> float:
    """'li6' or a particle mass in kg"""
    if isinstance(value, str) and value.lower() in _MASSES:
        return _MASSES[value.lower()]
    return _number(value, name)


def _switch(value, name: str) -> bool:
    """switch"""
    if not isinstance(value, bool):  # "false" is a true string
        raise ConfigurationError(f"parameter {name} must be true or false, got {value!r}")
    return value


def _format(value, name: str) -> str:
    """'csv' or 'json'"""
    if value not in ("csv", "json"):
        raise ConfigurationError(f"parameter {name} must be csv or json, got {value!r}")
    return value


# A parameter's kind is the same in every subcommand; unlisted names are
# numbers.  The converter's docstring is its --help text.
_KINDS = {
    "base_points": _integer, "peak": _integer, "points": _integer,
    "nz": _integer, "nf": _integer, "nd": _integer, "workers": _integer,
    "samples": _integer, "mass": _mass, "sudden": _switch, "plot": _switch,
    "format": _format,
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# ------------------------------------------------------------- subcommands

def _scan(cfg: RunConfig):
    """The trap and its scanned spectrum; emin/emax default to the scan window."""
    spec = TrapSpec(cfg["z"], cfg["f"])
    lo, hi = cfg["emin"], cfg["emax"]
    if lo is None or hi is None:
        window = culling.scan_window(spec)
        lo = window[0] if lo is None else lo
        hi = window[1] if hi is None else hi
    return spec, scattering.scan_spectrum(spec, lo, hi, base_points=cfg["base_points"])


def _survey(cfg: RunConfig, dmin: float, **kwargs):
    return splitting.gap_map((dmin, cfg["dmax"]), (cfg["fmin"], cfg["fmax"]),
                             cfg["nd"], cfg["nf"], **kwargs)


def _write_plot(out: Path, script) -> None:
    out.with_name(out.stem + ".gp").write_text("\n".join(script) + "\n")


def _document(cfg: RunConfig, doc: dict):
    """Result of a subcommand that prints; doc is written only under --out."""
    if not cfg.out_given:
        return doc, []
    write_json(cfg.out, doc)
    return doc, [cfg.out]


def _cmd_spectrum(cfg: RunConfig):
    _, sp = _scan(cfg)
    out = cfg.out
    write_csv(out, "energy [hbar*omega], p_value [arb], phase [rad]", sp.rows())
    peaks = [
        {"center": pk.center, "width_estimate": pk.width_estimate,
         "resolved": pk.resolved}
        for pk in sp.peaks
    ]
    if cfg["plot"]:
        script = [
            f'set datafile separator ","',
            'set logscale y',
            'set xlabel "energy (hbar*omega)"',
            'set ylabel "P(E) (arb)"',
        ]
        for k, pk in enumerate(sp.peaks):
            script.append(
                f"set arrow {k + 1} from {FLOAT_FMT % pk.center}, graph 0 "
                f"to {FLOAT_FMT % pk.center}, graph 1 nohead dt 2"
            )
        script.append(f'plot "{out.name}" using 1:2 with lines title "P(E)"')
        _write_plot(out, script)
    print(f"wrote {out} ({len(sp)} samples, {len(peaks)} peaks)")
    return {"peaks": peaks, "samples": len(sp)}, [out]


def _cmd_resonances(cfg: RunConfig):
    spec, sp = _scan(cfg)
    rows, meta = [], []
    for k, pk in enumerate(sp.peaks):
        if pk.resolved:
            res = resonance.fit_lorentzian(sp, k)
            rows.append((res.e0, res.gamma, res.tau, res.gamma_phase,
                         res.fit_residual_lorentz, res.fit_residual_gauss))
        else:
            # no line to fit: the phase-slope width probed at the
            # resolution floor bounds the width; no lineshape residuals
            probe = max(pk.width_estimate, scattering.RESOLUTION_FLOOR)
            w = resonance.phase_slope_width(spec, pk.center, probe)
            rows.append((pk.center, w, 1.0 / w, w, math.nan, math.nan))
        meta.append({"e0": rows[-1][0], "gamma": rows[-1][1], "resolved": pk.resolved})
    out = cfg.out
    write_csv(
        out,
        "e0 [hbar*omega], gamma [hbar*omega], tau [1/omega], "
        "gamma_phase [hbar*omega], residual_lorentz [rel], residual_gauss [rel]",
        rows,
    )
    print(f"wrote {out} ({len(rows)} resonances)")
    return {"resonances": meta}, [out]


def _cmd_survival(cfg: RunConfig):
    n = cfg["points"]
    if n < 1:
        raise ConfigurationError(f"--points must be at least 1, got {n}")
    spec, sp = _scan(cfg)
    res = resonance.fit_lorentzian(sp, cfg["peak"])
    tmax = 2.0 * res.tau if cfg["tmax"] is None else cfg["tmax"]
    times = np.linspace(0.0, tmax, n)
    s_exp = resonance.survival_exponential(res, times)
    s_spec = resonance.survival_from_spectrum(spec, res, times, window=cfg["window"])
    out = cfg.out
    write_csv(
        out,
        "time [1/omega], survival_exponential [prob], survival_spectral [prob]",
        zip(times, s_exp, s_spec),
    )
    print(f"wrote {out} ({n} times, tau = {res.tau:.6g})")
    return {"e0": res.e0, "gamma": res.gamma, "tau": res.tau,
            "tmax": float(tmax)}, [out]


def _cmd_fidelity_map(cfg: RunConfig):
    if cfg["plot"] and cfg["format"] == "json":
        raise ConfigurationError("--plot needs --format csv: the script plots the CSV")
    fmap = culling.fidelity_map(
        (cfg["zmin"], cfg["zmax"]),
        (cfg["fmin"], cfg["fmax"]),
        cfg["nz"],
        cfg["nf"],
        residual_target=cfg["residual"],
        workers=cfg["workers"],
    )
    out = cfg.out
    if cfg["format"] == "json":
        write_json(out, fmap.as_document())
    else:
        write_csv(
            out,
            "z [x0], f [hbar*omega/x0], gamma0 [hbar*omega], "
            "gamma1 [hbar*omega], ratio [tau0/tau1], t_hold [1/omega], "
            "log10_loss [1], status",
            fmap.rows(),
        )
        if cfg["plot"]:
            _write_plot(out, [
                'set datafile separator ","',
                'set xlabel "tilt f"',
                'set ylabel "trap size z"',
                'set cblabel "log10 ground-state loss"',
                f'splot "{out.name}" using 2:1:7 with points pt 5 ps 3 palette',
                "pause -1",
            ])
    n_ok = sum(1 for _ in fmap.ok_points())
    print(f"wrote {out} ({len(fmap.z_grid)}x{len(fmap.f_grid)} cells, {n_ok} ok)")
    return {"cells": len(fmap.z_grid) * len(fmap.f_grid), "ok": n_ok}, [out]


def _cmd_dfg(cfg: RunConfig):
    kfa, t_rel = cfg["kfa"], cfg["t_over_tf"]
    gap = dfg.pairing_gap(kfa)
    occ_bcs = dfg.bcs_ground_occupation(gap)
    occ_thermal = dfg.thermal_ground_occupation(t_rel)
    lines = [
        f"pairing_gap(kf_a={kfa:g})            = {FLOAT_FMT % gap}  [E_F]",
        f"bcs_ground_occupation(gap)          = {FLOAT_FMT % occ_bcs}",
        f"thermal_ground_occupation(T/T_F={t_rel:g}) = {FLOAT_FMT % occ_thermal}",
    ]
    for note in dfg.FORMULA_NOTES:
        lines.append(f"note: {note}")
    print("\n".join(lines))
    return _document(cfg, {"kf_a": kfa, "t_over_tf": t_rel, "pairing_gap": gap,
                           "bcs_ground_occupation": occ_bcs,
                           "thermal_ground_occupation": occ_thermal,
                           "notes": list(dfg.FORMULA_NOTES)})


def _cmd_split_gap(cfg: RunConfig):
    survey = _survey(cfg, cfg["dmin"], spacing=cfg["spacing"])
    out = cfg.out
    write_csv(
        out,
        "d [x0], f [hbar*omega/x0], e0 [hbar*omega], e1 [hbar*omega], "
        "gap [hbar*omega], centroid [x0]",
        survey.rows(),
    )
    if cfg["plot"]:
        _write_plot(out, [
            'set datafile separator ","',
            'set xlabel "separation d (x0)"',
            'set ylabel "gap (hbar*omega)"',
            'set logscale y',
            f'plot "{out.name}" using 1:5 with points title "e1 - e0"',
        ])
    print(f"wrote {out} ({len(survey.separations)}x{len(survey.tilts)} cells)")
    return {"cells": len(survey.separations) * len(survey.tilts)}, [out]


def _cmd_split_fidelity(cfg: RunConfig):
    survey = _survey(cfg, 0.0)  # the planner starts at separation 0
    d_target, f_bias = cfg["d_target"], cfg["f_bias"]
    path = splitting.plan_split_path(survey, d_target, cfg["min_gap"], f_bias=f_bias)
    if cfg["sudden"]:
        ramp = [(0.0, 0.0, f_bias), (1e-6, d_target, f_bias)]
    else:
        ramp = splitting.gap_adaptive_ramp(survey, path, cfg["duration"],
                                           samples=cfg["samples"])
    fid = tdse.split_fidelity(ramp, dt=cfg["dt"])
    bottleneck = min(
        splitting.path_gap(survey, node) for node in path
    )
    doc = {
        "fidelity": fid,
        "sudden": cfg["sudden"],
        "d_target": d_target,
        "f_bias": f_bias,
        "duration": cfg["duration"],
        "dt": cfg["dt"],
        "min_gap": cfg["min_gap"],
        "bottleneck_gap": bottleneck,
        "path_nodes": len(path),
    }
    write_json(cfg.out, doc)
    print(f"wrote {cfg.out} (fidelity = {fid:.8f})")
    return doc, [cfg.out]


def _cmd_units(cfg: RunConfig):
    omega = 2.0 * math.pi * cfg["omega_hz"]
    u = units.UnitSystem(mass=cfg["mass"], omega=omega)
    doc = {
        "omega_rad_per_s": omega,
        "mass_kg": cfg["mass"],
        "oscillator_length_m": u.length_scale,
        "energy_scale_j": u.energy_scale,
        "time_scale_s": u.time_scale,
        "force_scale_n": u.force_scale,
    }
    lines = [
        f"oscillator length = {FLOAT_FMT % u.length_scale} m",
        f"energy scale      = {FLOAT_FMT % u.energy_scale} J",
        f"time scale        = {FLOAT_FMT % u.time_scale} s",
        f"force scale       = {FLOAT_FMT % u.force_scale} N",
    ]
    moment = units.BOHR_MAGNETON * (
        1.0 if cfg["moment_bohr"] is None else cfg["moment_bohr"]
    )

    def force(gcm):
        newtons = units.force_from_gradient(gcm * units.GAUSS_PER_CM, moment=moment)
        return u.force_to_dimensionless(newtons)

    # optional input -> (document key, conversion, echo of the input as given)
    conversions = {
        "length_um": ("length_dimensionless", lambda um: u.length_to_dimensionless(um * 1e-6),
                      "length {} um  = {} x0"),
        "time_ms": ("time_dimensionless", lambda ms: u.time_to_dimensionless(ms * 1e-3),
                    "time {} ms  = {} trap units"),
        "gradient_gcm": ("force_dimensionless", force, "gradient {} G/cm  = {} force units"),
        "length_osc": ("length_si_m", u.length_to_si, "length {} x0  = {} m"),
        "time_osc": ("time_si_s", u.time_to_si, "time {} trap units  = {} s"),
    }
    for key, (doc_key, convert, echo) in conversions.items():
        if cfg[key] is not None:
            doc[doc_key] = convert(cfg[key])
            lines.append(echo.format(cfg.params[key], FLOAT_FMT % doc[doc_key]))
    print("\n".join(lines))
    return _document(cfg, doc)


# ---------------------------------------------------------- command table

class Command(NamedTuple):
    """One subcommand: handler(cfg) -> (results, outputs), the default
    output file, and each parameter's default or REQUIRED."""

    handler: Callable
    out: str
    params: dict


_SCAN = {"z": REQUIRED, "f": REQUIRED, "emin": REQUIRED, "emax": REQUIRED,
         "base_points": 160}
_SURVEY = {"dmax": 5.0, "nd": 26, "fmin": 0.08, "fmax": 0.16, "nf": 5}

COMMANDS = {
    "spectrum": Command(_cmd_spectrum, "spectrum.csv", {**_SCAN, "plot": False}),
    "resonances": Command(_cmd_resonances, "resonances.csv", _SCAN),
    "survival": Command(_cmd_survival, "survival.csv", {
        **_SCAN, "emin": None, "emax": None, "peak": 0, "tmax": None,
        "points": 200, "window": 60.0}),
    "fidelity-map": Command(_cmd_fidelity_map, "fidelity_map.csv", {
        "zmin": REQUIRED, "zmax": REQUIRED, "fmin": REQUIRED, "fmax": REQUIRED,
        "nz": REQUIRED, "nf": REQUIRED, "residual": culling.RESIDUAL_DEFAULT,
        "workers": 1, "format": "csv", "plot": False}),
    "dfg-estimates": Command(_cmd_dfg, "dfg_estimates.json",
                             {"kfa": -0.3, "t_over_tf": 0.1}),
    "split-gap": Command(_cmd_split_gap, "split_gap.csv",
                         {**_SURVEY, "dmin": 0.0, "spacing": 0.01, "plot": False}),
    "split-fidelity": Command(_cmd_split_fidelity, "split_fidelity.json", {
        **_SURVEY, "d_target": 4.82, "f_bias": 0.12, "duration": 400.0,
        "min_gap": 0.05, "samples": 400, "dt": 0.005, "sudden": False}),
    "units-convert": Command(_cmd_units, "units_convert.json", {
        "omega_hz": REQUIRED, "mass": "li6", "moment_bohr": None,
        "length_um": None, "time_ms": None, "gradient_gcm": None,
        "length_osc": None, "time_osc": None}),
}

_USAGE = (
    "usage: atomprep <subcommand> [options]\n"
    "subcommands: " + " | ".join(COMMANDS) + "\n"
    "run 'atomprep <subcommand> --help' for options\n"
)


def _parser(name: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=f"atomprep {name}", allow_abbrev=False)
    p.add_argument("--config", help="JSON config file keyed by flag name; flags override")
    p.add_argument("--out", help="output file path")
    for key, default in COMMANDS[name].params.items():
        kind = _KINDS.get(key, _number)
        switch = {"action": "store_true", "default": None} if kind is _switch else {}
        given = "required" if default is REQUIRED else f"default {default}"
        p.add_argument(_flag(key), help=f"{kind.__doc__}; {given}", **switch)
    return p


def _load_config(path, keys) -> dict:
    """The --config JSON object with '-' in keys read as '_'; keys outside
    `keys` are rejected."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    config = {str(k).replace("-", "_"): v for k, v in raw.items()}
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ConfigurationError(
            f"config file {path} has unknown keys: {', '.join(unknown)}"
        )
    return config


def _build_config(name: str, ns: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and flags, and convert every parameter."""
    declared = COMMANDS[name].params
    config = _load_config(ns.config, (*declared, "out"))

    def given(key, default=None):
        value = getattr(ns, key)
        return config.get(key, default) if value is None else value

    params, values = {}, {}
    for key, default in sorted(declared.items()):
        value = given(key, None if default is REQUIRED else default)
        if value is None and default is REQUIRED:
            raise ConfigurationError(f"missing required parameter {_flag(key)}")
        params[key] = value
        # an optional parameter without a default may stay unset
        if not (value is None and default is None):
            value = _KINDS.get(key, _number)(value, key.replace("_", "-"))
        values[key] = value
    out = given("out")
    out_given = out is not None
    if out is None:
        out = COMMANDS[name].out
        if values.get("format") == "json":
            out = out.replace(".csv", ".json")
    elif not isinstance(out, str):
        raise ConfigurationError(f"parameter out must be a file path, got {out!r}")
    out = Path(out)
    # checked here, so a bad path exits 2 before any computation
    if not out.parent.is_dir() or out.is_dir():
        raise ConfigurationError(
            f"output {out} must name a file in an existing directory"
        )
    return RunConfig(subcommand=name, params=params, values=values,
                     out=out, out_given=out_given)


def run(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        stream = sys.stdout if argv else sys.stderr
        stream.write(_USAGE)
        return 0 if argv else 64
    name = argv[0]
    if name not in COMMANDS:
        sys.stderr.write(f"unknown subcommand: {name}\n{_USAGE}")
        return 64
    try:
        ns = _parser(name).parse_args(argv[1:])
    except SystemExit as exc:
        # argparse already printed its message; fold into our exit scheme
        return 0 if exc.code == 0 else 2
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        cfg = _build_config(name, ns)
        results, outputs = COMMANDS[name].handler(cfg)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    if outputs:
        write_manifest(outputs[0], cfg, outputs, results, started, t0)
    return 0


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
