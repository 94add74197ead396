"""What `import atomprep` loads, and what only a fit, a transform or a pool loads.

Each test runs its script in a fresh interpreter: this test process has
scipy.optimize and scipy.integrate loaded already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import atomprep

DEFERRED = ("scipy.optimize", "scipy.integrate", "concurrent.futures.process")


def _run_fresh(script, cwd):
    """Run script in a new interpreter; return the JSON its last line prints."""
    src = str(Path(atomprep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_split_fidelity_loads_neither_optimize_nor_integrate(tmp_path):
    out = _run_fresh(f"""
        import contextlib, io, json, sys
        # the modules every run loads anyway; the SciPy floor's own
        # imports sit in this baseline
        import numpy, scipy.special, scipy.linalg
        base = set(sys.modules)
        import atomprep.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = atomprep.cli.run([
                "split-fidelity", "--d-target", "1", "--dmax", "1", "--nd", "3",
                "--nf", "2", "--duration", "2", "--samples", "10", "--dt", "0.02",
                "--out", "split.json"])
        split_added = sorted(set(sys.modules) - base)
        from atomprep.potential import TrapSpec
        from atomprep.resonance import fit_lorentzian
        from atomprep.scattering import scan_spectrum
        fit_lorentzian(scan_spectrum(TrapSpec(4.4, 0.5), 0.05, 1.5), 0)
        print(json.dumps({{"code": code, "split_added": split_added,
                          "fit_loaded": sorted(set(sys.modules) & set({DEFERRED!r}))}}))
    """, tmp_path)
    assert out["code"] == 0
    assert (tmp_path / "split.json").is_file()
    assert [m for m in DEFERRED if m in out["split_added"]] == []
    assert out["fit_loaded"] == ["scipy.optimize"]


def test_pooled_map_imports_optimize_in_the_parent(tmp_path):
    out = _run_fresh("""
        import json, os, sys
        from atomprep.culling import fidelity_map
        # two usable CPUs on any host, so the pool starts two workers
        os.sched_getaffinity = lambda pid: {0, 1}
        before = "scipy.optimize" in sys.modules
        # every cell of this grid is bound and scanned
        pooled = fidelity_map((4.6, 5.0), (0.45, 0.5), 2, 2, workers=2)
        after = "scipy.optimize" in sys.modules
        pool = "concurrent.futures.process" in sys.modules
        serial = fidelity_map((4.6, 5.0), (0.45, 0.5), 2, 2, workers=1)
        print(json.dumps({"before": before, "after": after, "pool": pool,
                          "bound": sum(c.point is not None for c in serial.cells),
                          "equal": repr(pooled.cells) == repr(serial.cells)}))
    """, tmp_path)
    assert out["bound"] >= 2
    assert out == {"before": False, "after": True, "pool": True,
                   "bound": out["bound"], "equal": True}
