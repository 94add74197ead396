"""The benchmark's span tracer still binds to the package."""

import importlib.util
from pathlib import Path

from atomprep import culling, resonance
from atomprep.potential import TrapSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_and_uninstalls():
    tracing = _tracing()
    tracer = tracing.Tracer()
    # install raises if a binding in REQUIRED_BINDINGS was not patched
    tracer.install()
    try:
        for mod, attr in tracing.REQUIRED_BINDINGS:
            assert hasattr(getattr(mod, attr), "__wrapped__")
    finally:
        tracer.uninstall()
    for mod, attr in tracing.REQUIRED_BINDINGS:
        assert not hasattr(getattr(mod, attr), "__wrapped__")


def test_spectral_survival_matches_single_energies_under_its_span(ground_res):
    # resonance.match_calls_per_spectral counts match_amplitude spans whose
    # parent is survival_from_spectrum; quad asks for one energy at a time
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        resonance.survival_from_spectrum(TrapSpec(4.4, 0.5), ground_res, 0.0, window=20.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["resonance.spectral_calls"] == 1
    assert metrics["resonance.match_calls_per_spectral"] >= 21


def test_map_observer_counts_cell_statuses():
    # culling.cells, cells_scanned and ok_ratio come from the observer that
    # reads the status rows of the map fidelity_map returns
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # (4.0, 0.5) is out of range, (4.6, 0.5) is ok
        culling.fidelity_map((4.0, 4.6), (0.5, 0.5), 2, 1)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["culling.cells"] == 2
    assert metrics["culling.cells_scanned"] == 1
    assert metrics["culling.ok_ratio"] == 1
