"""The benchmark's span tracer still binds to the package."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
