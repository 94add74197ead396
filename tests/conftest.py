"""Shared fixtures: the expensive scans and fits are computed once per session."""

import pytest

from atomprep import scattering, specfun
from atomprep._arrays import where
from atomprep.potential import TrapSpec
from atomprep.resonance import fit_lorentzian
from atomprep.scattering import scan_spectrum


@pytest.fixture(scope="session")
def fig_trap():
    """Reference shallow culling trap with two quasi-bound levels."""
    return TrapSpec(4.4, 0.5)


@pytest.fixture(scope="session")
def fig_spectrum(fig_trap):
    return scan_spectrum(fig_trap, 0.05, 1.5)


@pytest.fixture(scope="session")
def ground_res(fig_spectrum):
    return fit_lorentzian(fig_spectrum, 0)


@pytest.fixture(scope="session")
def excited_res(fig_spectrum):
    return fit_lorentzian(fig_spectrum, 1)


@pytest.fixture(scope="session")
def deep_spectrum():
    """Deep near-harmonic trap; widths sit below the resolution floor."""
    return scan_spectrum(TrapSpec(12.0, 0.01), 0.3, 3.0)


@pytest.fixture
def break_airy(monkeypatch):
    """break_airy(spec, window, call, error=None) breaks the Airy pair at
    one energy of a trap: the first energy of the call-th matcher call
    (scattering._matched) of scan_spectrum(spec, *window).  Without error
    its Bi' is doubled there, so the matcher's Wronskian check fails; with
    an exception instance, airy_scaled raises it for any argument holding
    that point."""

    def arm(spec, window, call, error=None):
        calls = []
        matched = scattering._matched
        monkeypatch.setattr(scattering, "_matched",
                            lambda trap, energy: calls.append(energy) or matched(trap, energy))
        scan_spectrum(spec, *window)
        monkeypatch.setattr(scattering, "_matched", matched)
        energy = float(calls[call][0])

        trap = scattering._Trap.of(spec)
        target = trap.sigma * (trap.edge - (energy - trap.shelf) / trap.tilt)
        airy_scaled = specfun.airy_scaled

        def broken(s):
            hit = s == target
            if error is not None and (hit if isinstance(hit, bool) else hit.any()):
                raise error
            ai, aip, bi, bip, chi = airy_scaled(s)
            return specfun.ScaledAiryPair(ai, aip, bi, where(hit, 2.0 * bip, bip), chi)

        monkeypatch.setattr(specfun, "airy_scaled", broken)

    return arm
