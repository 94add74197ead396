"""Integer count arguments: a count that is not an integer, or is below its
least value, is a DomainError naming it.

Each entry point checks its counts before any work, so a float count
never reaches numpy (whose TypeError would name no argument); Python and
numpy integers are both counts, and bools are not.
"""

import re

import numpy as np
import pytest

from atomprep.culling import fidelity_map
from atomprep.errors import DomainError, check_count
from atomprep.resonance import fit_lorentzian
from atomprep.splitting import gap_adaptive_ramp, gap_map, solve_double_well
from atomprep.tdse import WavePacket, propagate, uniform_grid

PATH = [(0.0, 0.0), (1.0, 0.1)]

ENTRY_POINTS = {
    "fidelity_map nz": ("nz", lambda n: fidelity_map((4.0, 4.6), (0.5, 0.6), n, 2)),
    "fidelity_map nf": ("nf", lambda n: fidelity_map((4.0, 4.6), (0.5, 0.6), 2, n)),
    "fidelity_map workers": (
        "workers", lambda n: fidelity_map((4.0, 4.6), (0.5, 0.6), 2, 2, workers=n)),
    "gap_map nd": ("nd", lambda n: gap_map((0.0, 1.0), (0.0, 0.1), n, 2)),
    "gap_map nf": ("nf", lambda n: gap_map((0.0, 1.0), (0.0, 0.1), 2, n)),
    "solve_double_well n_states": ("n_states", lambda n: solve_double_well(1.0, 0.1, n)),
    # the count is checked before the survey is read
    "gap_adaptive_ramp samples": (
        "samples", lambda n: gap_adaptive_ramp(None, PATH, 10.0, samples=n)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), "2", 0])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_bad_count_is_a_domain_error_naming_it(entry, value):
    name, call = ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=f"^{name} must be an integer of at least"):
        call(value)


@pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2)])
def test_python_and_numpy_integers_are_counts(value):
    check_count("n", value, 1)
    assert len(solve_double_well(1.0, 0.1, value).energies) == 2


def _propagate(min_samples):
    grid = uniform_grid(-4.0, 4.0)
    psi0 = WavePacket(grid=grid, values=np.exp(-0.5 * grid * grid).astype(complex))
    return propagate(psi0, 0.5 * grid * grid, 0.01, 0.1, min_samples=min_samples)


SINGLE_TRAP = ((4.4, 4.4), (0.5, 0.5))
CASES = [
    # a bool is an Integral, and True once ran a 1 x 1 map on one worker
    ("workers", 1, True, lambda sp, v: fidelity_map(*SINGLE_TRAP, v, v, workers=v)),
    ("nz", 1, True, lambda sp, v: fidelity_map(*SINGLE_TRAP, v, 1)),
    ("nf", 1, True, lambda sp, v: fidelity_map(*SINGLE_TRAP, 1, v)),
    ("n_states", 1, True, lambda sp, v: solve_double_well(1.0, 0.1, n_states=v)),
    ("peak_index", 0, True, fit_lorentzian),
    ("peak_index", 0, 1.0, fit_lorentzian),
    ("min_samples", 1, 0, lambda sp, v: _propagate(v)),
    ("min_samples", 1, -3, lambda sp, v: _propagate(v)),
]


@pytest.mark.parametrize("name,least,value,call", CASES,
                         ids=[f"{name}={value!r}" for name, _, value, _ in CASES])
def test_bools_non_integers_and_small_counts_are_named(name, least, value, call, fig_spectrum):
    message = f"{name} must be an integer of at least {least}, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(fig_spectrum, value)
