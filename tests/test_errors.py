"""Integer count arguments: a count that is not an integer, or is below its
least value, is a DomainError naming it.

Each entry point checks its counts before any work, so a float count
never reaches numpy (whose TypeError would name no argument); Python and
numpy integers are both counts.
"""

import numpy as np
import pytest

from atomprep.culling import fidelity_map
from atomprep.errors import DomainError, check_count
from atomprep.splitting import gap_adaptive_ramp, gap_map, solve_double_well

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

