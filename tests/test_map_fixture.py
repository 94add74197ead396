"""The 36 x 12 fidelity map over z 3-6.5, f 0.05-0.6, pinned to a fixture.

The fixture holds one status letter per cell (o ok, e error, x out of
range), one string per size row, and (gamma0, gamma1) of every ok cell in
row order.  Statuses must match exactly and widths to rel 1e-9: not byte
for byte, because the dependency floor may round the last digits
differently.  Re-record it after a deliberate change of the map with

    PYTHONPATH=src python tests/test_map_fixture.py
"""

import json
from pathlib import Path

import numpy as np

from atomprep.culling import STATUS_ERROR, STATUS_OK, STATUS_OUT_OF_RANGE, fidelity_map

FIXTURE = Path(__file__).with_name("fidelity_map_36x12.json")
Z_RANGE, F_RANGE, NZ, NF = (3.0, 6.5), (0.05, 0.6), 36, 12
CODES = {STATUS_OK: "o", STATUS_ERROR: "e", STATUS_OUT_OF_RANGE: "x"}


def _summary() -> dict:
    fmap = fidelity_map(Z_RANGE, F_RANGE, NZ, NF)
    return {
        "status": ["".join(CODES[s] for s in row) for row in fmap.status],
        "widths": [[float(p.gamma0), float(p.gamma1)] for _, _, p in fmap.ok_points()],
    }


def test_map_matches_fixture():
    want = json.loads(FIXTURE.read_text())
    got = _summary()
    assert got["status"] == want["status"]
    assert len(got["widths"]) == len(want["widths"])
    np.testing.assert_allclose(got["widths"], want["widths"], rtol=1e-9, atol=0.0)


if __name__ == "__main__":
    summary = _summary()
    status, widths = (",\n".join("  " + json.dumps(item) for item in summary[key])
                      for key in ("status", "widths"))
    FIXTURE.write_text(f'{{\n "status": [\n{status}\n ],\n "widths": [\n{widths}\n ]\n}}\n')
