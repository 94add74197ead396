"""The 36 x 12 fidelity map over z 3-6.5, f 0.05-0.6, pinned to a fixture.

The fixture holds one status letter per cell (o ok, e error, x out of
range), one string per size row, and (gamma0, gamma1) of every ok cell in
row order.  Statuses must match exactly and widths to rel 1e-9: not byte
for byte, because the dependency floor may round the last digits
differently.  Re-record it after a deliberate change of the map with

    PYTHONPATH=src python tests/test_map_fixture.py

which prints, before it writes, the statuses that changed, how many
widths moved beyond rel 1e-9 and the largest relative move with its cell.
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


def _ok_widths(summary: dict) -> dict:
    """(i, j) -> [gamma0, gamma1] of every ok cell of a summary."""
    cells = [(i, j) for i, row in enumerate(summary["status"])
             for j, code in enumerate(row) if code == "o"]
    return dict(zip(cells, summary["widths"]))


def _report(old: dict, new: dict) -> None:
    """Print how new differs from old: changed statuses, the widths moved
    beyond the test's 1e-9 and the largest relative move, with its cell."""
    z_grid, f_grid = np.linspace(*Z_RANGE, NZ), np.linspace(*F_RANGE, NF)

    def cell(i, j):
        return f"(z {z_grid[i]:.4f}, f {f_grid[j]:.4f}) [{i}, {j}]"

    for i, (was, now) in enumerate(zip(old["status"], new["status"])):
        for j, (a, b) in enumerate(zip(was, now)):
            if a != b:
                print(f"status {cell(i, j)}: {a} -> {b}")
    old_w, new_w = _ok_widths(old), _ok_widths(new)
    both = sorted(old_w.keys() & new_w.keys())
    moves = [(abs(n - o) / abs(o), k, ij) for ij in both
             for k, (o, n) in enumerate(zip(old_w[ij], new_w[ij]))]
    moved = [m for m in moves if m[0] > 1e-9]
    print(f"{len(new_w)} ok cells, {len(both)} ok before and after; "
          f"{len(moved)} widths in {len({m[2] for m in moved})} cells moved beyond rel 1e-9")
    if moves:
        rel, k, ij = max(moves)
        print(f"largest move: rel {rel:.3g} in gamma{k} of {cell(*ij)}")


if __name__ == "__main__":
    summary = _summary()
    if FIXTURE.exists():
        _report(json.loads(FIXTURE.read_text()), summary)
    status, widths = (",\n".join("  " + json.dumps(item) for item in summary[key])
                      for key in ("status", "widths"))
    FIXTURE.write_text(f'{{\n "status": [\n{status}\n ],\n "widths": [\n{widths}\n ]\n}}\n')
