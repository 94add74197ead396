"""Host-speed calibration for timings on a shared machine.

On a shared, unpinned host the same job's time drifts by up to 2x over a
few minutes as other tenants come and go.  A fixed kernel, independent of
atomprep, is timed before and after every measured segment; scaling the
segment by the kernel's reference time over the mean of the two kernel
times gives seconds on a host that runs the kernel in its reference time.

Each kernel matches one kind of work: interpreter-bound scalar code (the
map scans), Crank-Nicolson-like banded solves on arrays of a few thousand
points (the propagations), and interpreter start-up with the numpy and
scipy imports (set-up).  On the 2-core development host, scaling cut the
quartile spread of back-to-back job times from 19% to 9% for map jobs and
from 11% to 6% for split jobs.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import solve_banded


def interpreter_kernel() -> float:
    """Seconds for a loop of scalar math and tiny numpy calls."""
    x = np.linspace(0.1, 2.0, 128)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(16000):
        y = np.exp(-x * (1 + i % 5))
        acc += float(y[7]) + math.atan2(acc % 1.0, 1.0 + i)
        for k in range(12):
            acc += math.sqrt(k + acc % 3.0)
    return time.perf_counter() - t0


def banded_kernel() -> float:
    """Seconds for tridiagonal complex solves on a 2048-point grid."""
    n = 2048
    grid = np.linspace(0.0, 1.0, n)
    psi = np.exp(3j * grid)
    band = np.zeros((3, n), dtype=complex)
    band[0, 1:] = band[2, :-1] = 0.1j
    t0 = time.perf_counter()
    for i in range(580):
        diag = 1.0 + 0.01j * np.cos(0.01 * i + grid)
        band[1] = diag
        psi = solve_banded((1, 1), band, diag.conj() * psi)
    return time.perf_counter() - t0


def startup_kernel() -> float:
    """Seconds for a fresh interpreter that imports numpy and scipy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.integrate, scipy.linalg,"
                    " scipy.optimize, scipy.special"], check=True, timeout=120)
    return time.perf_counter() - t0


# name -> (kernel, its time in seconds on the reference host)
KERNELS = {
    "interpreter": (interpreter_kernel, 0.1),
    "banded": (banded_kernel, 0.1),
    "startup": (startup_kernel, 0.7),
}


class Stopwatch:
    """Times a job in segments, each scaled to reference host speed.

    A segment runs from start() or the previous lap() to the next lap();
    its factor is the kernel's reference time over the mean of the kernel
    times measured just before and just after it.  Kernel time is not
    counted.
    """

    def __init__(self, kernel: str):
        self._kernel, self._reference = KERNELS[kernel]
        self._last = self._kernel()
        self._t0 = 0.0
        self.raw_s = 0.0
        self.seconds = 0.0

    def start(self) -> None:
        self.raw_s = self.seconds = 0.0
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        raw = time.perf_counter() - self._t0
        now = self._kernel()
        self.raw_s += raw
        self.seconds += raw * self._reference / (0.5 * (self._last + now))
        self._last = now
        self._t0 = time.perf_counter()
