"""Reference kernels that gauge the host's speed while a workload runs.

On a shared host other load slows every op by up to 1.8x, in phases of
seconds to minutes, and the phases move whole runs.  The kernel is fixed
work of the two kinds nilmag does, in equal parts: small numpy arrays in a
Python loop (the type-I closed forms) and scalar math under scipy's quad
(the H3 elliptic branches).  It runs no nilmag code, so no change to the
program moves it.  It runs after an op, untimed as part of the op, at most
once per GAP_S of the loop, and a run's time metrics are scaled to a host on
which the kernel takes REF_S: time * REF_S / median(kernel times).

Fresh interpreters (cli-cold ops and set-up) spend most of their time
starting Python and loading extension modules, which a fast phase of the
host speeds up far less than it speeds up the kernel: scaled by the kernel,
cli-cold spread more than unscaled.  Their times are scaled by a process
kernel of the same kind, a fresh interpreter that imports numpy, to a host
on which it takes PROCESS_REF_S.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad

REF_S = 2.0e-3  # a round figure within the kernel's range on the 2-core reference host (1.4-2.7 ms)
PASS = 60
WARM = 12  # a pass right after an op, with cold caches, reads 5-9% slow
GAP_S = 0.02
PROCESS_REF_S = 0.17  # a round figure within its range on the reference host (0.13-0.21 s)
PROCESS_CMD = (sys.executable, "-c", "import numpy")

_rng = np.random.default_rng(0)
_S = _rng.standard_normal((7, 7, 7))
_A = _rng.standard_normal((PASS, 7))
_B = _rng.standard_normal((PASS, 7))


def _agm(s: float) -> float:
    a, b = 1.0, math.sqrt(1.0 - 0.6 * math.sin(s) ** 2)
    for _ in range(6):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 1.0 / a + math.cos(s) * math.exp(-s)


def _work(n: int) -> float:
    acc = 0.0
    for i in range(n):
        a, b = _A[i], _B[i]
        c = a + b + 0.5 * np.einsum("i,j,ijk->k", a, b, _S)
        acc += float(np.dot(c, c)) ** 0.5
        m = np.outer(a, b)
        acc += float(np.linalg.norm(m - m.T))
    for i in range(n // 3):
        acc += quad(_agm, 0.0, 1.0 + 0.05 * i, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return acc


def sample() -> float:
    """Seconds of one timed kernel pass, after a short warm-up pass."""
    _work(WARM)
    t0 = time.perf_counter()
    _work(PASS)
    return time.perf_counter() - t0


def sample_process() -> float:
    """Wall seconds of a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run(PROCESS_CMD, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scale(samples, ref: float = REF_S) -> float:
    """Factor that carries a run's times to the reference host speed."""
    return ref / float(np.median(samples))
