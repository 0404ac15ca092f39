"""Fixed reference work that measures how fast the machine runs right now.

The machines this benchmark runs on share their cores with other virtual
machines, and their speed drifts: on a 2-core one, the same round took 2.6 s
and 4.6 s half a minute apart, with the process's CPU time equal to its wall
time.  A 50 ms version of the reference work below slowed and sped up with
the rounds around it (correlation 0.78 over 48 rounds of `highdeg-stability`,
0.85 over 48 of `singular-front`), so the benchmark reports times scaled by
it: a time measured while the reference work
took `c` seconds is reported as `time * REFERENCE_S / c`, the time it would
have taken while the reference work took REFERENCE_S.  The work is the same
mix the workloads do, made without xtwave, with fixed sizes and inputs, so no
change to xtwave changes it:

- B-spline values by the Cox-de Boor recursion in pure Python (like the
  per-point loop of `SplineSpace.tabulate`),
- a loop of small numpy operations,
- a sparse LU factorization and solve with SuperLU (like `system.solve`),
- a dense generalized symmetric eigensolve (like `estimate_infsup`).
"""

import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# a fixed scale, close to the reference work's time (0.2-0.25 s) on the machine of
# README.md's reference figures
REFERENCE_S = 0.2

_KNOTS = [0.0] * 4 + [i / 16 for i in range(1, 16)] + [1.0] * 4
_POINTS = [(i + 0.5) / 2400 for i in range(2400)]
_GRID = 110
_T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
_LAPLACIAN = (sp.kron(_T, sp.identity(_GRID)) + sp.kron(sp.identity(_GRID), _T)).tocsc()
_G = np.random.default_rng(0).standard_normal((520, 520))
_A = _G @ _G.T + 520.0 * np.eye(520)
_B = np.diag(np.linspace(1.0, 2.0, 520))
_SMALL = np.arange(8.0)


def _cox_de_boor(x, p=3):
    """All degree-p B-spline values at x."""
    t = _KNOTS
    values = [1.0 if t[i] <= x < t[i + 1] else 0.0 for i in range(len(t) - 1)]
    for k in range(1, p + 1):
        for i in range(len(t) - k - 1):
            a = (x - t[i]) / (t[i + k] - t[i]) if t[i + k] > t[i] else 0.0
            b = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) if t[i + k + 1] > t[i + 1] else 0.0
            values[i] = a * values[i] + b * values[i + 1]
    return values[: len(t) - p - 1]


def reference_work():
    """The fixed reference work: about equal parts of the four kinds above."""
    for x in _POINTS:
        _cox_de_boor(x)
    y = np.zeros(8)
    for _ in range(15000):
        y = y + _SMALL * 0.5
        np.searchsorted(_SMALL, 3.3)
    spla.splu(_LAPLACIAN).solve(np.ones(_GRID * _GRID))
    sla.eigh(_A, _B, eigvals_only=True)


def reference_s():
    """Wall time of one run of the reference work."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
