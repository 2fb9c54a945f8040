"""A fixed probe of the machine's current speed, timed between ops.

On a shared host the speed one process gets drifts by 15-40% over minutes
(a busy sibling hardware thread, a neighbour's load), far more than the
changes the benchmark is meant to see.  The worker times this probe before every op and
after the last one.  ``run.py`` divides each op's latency by the median probe
time around it and multiplies by ``REF_S``, the probe's median time on the
reference machine: timings are reported in milliseconds at the reference
machine's speed, and the raw wall-clock numbers are printed beside them.

The probe mixes the kinds of work the program does: interpreted Python,
elementwise complex numpy on a few thousand points, small LAPACK
factorizations and normal draws.  It binds its numpy functions at import,
before the tracer wraps ``numpy.linalg.eigh``, so probe calls never show up
in the per-layer counts.  It is part of the benchmark and must not change,
or calibrated numbers stop being comparable across commits.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from numpy.linalg import cholesky as _cholesky
from numpy.linalg import eigh as _eigh

# median probe time on the reference machine (2-core Xeon, one BLAS thread)
REF_S = 0.040
# probes taken on each side of an op; two a side tracked the drift best in a
# study of repeated identical ops, and wider windows lag behind it
HALF_WINDOW = 2

_rng = np.random.default_rng(20240305)
_A = _rng.standard_normal((64, 64))
_SYM = _A + _A.T
_SPD = _A @ _A.T + 64.0 * np.eye(64)
_Z = _rng.standard_normal(4096).astype(complex)


def _work() -> float:
    s = 0.0
    for i in range(30000):
        s += i * 0.5
    d: dict[int, int] = {}
    for i in range(5000):
        d[i % 97] = d.get(i % 97, 0) + i
    for _ in range(20):
        _eigh(_SYM)
        _cholesky(_SPD)
    z = _Z
    for _ in range(200):
        z = np.sqrt(z * z + 1j) / (1.0 + np.abs(z))
    g = np.random.default_rng(1).standard_normal(100000)
    return s + len(d) + float(z.real[0]) + float(g[0])


def probe() -> float:
    """Seconds one pass of the fixed probe takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def factors(probes: list[float], n_ops: int) -> list[float]:
    """REF_S / (median probe around op i) for each of ``n_ops`` ops.

    ``probes[i]`` ran just before op i and ``probes[n_ops]`` after the last
    op.  The window takes ``HALF_WINDOW`` probes on each side of the op, so
    one probe disturbed by a burst of load does not decide an op's figure.
    """
    out = []
    for i in range(n_ops):
        lo, hi = max(0, i + 1 - HALF_WINDOW), min(len(probes), i + 1 + HALF_WINDOW)
        out.append(REF_S / statistics.median(probes[lo:hi]))
    return out
