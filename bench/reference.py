"""A fixed reference task that gauges the machine's speed during a run.

The benchmark's host shares its cores with other work, and its speed drifts
by a quarter or more over minutes: the same batch of specs ran in 4.2 s in
one run and 6.2 s in the next, steady within each run.  No statistic taken
inside one run removes a drift that lasts the whole run.  So the end-to-end
timings are scaled by the speed of this task, timed in the same seconds as
the specs it sits between.

``unit()`` runs a fixed mix of interpreted Python and small numpy linear
algebra, the two kinds of work a coiso spec does, and returns its wall time.
It uses nothing from coiso, so a change to the program cannot move it.  A
time ``t`` measured while one unit takes ``u`` seconds is reported as
``t * NOMINAL_S / u``: seconds at the speed at which a unit takes
``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np

# the scale's anchor: about the median time of one unit run between specs on
# a 2-vCPU x86-64 host (OpenBLAS 0.3.31, numpy 2, Python 3.11); any fixed
# value would serve
NOMINAL_S = 0.0008

_MATRICES = [np.random.default_rng(0).standard_normal((6, 6)) for _ in range(8)]


def unit() -> float:
    """Wall time of one run of the reference task."""
    started = time.perf_counter()
    total, partial = 0.0, []
    for i in range(3000):
        total += (i % 7) * 0.5
        partial.append(total)
    for matrix in _MATRICES:
        np.linalg.svd(matrix)
        np.linalg.qr(matrix @ matrix.T)
    return time.perf_counter() - started


def units(count: int) -> list[float]:
    """Times of ``count`` units run back to back."""
    return [unit() for _ in range(count)]
