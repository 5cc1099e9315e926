"""Host-speed probes: fixed loops, independent of the program.

On a shared host the speed of this benchmark's passes drifts by up to a
third over minutes, and the drift differs between pure-Python code and numpy
array code.  A run times a probe just before and just after every program
call of a pass (and every set-up interpreter), divides each time by the mean
of its two probes, and multiplies by the probe's reference time, so it reads
as on a host where the probe takes that long.  A probe never touches pssurf,
so a change to the program moves the scaled time as it moves the raw time,
which the run also prints.

The probe matches the kind of work that dominates what it scales: exact
rational arithmetic on dicts for set-up and the symbolic workloads, and that
plus elementwise numpy transcendentals for ch2-numeric, whose time is part
numpy inversion and part Python expression evaluation.  In two sets of ten
30-second runs on a 2-core virtual machine (sets I and J in reference.json),
the spread (interquartile range over median) of the raw pass times was 0.10
and 0.21 for verify-catalog, 0.06 and 0.21 for construct-thm35, and 0.15 and
0.13 for ch2-numeric; scaled this way it was 0.03 and 0.02, 0.06 and 0.04,
and 0.05 and 0.03.  Between the sets the raw medians moved by up to 29% and
the scaled ones by at most 2%.  Probes at the ends of each pass only (sets F
and G) left ch2-numeric at 0.12 and 0.05.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(10) for j in range(10)}
_GRID = np.linspace(-8.0, 8.0, 200_000)


def python_loop() -> float:
    """Wall time of a fixed sparse product with Fraction coefficients."""
    t0 = time.perf_counter()
    for _ in range(2):
        out = {}
        for (i1, j1), c1 in _TERMS.items():
            for (i2, j2), c2 in _TERMS.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
    return time.perf_counter() - t0


def numpy_loop() -> float:
    """Wall time of fixed elementwise transcendentals on a 200 000-point grid."""
    t0 = time.perf_counter()
    for _ in range(30):
        np.where(np.tanh(_GRID) > 0, np.log(np.abs(_GRID) + 1.0), np.exp(-_GRID * _GRID))
    return time.perf_counter() - t0


def mixed_loop() -> float:
    """Wall time of both loops, for work that is part Python, part numpy."""
    return python_loop() + numpy_loop()


# probe -> its wall time on the reference host in its usual state
REFERENCE_S = {python_loop: 0.1, mixed_loop: 0.16}
