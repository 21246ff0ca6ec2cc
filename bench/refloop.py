"""The fixed reference loop every timing in the benchmark is divided by.

On a shared machine the speed of the host drifts by tens of percent
within minutes, and CPU time drifts with wall time, so neither is a
steady unit.  The benchmark therefore runs this loop just before and
just after each timed call and reports the call's cost in multiples of
the loop's mean duration (unit ``ref``).  The loop does the kind of work
canmeas does -- exact ``Fraction`` elimination, big-int products and
dict updates in pure Python -- and it never imports canmeas, so no
change to the program can change the unit.
"""

from __future__ import annotations

import time
from fractions import Fraction

_N = 7
_MATRIX = [
    [Fraction((3 * i + 5 * j) % 11 + 1, (i + 2 * j) % 7 + 1) + 4 * (i == j) for j in range(_N)]
    for i in range(_N)
]


def _work() -> int:
    # Gauss-Jordan inverse of a fixed rational matrix.
    a = [row[:] + [Fraction(int(i == j)) for j in range(_N)] for i, row in enumerate(_MATRIX)]
    for c in range(_N):
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for i in range(_N):
            if i != c:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    # Dict and big-int bookkeeping over the entries of the inverse.
    counts: dict[int, int] = {}
    acc = 1
    for row in a:
        for x in row[_N:]:
            key = x.denominator % 97
            counts[key] = counts.get(key, 0) + x.numerator.bit_length()
            acc = (acc * (x.numerator | 1)) % (1 << 521)
    return (acc + sum(k * v for k, v in counts.items())) & 0xFFFFFFFF


def timed() -> float:
    """Seconds taken by one pass of the reference loop."""
    start = time.perf_counter()
    value = _work()
    elapsed = time.perf_counter() - start
    if value != _EXPECTED:
        raise RuntimeError("reference loop computed a different value")
    return elapsed


_EXPECTED = _work()
