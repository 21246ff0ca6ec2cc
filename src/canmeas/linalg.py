"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction (or int where noted).  Elimination
uses the Bareiss fraction-free scheme on an integer rescaling of the input,
so every intermediate division is exact and entry growth stays polynomial.
Each matrix is eliminated once per call: :func:`solve` carries all of its
right-hand sides through one forward pass, and :func:`is_positive_definite`
reads every leading principal minor off one Bareiss pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import BasisError

Matrix = list[list[Fraction]]


def _common_denominator(rows: Matrix) -> int:
    d = 1
    for row in rows:
        for x in row:
            d = lcm(d, Fraction(x).denominator)
    return d


def _to_integer_matrix(rows: Matrix) -> tuple[list[list[int]], int]:
    # Returns (d * rows, d) with d the least common denominator.
    d = _common_denominator(rows)
    scaled = [[int(Fraction(x) * d) for x in row] for row in rows]
    return scaled, d


def bareiss_eliminate(rows: list[list[int]], ncols_main: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free forward elimination on an integer matrix.

    Eliminates below the diagonal of the leading ``ncols_main`` columns;
    trailing columns (an augmented part) are carried through the same row
    operations.  Returns the reduced rows, the pivot column used at each
    step, and the sign accumulated from row swaps.  The last pivot times
    the swap sign is the determinant of the leading square block when
    ``ncols_main`` equals the row count.
    """
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    pivots: list[int] = []
    r = 0
    for c in range(ncols_main):
        if r >= n:
            break
        p = next((i for i in range(r, n) if m[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(c + 1, len(m[i])):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
    return m, pivots, sign


def rank_one_sum(terms: Iterable[tuple[Fraction, Sequence[int]]], size: int) -> Matrix:
    """Exact sum of w * r r^T over (weight w, integer row r) pairs.

    Every row has ``size`` entries; zero entries are skipped, so a sparse
    row costs only its support squared.
    """
    out = [[Fraction(0)] * size for _ in range(size)]
    for weight, row in terms:
        support = [i for i in range(size) if row[i] != 0]
        for i in support:
            wi = weight * row[i]
            for j in support:
                out[i][j] += wi * row[j]
    return out


def determinant(rows: Matrix) -> Fraction:
    """Determinant of a square rational matrix."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    scaled, d = _to_integer_matrix(rows)
    return Fraction(integer_determinant(scaled), d**n)


def integer_determinant(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, computed without fractions."""
    n = len(rows)
    if n == 0:
        return 1
    m, pivots, sign = bareiss_eliminate([list(r) for r in rows], n)
    if len(pivots) < n:
        return 0
    return sign * m[n - 1][n - 1]


def inverse(rows: Matrix) -> Matrix:
    """Inverse of a square rational matrix.

    Raises BasisError if the matrix is singular.  Forward elimination is
    fraction free on the integer rescaling; the triangular solves that
    follow are done with exact rationals.
    """
    n = len(rows)
    if n == 0:
        return []
    scaled, d = _to_integer_matrix(rows)
    aug = [scaled[i] + [d if j == i else 0 for j in range(n)] for i in range(n)]
    m, pivots, _ = bareiss_eliminate(aug, n)
    if len(pivots) < n:
        raise BasisError("matrix is singular")
    inv: Matrix = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            s = Fraction(m[i][n + col])
            for j in range(i + 1, n):
                s -= m[i][j] * x[j]
            x[i] = s / m[i][i]
        for i in range(n):
            inv[i][col] = x[i]
    return inv


def solve(rows: Matrix, rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Solve a square rational system for several right-hand sides.

    ``rhs`` is a list of columns; the result lists one solution column
    per right-hand side, in the same order.  One plain rational
    pivot-and-eliminate pass reduces the matrix and carries every column
    along, skipping zero entries; each column is then back-substituted.
    This is deliberately a different code path from :func:`inverse`.
    Raises BasisError on a singular matrix.
    """
    n = len(rows)
    width = n + len(rhs)
    a = [
        [Fraction(x) for x in row] + [Fraction(col[i]) for col in rhs]
        for i, row in enumerate(rows)
    ]
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            raise BasisError("matrix is singular")
        a[c], a[p] = a[p], a[c]
        pivot = a[c]
        support = [j for j in range(c + 1, width) if pivot[j] != 0]
        for i in range(c + 1, n):
            row = a[i]
            if row[c] == 0:
                continue
            f = row[c] / pivot[c]
            for j in support:
                row[j] -= f * pivot[j]
            row[c] = Fraction(0)
    upper = [[j for j in range(i + 1, n) if a[i][j] != 0] for i in range(n)]
    out = []
    for col in range(n, width):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            s = row[col]
            for j in upper[i]:
                s -= row[j] * x[j]
            x[i] = s / row[i]
        out.append(x)
    return out


def is_positive_definite(rows: Matrix) -> bool:
    """Sylvester's criterion from one fraction-free elimination.

    Bareiss elimination without row swaps on the integer rescaling d * A
    leaves as its k-th pivot the k-th leading principal minor of d * A,
    which is d^k times that of A.  The matrix is positive definite
    exactly when every pivot is positive; the first pivot <= 0 ends the
    pass.
    """
    m, _ = _to_integer_matrix(rows)
    n = len(m)
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = pivot
    return True
