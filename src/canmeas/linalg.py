"""Exact linear algebra over the rationals, computed in integers.

Every kernel works on a matrix whose rows are scaled to integers, each
by a positive factor of its own, and eliminates fraction free
(Bareiss), so each intermediate division is exact and entry growth
stays polynomial.  The triangular solves that follow stay in integers
too: by Cramer's rule, D times the solution is an integer vector when D
is the final pivot, so back-substitution against D divides exactly, and
a system's answer is an integer matrix over one denominator.

:func:`scaled_inverse` and :func:`solve` take the integer rows and their
scales from the caller and return that integer answer, so a caller that
knows its rows' scales (the measure routes, the period layer targets and
the resistance oracle read them off the edge lengths) never builds a
Fraction until its own result, and :func:`is_positive_definite` takes
integer rows the same way.  :func:`inverse` and :func:`determinant`
scale each rational row by the lcm of its denominators; no package
module calls them, and they stay while the benchmark tracer names them
(ROADMAP item 1).
Each matrix is eliminated once per call: :func:`solve` carries all of
its right-hand sides through one forward pass, and
:func:`is_positive_definite` reads every leading principal minor off
one Bareiss pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .errors import BasisError

Matrix = list[list[Fraction]]


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


def determinant(rows: Matrix) -> Fraction:
    """Determinant of a square rational matrix.

    Each row is scaled to integers by its own lcm, so the integer
    determinant is divided by the product of the row scales.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    scaled, scales = _integer_rows(rows)
    return Fraction(integer_determinant(scaled), prod(scales))


def integer_determinant(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, computed without fractions."""
    n = len(rows)
    if n == 0:
        return 1
    m, pivots, sign = bareiss_eliminate(rows, n)
    if len(pivots) < n:
        return 0
    return sign * m[n - 1][n - 1]


def _integer_rows(rows: Matrix) -> tuple[list[list[int]], list[int]]:
    # Each row times the lcm of its denominators, and those lcms.
    scaled, scales = [], []
    for row in rows:
        values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        d = lcm(*[x.denominator for x in values])
        scaled.append([x.numerator * (d // x.denominator) for x in values])
        scales.append(d)
    return scaled, scales


def scaled_inverse(rows: list[list[int]], scales: Sequence[int]) -> tuple[list[list[int]], int]:
    """Inverse of a square rational matrix A as (Y, D), with inverse = Y / D.

    The caller passes S A as integer ``rows``, for S the diagonal matrix
    of the positive integer row ``scales``.  Y is an integer matrix and D
    a nonzero integer, the final Bareiss pivot of [S A | S].  Scaling
    each row by its own lcm keeps D small: a common denominator for the
    whole matrix would put the lcm of every entry's denominator into
    each row, and D would grow by that factor per row.  Raises
    BasisError if the matrix is singular.
    """
    n = len(rows)
    if n == 0:
        return [], 1
    aug = [
        list(row) + [s if i == j else 0 for j in range(n)]
        for i, (row, s) in enumerate(zip(rows, scales))
    ]
    m, pivots, _ = bareiss_eliminate(aug, n)
    if len(pivots) < n:
        raise BasisError("matrix is singular")
    det = m[n - 1][n - 1]
    upper = [[j for j in range(i + 1, n) if m[i][j]] for i in range(n)]
    out = [[0] * n for _ in range(n)]
    for col in range(n, 2 * n):
        # y = det * x is integral, so each division below is exact.
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            s = det * row[col]
            for j in upper[i]:
                s -= row[j] * y[j]
            y[i] = s // row[i]
        for i in range(n):
            out[i][col - n] = y[i]
    return out, det


def inverse(rows: Matrix) -> Matrix:
    """Inverse of a square rational matrix, as Fractions.

    Raises BasisError if the matrix is singular.  Each row is scaled to
    integers by its own lcm, the elimination and the triangular solves
    run in integers (:func:`scaled_inverse`), and only the n^2 output
    entries are built as Fractions.
    """
    y, det = scaled_inverse(*_integer_rows(rows))
    return [[Fraction(x, det) for x in row] for row in y]


def solve(rows: list[list[int]], rhs: list[list[int]]) -> tuple[list[list[int]], int]:
    """Solve a square system A X = B for several right-hand sides.

    The caller passes [A | B] with each row scaled to integers by a
    nonzero factor of its own: ``rows`` is the scaled A and ``rhs`` the
    list of scaled columns of B.  Returns (Y, D): Y lists one integer
    column per right-hand side, in the same order, and X = Y / D.  One
    fraction-free elimination reduces the matrix and carries every
    column along.  A row whose entry in the pivot column is zero is left
    alone and catches up later: a row last updated at the step with
    pivot q is a multiple of its Bareiss value, so its next update
    divides exactly by q.  D is the final pivot, so by Cramer's rule
    each column back-substitutes in integers with exact divisions.
    This is deliberately a different code path from :func:`inverse`.
    Raises BasisError on a singular matrix.
    """
    n = len(rows)
    width = n + len(rhs)
    a = [list(row) + [col[i] for col in rhs] for i, row in enumerate(rows)]
    # level[i]: the pivot by which row i was last updated (1 for never).
    level = [1] * n
    prev = 1
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            raise BasisError("matrix is singular")
        a[c], a[p] = a[p], a[c]
        level[c], level[p] = level[p], level[c]
        pivot = a[c]
        if level[c] != prev:
            # Catch the pivot row up to the previous step.
            q = level[c]
            for j in range(c, width):
                if pivot[j]:
                    pivot[j] = pivot[j] * prev // q
        pc = pivot[c]
        for i in range(c + 1, n):
            row = a[i]
            rc = row[c]
            if rc == 0:
                continue
            q = level[i]
            for j in range(c + 1, width):
                if row[j] or pivot[j]:
                    row[j] = (pc * row[j] - rc * pivot[j]) // q
            row[c] = 0
            level[i] = pc
        prev = pc
    det = prev
    upper = [[j for j in range(i + 1, n) if a[i][j]] for i in range(n)]
    out = []
    for col in range(n, width):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = a[i]
            s = det * row[col]
            for j in upper[i]:
                s -= row[j] * y[j]
            y[i] = s // row[i]
        out.append(y)
    return out, det


def is_positive_definite(rows: list[list[int]]) -> bool:
    """Sylvester's criterion from one fraction-free elimination.

    The caller passes S A as integer ``rows``, for S a diagonal matrix of
    positive row scales d_i, which keep the sign of every leading
    principal minor: the k-th of S A is d_1 ... d_k times that of A.
    Bareiss elimination without row swaps leaves as its k-th pivot the
    k-th leading principal minor.  The matrix is positive definite
    exactly when every pivot is positive; the first pivot <= 0 ends the
    pass.
    """
    m = [list(row) for row in rows]
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
