"""Exact linear algebra over the rationals, computed in integers.

Every kernel works on a matrix whose rows are scaled to integers, each
by a positive factor of its own, and eliminates fraction free
(Bareiss), so each intermediate division is exact and entry growth
stays polynomial.  The triangular solves that follow stay in integers
too: by Cramer's rule, D times the solution is an integer vector when D
is the final pivot, so back-substitution against D divides exactly, and
a system's answer is an integer matrix over one denominator.

The kernels take integer rows from the caller, so a caller that knows
its rows' scales (the measure routes and the period layer targets read
them off the edge lengths) builds no Fraction until its own result.
There is one kernel per task.  :func:`selected_inverse` is the one
symmetric inverse: it eliminates on the filled pattern
(:func:`elimination_fill`) and runs Takahashi's equations back over the
pivots, so the matrix route, which reads a Gram inverse only between
cycles that meet, never forms the whole inverse, and the period layer
targets, which print it, pass the full pattern.  :func:`solve`, the one
general solve, serves the projection route and carries all of its
right-hand sides through one forward pass; :func:`integer_determinant`
counts trees, and :func:`is_positive_definite` reads every leading
principal minor off one Bareiss pass.  The resistance oracle of
:mod:`canmeas.kirchhoff` calls none of them.  :func:`inverse` (over
:func:`solve`) and :func:`determinant` scale each rational row by the
lcm of its denominators; no package module calls them, and they stay
while the benchmark tracer names them (ROADMAP item 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Sequence

from .errors import BasisError

Matrix = list[list[Fraction]]


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
    """Determinant of a square integer matrix, from one dense Bareiss
    pass with row swaps; a column left without a pivot makes it 0."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = prev = 1
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        pivot = m[c]
        pc = pivot[c]
        for row in m[c + 1 :]:
            rc = row[c]
            for j in range(c + 1, n):
                row[j] = (pc * row[j] - rc * pivot[j]) // prev
        prev = pc
    return sign * prev


def _integer_rows(rows: Matrix) -> tuple[list[list[int]], list[int]]:
    # Each row times the lcm of its denominators, and those lcms.
    scaled, scales = [], []
    for row in rows:
        values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        d = lcm(*[x.denominator for x in values])
        scaled.append([x.numerator * (d // x.denominator) for x in values])
        scales.append(d)
    return scaled, scales


def elimination_fill(above: list[set[int]]) -> list[list[int]]:
    """The filled pattern of a symmetric matrix under elimination in
    natural order, from its off-diagonal pattern.

    ``above[i]`` holds the columns j > i where row i may be nonzero; the
    sets are consumed.  Returns, per row i, the ascending columns j > i
    of its pivot row once the rows above it are eliminated.  Eliminating
    row k fills in every pair of its columns, and the first of them (its
    parent in the elimination tree) inherits the rest; the rows further
    up that tree inherit them from it in turn.
    """
    fill = []
    for cols in above:
        cols = sorted(cols)
        if cols:
            above[cols[0]].update(cols[1:])
        fill.append(cols)
    return fill


def selected_inverse(
    rows: list[list[int]], scales: Sequence[int], fill: list[list[int]]
) -> tuple[list[dict[int, int]], int]:
    """The entries of the inverse of a symmetric positive semidefinite
    matrix A on its filled pattern, as (W, D) with inverse = W / D.

    The caller passes S A as integer ``rows`` with the positive row
    ``scales`` S, and the pattern from :func:`elimination_fill`; W[i]
    maps each column j on the pattern of row i, or of column i, to the
    integer entry W_ij = W_ji.  D is the final pivot of the
    fraction-free elimination of S A.  On the full pattern (row i
    holding every column after i) W is the whole of D A^-1.

    The elimination runs without row swaps, row by row: each leading
    minor of S A is a positive multiple of one of A, so every pivot p_i
    is positive when A is definite, and a zero pivot means A is singular
    (BasisError).  Row i of S A is reduced by the pivot rows k whose
    pattern reaches it.  Its multiplier there is u_ki s_i / s_k, because
    A is symmetric, so only the columns from i on are kept.  Each entry
    remembers the last step that changed it, and is caught up with
    p_k / p_step before its next use: the steps between only rescale it.
    Takahashi's equations then run backwards over the pivot rows u_i,
    entry by exact entry:

        W_ij = (delta_ij D p_(i-1) s_i - sum_k u_ik W_kj) / p_i,

    over the pattern k of row i, which holds every W_kj it reads.
    """
    n = len(rows)
    # pivots[k] is the pivot before step k (1 at the start), and
    # pivots[k + 1] that of step k.
    pivots = [1]
    upper: list[list[int]] = []
    # reach[i]: (k, position of i in fill[k]) for the steps k that reduce row i.
    reach: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, cols in enumerate(fill):
        for at, j in enumerate(cols):
            reach[j].append((k, at))
    for i, cols in enumerate(fill):
        x, s = rows[i][:], scales[i]
        step = [0] * n
        for k, at in reach[i]:
            u, kcols = upper[k], fill[k]
            prev, pivot = pivots[k], pivots[k + 1]
            a = u[at] * s // scales[k]
            for j, b in zip(kcols[at:], u[at:]):
                t = step[j]
                v = x[j] if t == k else x[j] * prev // pivots[t]
                x[j] = (pivot * v - a * b) // prev
                step[j] = k + 1
        last = pivots[i]
        for j in (i, *cols):
            t = step[j]
            if t != i:
                x[j] = x[j] * last // pivots[t]
        pivot = x[i]
        if pivot == 0:
            raise BasisError("matrix is singular")
        pivots.append(pivot)
        upper.append([x[j] for j in cols])
    det = pivots[n]
    w: list[dict[int, int]] = [{} for _ in range(n)]
    for i in range(n - 1, -1, -1):
        cols, u, wi, pivot = fill[i], upper[i], w[i], pivots[i + 1]
        for j in cols:
            # W[j] holds W_jk for every k of the pattern of row i.
            wj = w[j]
            wi[j] = wj[i] = -sum(map(mul, u, map(wj.__getitem__, cols))) // pivot
        total = sum(map(mul, u, map(wi.__getitem__, cols)))
        wi[i] = (det * pivots[i] * scales[i] - total) // pivot
    return w, det


def inverse(rows: Matrix) -> Matrix:
    """Inverse of a square rational matrix, as Fractions.

    Raises BasisError if the matrix is singular.  Each row is scaled to
    integers by its own lcm, and :func:`solve` takes the columns of the
    identity under the same scales, so only the n^2 output entries are
    built as Fractions.
    """
    scaled, scales = _integer_rows(rows)
    identity = [[s if i == j else 0 for i, s in enumerate(scales)] for j in range(len(scales))]
    ys, det = solve(scaled, identity)
    return [[Fraction(y[i], det) for y in ys] for i in range(len(ys))]


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
    It shares no code with :func:`selected_inverse`, the matrix route's
    kernel: it serves the projection route, which the matrix route is
    checked against, and :func:`inverse`, which rides on it.
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
