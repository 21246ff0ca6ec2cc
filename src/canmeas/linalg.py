"""Exact linear algebra over the rationals, computed in integers.

Every kernel works on a matrix whose rows are scaled to integers, each
by a positive factor of its own, and eliminates fraction free
(Bareiss), so each intermediate division is exact and entry growth
stays polynomial.  An elimination that leaves a row alone at a step
keeps one level per row, under one rule: a row untouched since the step
with pivot q is a multiple of its Bareiss value, so its next update
divides by q, and as pivot row k it is first multiplied by p_(k-1) / q.
What follows the elimination stays in integers too: by Cramer's rule, D
times an entry of the inverse is an integer when D is the final pivot,
so every later step divides exactly, and an answer is an integer matrix
or vector over one denominator.

The kernels take integer rows from the caller, so a caller that knows
its rows' scales (the measure routes and the period layer targets read
them off the edge lengths) builds no Fraction until its own result.
There is one kernel per task, and the kernels share no code.
:func:`selected_inverse` is the one symmetric inverse: it eliminates on
the filled pattern (:func:`elimination_fill`) and runs Takahashi's
equations back over the pivots, so the matrix route, which reads a Gram
inverse only between cycles that meet, never forms the whole inverse,
and the period layer targets, which print it, pass the full pattern.
:func:`projection_norms` serves the projection route, which the matrix
route is checked against: exact Gram-Schmidt, one forward elimination
whose pivot rows give every edge's quadratic form c^T G^-1 c with no
back-substitution.  :func:`integer_determinant` counts trees, and
:func:`is_positive_definite` reads every leading principal minor off
one Bareiss pass.  The resistance oracle of :mod:`canmeas.kirchhoff`
calls none of them.  :func:`inverse` (over :func:`solve`, the one
general solve, which serves nothing else) and :func:`determinant` scale
each rational row by the lcm of its denominators and refuse a matrix
that is not square; no package module calls them, and they stay while
the benchmark tracer names them (ROADMAP item 1).
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
    determinant is divided by the product of the row scales.  Raises
    BasisError if the matrix is not square.
    """
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
    # Each row of a square matrix times the lcm of its denominators, and
    # those lcms.
    n = len(rows)
    scaled, scales = [], []
    for row in rows:
        if len(row) != n:
            raise BasisError("matrix is not square")
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

    The elimination runs without row swaps, right-looking: each leading
    minor of S A is a positive multiple of one of A, so every pivot p_k
    is positive when A is definite, and a zero pivot means A is singular
    (BasisError).  Pivot row k reduces every row i of its pattern, whole:
    A is symmetric, so row i's entry in column k is u_ki s_i / s_k, and
    only the columns from i on are kept.  A row last reduced at the step
    with pivot q catches up as the module says, so its multiplier is
    u_ki s_i q / (s_k p_(k-1)) and its update divides by q.  Takahashi's
    equations then run backwards over the pivot rows u_i, entry by exact
    entry:

        W_ij = (delta_ij D p_(i-1) s_i - sum_k u_ik W_kj) / p_i,

    over the pattern k of row i, which holds every W_kj it reads.
    """
    n = len(rows)
    # upper[i]: row i on its pattern, from column i on.
    upper = [{j: row[j] for j in (i, *cols)} for i, (row, cols) in enumerate(zip(rows, fill))]
    # pivots[k] is the pivot before step k (1 at the start), and
    # pivots[k + 1] that of step k; level[i]: the step row i last saw.
    pivots = [1]
    level = [0] * n
    for k, u in enumerate(upper):
        prev, q = pivots[k], pivots[level[k]]
        if q != prev:
            for j in u:
                u[j] = u[j] * prev // q
        pivot = u.pop(k)
        if pivot == 0:
            raise BasisError("matrix is singular")
        for i in u:
            row, q = upper[i], pivots[level[i]]
            a = u[i] * scales[i] * q // (scales[k] * prev)
            for j, x in row.items():
                row[j] = (pivot * x - a * u.get(j, 0)) // q
            level[i] = k + 1
        pivots.append(pivot)
    det = pivots[n]
    w: list[dict[int, int]] = [{} for _ in range(n)]
    for i in range(n - 1, -1, -1):
        cols, u, wi, pivot = fill[i], list(upper[i].values()), w[i], pivots[i + 1]
        for j in cols:
            # W[j] holds W_jk for every k of the pattern of row i.
            wj = w[j]
            wi[j] = wj[i] = -sum(map(mul, u, map(wj.__getitem__, cols))) // pivot
        total = sum(map(mul, u, map(wi.__getitem__, cols)))
        wi[i] = (det * pivots[i] * scales[i] - total) // pivot
    return w, det


def projection_norms(
    rows: list[list[int]], scales: Sequence[int], vectors: Sequence[Sequence[tuple[int, int]]]
) -> tuple[list[int], int]:
    """The quadratic forms c^T A^-1 c of a symmetric positive definite
    matrix A at sparse integer vectors c, as (N, D) with c^T A^-1 c = N / D.

    The caller passes S A as integer ``rows`` with the positive row
    ``scales`` S, and each vector as its (i, c_i) pairs, i ascending.  D
    is the final pivot of the fraction-free elimination of S A.

    One elimination of [S A | S], without row swaps, is all the matrix
    work; a pivot <= 0 means A is not definite (BasisError).  As in
    :func:`selected_inverse`, row i's multiplier at step k comes from
    the pivot row, u_ki s_i / s_k, so only the columns of S A from i on
    are kept; the block S stays lower triangular, and its diagonal entry
    in pivot row k is s_k p_(k-1).  A row whose multiplier is 0 is left
    alone and catches up as the module says.  A Bareiss step is linear
    in each column, so the reduced entry of pivot row k in the column
    S c is y_k = sum_i c_i Y_ki, read off the S block; no vector is
    carried through the elimination.  Bordering S A with that column and the row c^T gives
    the matrix [[S A, S c], [c^T, 0]], whose rows are scaled by (S, 1)
    from a symmetric one, so its border row's entry at step k is
    y_k / s_k, an exact division.  Its corner then runs Bareiss's
    recurrence from m_0 = 0,

        m_k = (p_k m_(k-1) - (y_k / s_k) y_k) / p_(k-1),

    and ends at its determinant, m_n = -D c^T A^-1 c, with no
    back-substitution.
    """
    n = len(rows)
    # pivots[k] is the pivot before step k (1 at the start), and
    # pivots[k + 1] that of step k.
    pivots = [1]
    # upper[i]: row i of S A from column i on; lower[i]: its S block
    # before column i.  level[i]: the pivot it was last updated by.
    upper = [row[i:] for i, row in enumerate(rows)]
    lower: list[list[int]] = [[0] * i for i in range(n)]
    level = [1] * n
    for k in range(n):
        prev, u, y, s = pivots[k], upper[k], lower[k], scales[k]
        q = level[k]
        if q != prev:
            u = [x * prev // q for x in u]
            y[:] = [x * prev // q for x in y]
        pivot = u[0]
        if pivot <= 0:
            raise BasisError("matrix is not positive definite")
        pivots.append(pivot)
        y.append(s * prev)
        for i in range(k + 1, n):
            a = u[i - k]
            if a == 0:
                continue
            q = level[i]
            a = a * scales[i] // s
            if q != prev:
                a = a * q // prev
            upper[i] = [(pivot * x - a * b) // q for x, b in zip(upper[i], u[i - k :])]
            yi = lower[i]
            yi[: k + 1] = [(pivot * x - a * b) // q for x, b in zip(yi, y)]
            level[i] = pivot
    # columns[j][k - j]: entry j of pivot row k's S block, for k >= j.
    columns = [[y[j] for y in lower[j:]] for j in range(n)]
    norms = []
    for c in vectors:
        start = c[0][0] if c else n
        # ys[k - start] = y_k; y_k = 0 before the first cycle of c.
        ys = [0] * (n - start)
        for j, b in c:
            at = j - start
            ys[at:] = [y + b * x for y, x in zip(ys[at:], columns[j])]
        m = 0
        for y, s, pivot, prev in zip(ys, scales[start:], pivots[start + 1 :], pivots[start:]):
            m = (pivot * m - y // s * y) // prev
        norms.append(-m)
    return norms, pivots[n]


def inverse(rows: Matrix) -> Matrix:
    """Inverse of a square rational matrix, as Fractions.

    Raises BasisError if the matrix is singular or not square.  Each
    row is scaled to integers by its own lcm, and :func:`solve` takes
    the columns of the identity under the same scales, so only the n^2
    output entries are built as Fractions.
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
    alone and catches up as the module says.  D is the final pivot, so
    by Cramer's rule each column back-substitutes in integers with exact
    divisions.  It serves :func:`inverse` alone.  Raises BasisError on a
    singular matrix.
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
