"""Vertex-space Laplacian oracles: tree counting and effective resistance.

These work entirely in the weighted vertex Laplacian, so they share no
code path with the tree enumeration or cycle-space routes they are used
to cross-check, and they call nothing in :mod:`canmeas.linalg`.  One
helper assembles each component's grounded Laplacian in integers,
sparse, on the pattern that eliminating its vertices in sorted order
fills, with conductance 1 for tree counting and 1/length for
resistance: row v is scaled by the lcm of the conductance denominators
at v, its own scale, never by one lcm for the whole matrix.  It is
positive definite, and one helper eliminates it fraction free without
swaps; both oracles read the pivots, and the last is the tree count
(every scale is 1 there).  The resistances of a component need only
the diagonal of the grounded inverse and its entries at the edges, all
on the filled pattern, so the oracle inverts selectively there
(Takahashi's equations over the pivot rows) and reads each edge's
resistance off three entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterator, Mapping

from .graphs import AugmentedGraph, connected_components


def _grounded_laplacians(
    g: AugmentedGraph, conductance: Callable[[str], tuple[int, int]]
) -> Iterator[tuple[list[dict[int, int]], list[int], list[tuple[str, int, int]]]]:
    # The Laplacian of each component with an edge, less the row and
    # column of its last vertex (the grounded one; vertices are indexed in
    # sorted order), with each non-loop edge as (edge id, index of its
    # tail, index of its head).  Loops drop out of the Laplacian.  Each
    # edge conducts num/den, and row v is scaled by t_v, the lcm of the
    # den at v, so every entry is an integer; the scales come along.
    # Row i is a dict from column i on, so entry (j, i) of T L is entry
    # (i, j) t_j / t_i.  It holds the pattern that eliminating the
    # vertices in order fills, which holds every edge: eliminating vertex
    # i joins its later columns into a clique, and the first of them (its
    # parent in the elimination tree) inherits the rest.
    # One pass over the edges hands each to its ends' component, indexed there.
    comps = [sorted(comp) for comp in connected_components(g)]
    owner = {v: k for k, verts in enumerate(comps) for v in verts}
    index = {v: i for verts in comps for i, v in enumerate(verts)}
    by_comp: list[list[tuple[str, int, int, int, int]]] = [[] for _ in comps]
    for eid, (u, v) in g.edges:
        if u != v:
            by_comp[owner[u]].append((eid, index[u], index[v], *conductance(eid)))
    for verts, edges in zip(comps, by_comp):
        if not edges:
            continue
        n = len(verts) - 1  # the grounded vertex has index n
        scales = [1] * len(verts)
        for _, i, j, _, den in edges:
            scales[i] = lcm(scales[i], den)
            scales[j] = lcm(scales[j], den)
        rows = [{i: 0} for i in range(n + 1)]
        for _, i, j, num, den in edges:
            for a, b in ((i, j), (j, i)):
                c = scales[a] // den * num
                rows[a][a] += c
                if a < b < n:
                    rows[a][b] = rows[a].get(b, 0) - c
        for row in rows:
            later = sorted(row)[1:]
            for j in later[1:]:
                rows[later[0]].setdefault(j, 0)
        yield rows[:n], scales, [e[:3] for e in edges]


def _eliminate(rows: list[dict[int, int]], scales: list[int]) -> list[int]:
    # Bareiss's fraction-free elimination of T L, given as the rows of
    # _grounded_laplacians, in place and without swaps: returns the
    # pivots [1, p_1, ..., p_n] and leaves each row k as pivot row u_k,
    # its pivot popped.  p_k is the k-th leading minor of T L, a positive
    # multiple of that of L, so the pivots are positive.  Vertex k
    # reduces the rows of its later neighbours, whole, each by the
    # multiplier u_ki t_i / t_k (L is symmetric), and a row that no pivot
    # touched since the step with pivot q is a multiple of its Bareiss
    # value, so it divides by q.
    # pivots[k]: the pivot before step k; level[i]: the step row i last saw.
    pivots = [1]
    level = [0] * len(rows)
    for k, pivot_row in enumerate(rows):
        prev = pivots[k]
        q = pivots[level[k]]
        if q != prev:
            for j in pivot_row:
                pivot_row[j] = pivot_row[j] * prev // q
        pivot = pivot_row.pop(k)
        for i in pivot_row:
            row, q = rows[i], pivots[level[i]]
            a = pivot_row[i] * scales[i] * q // (scales[k] * prev)
            for j, x in row.items():
                row[j] = (pivot * x - a * pivot_row.get(j, 0)) // q
            level[i] = k + 1
        pivots.append(pivot)
    return pivots


def tree_count(g: AugmentedGraph) -> int:
    """Number of spanning forests with one tree per component.

    Computed per component as the determinant of the grounded unweighted
    Laplacian, a principal minor: the last pivot of its elimination.
    Loops drop out of the Laplacian and never enter a tree.
    """
    total = 1
    for rows, scales, _ in _grounded_laplacians(g, lambda eid: (1, 1)):
        total *= _eliminate(rows, scales)[-1]
    return total


def effective_resistance(
    g: AugmentedGraph, lengths: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """Effective resistance across each edge's endpoints, edge included.

    Each edge conducts 1/length.  Per connected component, one vertex is
    grounded, and the entries of Z = D L^-1 for the grounded Laplacian L
    are found on the pattern its elimination fills, which holds every
    edge: selected inversion, not the whole inverse.  With a zero row
    and column for the grounded vertex, the resistance across u-v is
    (z_uu + z_vv - 2 z_uv) / D, one Fraction per edge.  A loop has
    resistance zero.  Returns ``{edge_id: resistance}`` for every edge.
    """
    out = dict.fromkeys(g.edge_ids, Fraction(0))
    for rows, scales, edges in _grounded_laplacians(
        g, lambda eid: (lengths[eid].denominator, lengths[eid].numerator)
    ):
        pivots = _eliminate(rows, scales)
        n, det = len(rows), pivots[-1]  # the grounded vertex has index n
        # Takahashi's equations give Z from the pivot rows u, last row
        # first, with Z[i][j] = Z[j][i] on the pattern:
        # z_ij = (delta_ij D p_(i-1) t_i - sum_k u_ik z_kj) / p_i.
        z: list[dict[int, int]] = [{} for _ in range(n)]
        for i in range(n - 1, -1, -1):
            cols, u = list(rows[i]), list(rows[i].values())
            zi, pivot = z[i], pivots[i + 1]
            for j in cols:
                zj = z[j]
                zi[j] = zj[i] = -sum(map(mul, u, map(zj.__getitem__, cols))) // pivot
            total = sum(map(mul, u, map(zi.__getitem__, cols)))
            zi[i] = (det * pivots[i] * scales[i] - total) // pivot
        z.append({n: 0})
        for eid, i, j in edges:
            zij = 0 if n in (i, j) else z[i][j]
            out[eid] = Fraction(z[i][i] + z[j][j] - 2 * zij, det)
    return out
