"""Vertex-space Laplacian oracles: tree counting and effective resistance.

These work entirely in the weighted vertex Laplacian, so they share no
code path with the tree enumeration or cycle-space routes they are used
to cross-check.  One helper assembles each component's grounded
Laplacian in integers, with conductance 1 for tree counting and 1/length
for resistance: row v is scaled by the lcm of the conductance
denominators at v, its own scale, never by one lcm for the whole
matrix.  Each Laplacian is eliminated once: tree counting takes one
determinant per component (every scale is 1 there).  The resistances of
all edges of a component need only the diagonal of the grounded inverse
and its entries at the edges, all on the pattern that eliminating the
vertices in order fills, so the oracle inverts selectively there
(Takahashi's equations) and reads each edge's resistance off three
entries.  That elimination and back pass are the oracle's own: the
resistances call nothing in :mod:`canmeas.linalg`, so the oracle shares
no code with the routes it checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterator, Mapping

from . import linalg
from .graphs import AugmentedGraph, connected_components


def _grounded_laplacians(
    g: AugmentedGraph, conductance: Callable[[str], tuple[int, int]]
) -> Iterator[tuple[list[list[int]], list[int], list[tuple[str, int, int]]]]:
    # The Laplacian of each component with an edge, less the row and
    # column of its last vertex (the grounded one; vertices are indexed in
    # sorted order), with each non-loop edge as (edge id, index of its
    # tail, index of its head).  Loops drop out of the Laplacian.  Each
    # edge conducts num/den, and row v is scaled by t_v, the lcm of the
    # den at v, so every entry is an integer; the scales come along.
    for comp in connected_components(g):
        verts = sorted(comp)
        if len(verts) == 1:
            continue
        index = {v: i for i, v in enumerate(verts)}
        edges = []
        for eid, (u, v) in g.edges:
            if u == v or u not in comp:
                continue
            edges.append((eid, index[u], index[v], *conductance(eid)))
        scales = [1] * len(verts)
        for _, i, j, _, den in edges:
            scales[i] = lcm(scales[i], den)
            scales[j] = lcm(scales[j], den)
        lap = [[0] * len(verts) for _ in verts]
        for _, i, j, num, den in edges:
            ci = scales[i] // den * num
            cj = scales[j] // den * num
            lap[i][i] += ci
            lap[i][j] -= ci
            lap[j][j] += cj
            lap[j][i] -= cj
        yield [row[:-1] for row in lap[:-1]], scales, [e[:3] for e in edges]


def tree_count(g: AugmentedGraph) -> int:
    """Number of spanning forests with one tree per component.

    Computed per component as the determinant of the grounded unweighted
    Laplacian, a principal minor; loops drop out of the Laplacian and
    never enter a tree.
    """
    total = 1
    for grounded, _, _ in _grounded_laplacians(g, lambda eid: (1, 1)):
        total *= linalg.integer_determinant(grounded)
    return total


def _grounded_inverse(
    grounded: list[list[int]], scales: list[int], edges: list[tuple[str, int, int]]
) -> tuple[list[dict[int, int]], int]:
    # Z = D L^-1 for the grounded Laplacian L, given as T L with the row
    # scales T and the edges as (id, i, j), on the pattern that eliminating
    # its vertices in order leaves: (Z, D), with Z[i][j] = Z[j][i] for
    # each pair on that pattern.  Eliminating vertex k joins its later
    # neighbours into a clique, so the pattern holds every edge.  The
    # elimination is fraction free (Bareiss) without swaps: each leading
    # minor of T L is a positive multiple of one of L, so the pivots are
    # positive.  Vertex k reduces the rows of its later neighbours, whole,
    # each by the multiplier u_ki t_i / t_k (L is symmetric), and a row
    # that no pivot touched since the step with pivot q is a multiple of
    # its Bareiss value, so it divides by q.  Takahashi's equations then
    # give Z from the pivot rows u, last row first:
    # z_ij = (delta_ij D p_(i-1) t_i - sum_k u_ik z_kj) / p_i.
    n = len(grounded)
    later: list[set[int]] = [set() for _ in range(n)]
    for _, i, j in edges:
        if i != n and j != n:
            later[min(i, j)].add(max(i, j))
    # rows[i]: row i on its pattern, from column i on.
    rows = []
    for i, row in enumerate(grounded):
        cols = sorted(later[i])
        for at, j in enumerate(cols):
            later[j].update(cols[at + 1 :])
        rows.append({j: row[j] for j in (i, *cols)})
    # pivots[k]: the pivot before step k; level[i]: the step row i last saw.
    pivots = [1]
    level = [0] * n
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
    det = pivots[n]
    z: list[dict[int, int]] = [{} for _ in range(n)]
    for i in range(n - 1, -1, -1):
        cols, u = list(rows[i]), list(rows[i].values())
        zi, pivot = z[i], pivots[i + 1]
        for j in cols:
            zj = z[j]
            zi[j] = zj[i] = -sum(map(mul, u, map(zj.__getitem__, cols))) // pivot
        total = sum(map(mul, u, map(zi.__getitem__, cols)))
        zi[i] = (det * pivots[i] * scales[i] - total) // pivot
    return z, det


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
    for grounded, scales, edges in _grounded_laplacians(
        g, lambda eid: (lengths[eid].denominator, lengths[eid].numerator)
    ):
        n = len(grounded)  # the grounded vertex has index n
        z, det = _grounded_inverse(grounded, scales, edges)
        z.append({n: 0})
        for eid, i, j in edges:
            zij = 0 if n in (i, j) else z[i][j]
            out[eid] = Fraction(z[i][i] + z[j][j] - 2 * zij, det)
    return out
