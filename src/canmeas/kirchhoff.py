"""Vertex-space Laplacian oracles: tree counting and effective resistance.

These work entirely in the weighted vertex Laplacian, so they share no
code path with the tree enumeration or cycle-space routes they are used
to cross-check.  One helper assembles each component's grounded
Laplacian in integers, with conductance 1 for tree counting and 1/length
for resistance: row v is scaled by the lcm of the conductance
denominators at v, its own scale, never by one lcm for the whole
matrix.  Each Laplacian is eliminated once: tree counting takes one
determinant per component (every scale is 1 there), and the resistances
of all edges of a component come from one solve against the unit
columns, which gives the grounded inverse; each edge's resistance is
then read off three of its entries.  That solve runs its own
fraction-free elimination loop in integers (:func:`canmeas.linalg.solve`),
apart from the Bareiss routine behind the Gram inverse of the matrix
route, so the oracle shares no elimination code with the route it
checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def effective_resistance(
    g: AugmentedGraph, lengths: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """Effective resistance across each edge's endpoints, edge included.

    Each edge conducts 1/length.  Per connected component, one vertex is
    grounded and the grounded Laplacian L is solved once against its
    unit columns (column k scaled by row k's scale), which gives
    Y = D L^-1 in integers, one column per non-grounded vertex.  With a
    zero row and column for the grounded vertex, the resistance across
    u-v is (y_uu + y_vv - 2 y_uv) / D, one Fraction per edge.  A loop
    has resistance zero.  Returns ``{edge_id: resistance}`` for every
    edge.
    """
    out = dict.fromkeys(g.edge_ids, Fraction(0))
    for grounded, scales, edges in _grounded_laplacians(
        g, lambda eid: (lengths[eid].denominator, lengths[eid].numerator)
    ):
        n = len(grounded)  # the grounded vertex has index n
        columns = [[0] * n for _ in range(n)]
        for k, col in enumerate(columns):
            col[k] = scales[k]
        ys, det = linalg.solve(grounded, columns)
        # L^-1 is symmetric, so column k of Y is also its row k.
        for y in ys:
            y.append(0)
        ys.append([0] * (n + 1))
        for eid, i, j in edges:
            out[eid] = Fraction(ys[i][i] + ys[j][j] - 2 * ys[i][j], det)
    return out
