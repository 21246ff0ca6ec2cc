"""Vertex-space Laplacian oracles: tree counting and effective resistance.

These work entirely in the weighted vertex Laplacian, so they share no
code path with the tree enumeration or cycle-space routes they are used
to cross-check.  One helper assembles each component's grounded
Laplacian, with conductance 1 for tree counting and 1/length for
resistance, and each is eliminated once: tree counting takes one
determinant per component, and the resistances of all edges of a
component come from one multi-column solve.  That solve runs its own
fraction-free elimination loop in integers (:func:`canmeas.linalg.solve`),
apart from the Bareiss routine behind the Gram inverse of the matrix
route, so the oracle shares no elimination code with the route it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Iterator, Mapping

from . import linalg
from .graphs import AugmentedGraph, connected_components


def _grounded_laplacians(
    g: AugmentedGraph, conductance: Callable[[str], Any]
) -> Iterator[tuple[list[list[Any]], list[tuple[str, int, int]]]]:
    # The Laplacian of each component with an edge, less the row and
    # column of its last vertex (the grounded one; vertices are indexed in
    # sorted order), with each non-loop edge as (edge id, index of its
    # tail, index of its head).  Loops drop out of the Laplacian.
    for comp in connected_components(g):
        verts = sorted(comp)
        if len(verts) == 1:
            continue
        index = {v: i for i, v in enumerate(verts)}
        lap = [[0] * len(verts) for _ in verts]
        edges = []
        for eid, (u, v) in g.edges:
            if u == v or u not in comp:
                continue
            i, j = index[u], index[v]
            c = conductance(eid)
            lap[i][i] += c
            lap[j][j] += c
            lap[i][j] -= c
            lap[j][i] -= c
            edges.append((eid, i, j))
        yield [row[:-1] for row in lap[:-1]], edges


def tree_count(g: AugmentedGraph) -> int:
    """Number of spanning forests with one tree per component.

    Computed per component as the determinant of the grounded unweighted
    Laplacian, a principal minor; loops drop out of the Laplacian and
    never enter a tree.
    """
    total = 1
    for grounded, _ in _grounded_laplacians(g, lambda eid: 1):
        total *= linalg.integer_determinant(grounded)
    return total


def effective_resistance(
    g: AugmentedGraph, lengths: Mapping[str, Fraction]
) -> dict[str, Fraction]:
    """Effective resistance across each edge's endpoints, edge included.

    Each edge conducts 1/length.  Per connected component, one vertex is
    grounded and the grounded Laplacian is solved once, with one unit
    current column e_u - e_v per non-loop edge u-v; the resistance is the
    potential difference that column produces.  A loop has resistance
    zero.  Returns ``{edge_id: resistance}`` for every edge.
    """
    out = {eid: Fraction(0) for eid in g.edge_ids}
    for grounded, edges in _grounded_laplacians(g, lambda eid: 1 / Fraction(lengths[eid])):
        n = len(grounded)  # the grounded vertex has index n
        columns = []
        for _, i, j in edges:
            col = [0] * (n + 1)
            col[i], col[j] = 1, -1
            columns.append(col[:n])
        for (eid, i, j), x in zip(edges, linalg.solve(grounded, columns)):
            x.append(Fraction(0))
            out[eid] = x[i] - x[j]
    return out
