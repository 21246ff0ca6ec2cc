"""Vertex-space Laplacian oracles: tree counting and effective resistance.

These work entirely in the weighted vertex Laplacian, so they share no
code path with the tree enumeration or cycle-space routes they are used
to cross-check.  Each component's Laplacian is eliminated once: tree
counting takes one determinant per component, and the resistances of all
edges of a component come from one multi-column solve.  That solve runs
its own fraction-free elimination loop in integers
(:func:`canmeas.linalg.solve`), apart from the Bareiss routine behind
the Gram inverse of the matrix route, so the oracle shares no
elimination code with the route it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import linalg
from .graphs import AugmentedGraph, connected_components


def tree_count(g: AugmentedGraph) -> int:
    """Number of spanning forests with one tree per component.

    Computed per component as a principal minor determinant of the
    unweighted Laplacian; loops drop out of the Laplacian and never
    enter a tree.
    """
    total = 1
    for comp in connected_components(g):
        verts = sorted(comp)
        if len(verts) == 1:
            continue
        index = {v: i for i, v in enumerate(verts)}
        n = len(verts)
        lap = [[0] * n for _ in range(n)]
        for _, (u, v) in g.edges:
            if u not in index or u == v:
                continue
            i, j = index[u], index[v]
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
        minor = [row[:-1] for row in lap[:-1]]
        total *= linalg.integer_determinant(minor)
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
    for comp in connected_components(g):
        verts = sorted(comp)
        if len(verts) == 1:
            continue
        index = {w: i for i, w in enumerate(verts)}
        n = len(verts) - 1  # the last vertex is grounded
        lap = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        currents: list[tuple[str, int, int]] = []
        for eid, (a, b) in g.edges:
            if a == b or a not in comp:
                continue
            i, j = index[a], index[b]
            c = Fraction(1) / Fraction(lengths[eid])
            lap[i][i] += c
            lap[j][j] += c
            lap[i][j] -= c
            lap[j][i] -= c
            currents.append((eid, i, j))
        columns = []
        for _, i, j in currents:
            col = [Fraction(0)] * (n + 1)
            col[i], col[j] = Fraction(1), Fraction(-1)
            columns.append(col[:n])
        grounded = [row[:n] for row in lap[:n]]
        for (eid, i, j), x in zip(currents, linalg.solve(grounded, columns)):
            x.append(Fraction(0))
            out[eid] = x[i] - x[j]
    return out
