"""Finite multigraphs with vertex genera and marked points.

A graph here may have loops and parallel edges.  Vertices and edges are
identified by opaque strings; every canonical order used by this package
is plain lexicographic order on those ids.  Edges carry an orientation
(the order of their endpoint pair) which is respected by cycle vectors
but is otherwise immaterial.

Vertex genera and marked points only matter for stability and for the
atoms of canonical measures; the purely combinatorial operations ignore
them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import DisconnectedGraph, InvalidGraph, UnknownEdge, UnknownVertex


@dataclass(frozen=True)
class AugmentedGraph:
    """A multigraph together with a genus at each vertex and marked points.

    Args:
        vertices: vertex ids.  Stored sorted.
        edges: pairs ``(edge_id, (tail, head))``.  Stored sorted by id.
            Loops (tail equal to head) and parallel edges are allowed.
        genus: map from vertex id to a nonnegative integer.  Missing
            vertices get genus zero.
        marks: map from mark label to the vertex carrying that mark.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, tuple[str, str]], ...]
    genus: Mapping[str, int] = field(default_factory=dict)
    marks: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        verts = tuple(sorted(self.vertices))
        if len(set(verts)) != len(verts):
            raise InvalidGraph("duplicate vertex ids")
        vset = set(verts)
        edges = tuple(sorted(self.edges, key=lambda e: e[0]))
        seen: set[str] = set()
        for eid, (u, v) in edges:
            if eid in seen:
                raise InvalidGraph(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if u not in vset or v not in vset:
                raise InvalidGraph(f"edge {eid!r} has endpoint outside the vertex set")
        genus = dict(self.genus)
        for v, gv in genus.items():
            if v not in vset:
                raise UnknownVertex(f"genus assigned to unknown vertex {v!r}")
            if gv < 0:
                raise InvalidGraph(f"negative genus at vertex {v!r}")
        for v in verts:
            genus.setdefault(v, 0)
        marks = dict(self.marks)
        for label, v in marks.items():
            if v not in vset:
                raise UnknownVertex(f"mark {label!r} placed on unknown vertex {v!r}")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple((eid, (u, v)) for eid, (u, v) in edges))
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "marks", marks)

    @cached_property
    def _ends(self) -> dict[str, tuple[str, str]]:
        return {eid: uv for eid, uv in self.edges}

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.edges)

    def ends(self, edge_id: str) -> tuple[str, str]:
        try:
            return self._ends[edge_id]
        except KeyError:
            raise UnknownEdge(f"unknown edge {edge_id!r}") from None

    def degree(self, vertex: str) -> int:
        """Number of half edges at a vertex; a loop counts twice."""
        if vertex not in self.genus:
            raise UnknownVertex(f"unknown vertex {vertex!r}")
        d = 0
        for _, (u, v) in self.edges:
            d += (u == vertex) + (v == vertex)
        return d

    def marks_at(self, vertex: str) -> int:
        return sum(1 for v in self.marks.values() if v == vertex)


@dataclass(frozen=True)
class CycleVector:
    """An integer chain with zero boundary, as a map edge id -> coefficient.

    Coefficients are relative to each edge's stored orientation; edges
    with coefficient zero are omitted from the map.
    """

    coeffs: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", {e: c for e, c in sorted(self.coeffs.items()) if c != 0}
        )

    def __getitem__(self, edge_id: str) -> int:
        return self.coeffs.get(edge_id, 0)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.coeffs)


def edge_adjacency(
    g: AugmentedGraph, edge_ids: Iterable[str] | None = None
) -> dict[str, list[tuple[str, str]]]:
    """(edge id, neighbour) pairs at each vertex, over all edges or the given ones."""
    keep = None if edge_ids is None else set(edge_ids)
    out: dict[str, list[tuple[str, str]]] = {v: [] for v in g.vertices}
    for eid, (u, v) in g.edges:
        if keep is None or eid in keep:
            out[u].append((eid, v))
            out[v].append((eid, u))
    return out


def bfs_tree(
    adjacent: Mapping[str, list[tuple[str, str]]], root: str
) -> dict[str, tuple[str, str] | None]:
    """Breadth-first search tree of the component of root.

    Maps every vertex reached, in the order reached, to the (edge id,
    vertex) pair it was reached through; the root maps to None, since
    any string, the empty one included, may be an edge id.
    """
    parents: dict[str, tuple[str, str] | None] = {root: None}
    queue = deque([root])
    while queue:
        w = queue.popleft()
        for eid, x in adjacent[w]:
            if x not in parents:
                parents[x] = (eid, w)
                queue.append(x)
    return parents


def connected_components(g: AugmentedGraph) -> list[frozenset[str]]:
    """Vertex sets of the connected components, sorted by smallest vertex."""
    adjacent = edge_adjacency(g)
    seen: set[str] = set()
    parts: list[frozenset[str]] = []
    for start in g.vertices:
        if start not in seen:
            comp = frozenset(bfs_tree(adjacent, start))
            seen |= comp
            parts.append(comp)
    return sorted(parts, key=min)


def is_connected(g: AugmentedGraph) -> bool:
    return len(connected_components(g)) <= 1


def graph_genus(g: AugmentedGraph) -> int:
    """First Betti number |E| - |V| + c of the underlying multigraph."""
    return len(g.edges) - len(g.vertices) + len(connected_components(g))


def total_genus(g: AugmentedGraph) -> int:
    """Graph genus plus the sum of all vertex genera."""
    return graph_genus(g) + sum(g.genus.values())


def is_stable(g: AugmentedGraph) -> bool:
    """Every genus-0 vertex meets at least 3 half edges or marks, and
    every genus-1 vertex at least 1."""
    for v in g.vertices:
        weight = g.degree(v) + g.marks_at(v)
        gv = g.genus[v]
        if gv == 0 and weight < 3:
            return False
        if gv == 1 and weight < 1:
            return False
    return True


def _reachable(ends: Mapping[str, tuple[str, str]], source: str, target: str) -> bool:
    if source == target:
        return True
    adjacency: dict[str, set[str]] = {}
    for u, v in ends.values():
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    queue = deque([source])
    seen = {source}
    while queue:
        w = queue.popleft()
        for x in adjacency.get(w, ()):
            if x == target:
                return True
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return False


def spanning_trees(g: AugmentedGraph) -> list[frozenset[str]]:
    """All spanning forests, each with one tree per connected component.

    A forest is its set of edge ids; for a connected graph it is a
    spanning tree, and in general it has ``|V| - c`` edges.  Enumeration
    is by deletion and contraction on the first non-loop edge in id
    order: forests avoiding the edge come from the deletion (skipped
    when the edge is a bridge), forests through it from the contraction.
    Loops are pruned outright.  Each forest is produced exactly once;
    the result is sorted lexicographically on sorted edge id tuples.
    Meant for small graphs (up to roughly 16 edges).
    """

    def rec(ends: dict[str, tuple[str, str]]) -> list[set[str]]:
        pick = next((eid for eid in sorted(ends) if ends[eid][0] != ends[eid][1]), None)
        if pick is None:
            return [set()]
        u, v = ends[pick]
        rest = {eid: uv for eid, uv in ends.items() if eid != pick}
        found: list[set[str]] = []
        if _reachable(rest, u, v):
            found.extend(rec(rest))
        merged = {
            eid: (u if a == v else a, u if b == v else b)
            for eid, (a, b) in rest.items()
        }
        for t in rec(merged):
            t.add(pick)
            found.append(t)
        return found

    forests = [frozenset(t) for t in rec(dict(g._ends))]
    forests.sort(key=sorted)
    return forests


def find_root(parent: dict[str, str], x: str) -> str:
    """Root of x in a union-find forest given by parent links.

    Halves the path on the way up.  A caller joins two trees by pointing
    one root at the other.
    """
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def canonical_spanning_forest(
    g: AugmentedGraph, edge_ids: Iterable[str] | None = None
) -> frozenset[str]:
    """Greedy spanning forest taking the smallest usable edge id first.

    Over all edges, or only the given ones.  This is exactly the first
    entry of :func:`spanning_trees` in its canonical order, computed
    without enumerating the rest.
    """
    keep = None if edge_ids is None else set(edge_ids)
    parent = {v: v for v in g.vertices}
    chosen: set[str] = set()
    for eid, (u, v) in g.edges:
        if keep is not None and eid not in keep:
            continue
        ru, rv = find_root(parent, u), find_root(parent, v)
        if ru != rv:
            parent[ru] = rv
            chosen.add(eid)
    return frozenset(chosen)


def cycle_boundary(g: AugmentedGraph, cycle: CycleVector) -> dict[str, int]:
    """Boundary of a chain: at each vertex, inflow minus outflow."""
    b = {v: 0 for v in g.vertices}
    for eid, c in cycle.coeffs.items():
        u, v = g.ends(eid)
        b[v] += c
        b[u] -= c
    return b


def fundamental_cycles(g: AugmentedGraph) -> list[CycleVector]:
    """Fundamental cycles of the canonical spanning forest.

    Works per connected component, so it accepts disconnected graphs;
    the public :func:`cycle_basis` adds the connectivity requirement.
    One cycle per non-forest edge, in ascending id order; the defining
    edge always has coefficient +1.
    """
    forest = canonical_spanning_forest(g)
    adjacent = edge_adjacency(g, forest)
    parents: dict[str, tuple[str, str] | None] = {}
    for v in g.vertices:
        if v not in parents:
            parents.update(bfs_tree(adjacent, v))

    cycles: list[CycleVector] = []
    for eid, (u, v) in g.edges:
        if eid in forest:
            continue
        # The forest path from v to u is the climb from v to the root
        # followed by the descent from the root to u; the steps above the
        # meeting point are walked both ways and cancel.
        coeffs = {eid: 1}
        for start, sign in ((v, 1), (u, -1)):
            node = start
            while parents[node] is not None:
                feid, above = parents[node]
                step = 1 if g.ends(feid) == (node, above) else -1
                coeffs[feid] = coeffs.get(feid, 0) + sign * step
                node = above
        cycles.append(CycleVector(coeffs))
    return cycles


def cycle_basis(g: AugmentedGraph) -> list[CycleVector]:
    """Basis of the cycle space of a connected graph.

    The basis is the set of fundamental cycles of the canonical spanning
    tree, one per non-tree edge in ascending edge id order.  Raises
    DisconnectedGraph on disconnected input.
    """
    if not is_connected(g):
        raise DisconnectedGraph("cycle basis requires a connected graph")
    return fundamental_cycles(g)
