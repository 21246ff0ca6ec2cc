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
from typing import Iterable, Mapping, Sequence

from .errors import DisconnectedGraph, InvalidGraph, UnknownEdge, UnknownVertex, quoted


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
                raise InvalidGraph(f"duplicate edge id {quoted(eid)}")
            seen.add(eid)
            if u not in vset or v not in vset:
                raise InvalidGraph(f"edge {quoted(eid)} has endpoint outside the vertex set")
        genus = dict(self.genus)
        for v, gv in genus.items():
            if v not in vset:
                raise UnknownVertex(f"genus assigned to unknown vertex {quoted(v)}")
            if gv < 0:
                raise InvalidGraph(f"negative genus at vertex {quoted(v)}")
        for v in verts:
            genus.setdefault(v, 0)
        marks = dict(self.marks)
        for label, v in marks.items():
            if v not in vset:
                raise UnknownVertex(f"mark {quoted(label)} placed on unknown vertex {quoted(v)}")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple([(eid, (u, v)) for eid, (u, v) in edges]))
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "marks", marks)

    @cached_property
    def _ends(self) -> dict[str, tuple[str, str]]:
        return {eid: uv for eid, uv in self.edges}

    @cached_property
    def _components(self) -> tuple[frozenset[str], ...]:
        # One search from every vertex in sorted order: each tree's root
        # is its smallest vertex, and the trees are reached one after the
        # other, so a component starts at each root.
        parts: list[list[str]] = []
        for v, link in search_forest(edge_adjacency(self), self.vertices).items():
            if link is None:
                parts.append([])
            parts[-1].append(v)
        return tuple([frozenset(part) for part in parts])

    @property
    def edge_ids(self) -> tuple[str, ...]:
        # Built from a list, as in __post_init__: a tuple built from a
        # generator is grown by resizing, and a resized tuple is freed onto
        # the free list of its final size, which then fills until a full
        # collection clears it.
        return tuple([eid for eid, _ in self.edges])

    def ends(self, edge_id: str) -> tuple[str, str]:
        try:
            return self._ends[edge_id]
        except KeyError:
            raise UnknownEdge(f"unknown edge {quoted(edge_id)}") from None


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


def search_forest(
    adjacent: Mapping[str, list[tuple[str, str]]], roots: Iterable[str]
) -> dict[str, tuple[str, str] | None]:
    """Parent links of the breadth-first search trees from each given
    root that no earlier tree reached.

    Maps every vertex reached, in the order reached, to the (edge id,
    vertex) pair it was reached through; a root maps to None, since
    any string, the empty one included, may be an edge id.
    """
    parents: dict[str, tuple[str, str] | None] = {}
    for root in roots:
        if root in parents:
            continue
        parents[root] = None
        queue = deque([root])
        while queue:
            w = queue.popleft()
            for eid, x in adjacent[w]:
                if x not in parents:
                    parents[x] = (eid, w)
                    queue.append(x)
    return parents


def connected_components(g: AugmentedGraph) -> list[frozenset[str]]:
    """Vertex sets of the connected components, sorted by smallest vertex.

    The graph searches its components once and keeps them; each call
    returns a new list of them.
    """
    return list(g._components)


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
    every genus-1 vertex at least 1: 2 g(v) - 2 + n(v) > 0, with n(v)
    the half edges (a loop gives two) and marks at v.  One pass over the
    edges and one over the marks count every vertex's n(v)."""
    weight = {v: 2 * gv - 2 for v, gv in g.genus.items()}
    for _, (u, v) in g.edges:
        weight[u] += 1
        weight[v] += 1
    for v in g.marks.values():
        weight[v] += 1
    return all(w > 0 for w in weight.values())


def _reachable(edges: list[tuple[int, int, int]], source: int, target: int) -> bool:
    """Whether the (bit, tail, head) edges join source to target.

    A union-find over the edges: a vertex that is no key of ``parent``
    is a root, each edge points one root at the other, and every climb
    halves its path, so chains stay short.  Any hashable vertex labels
    do; the forest enumeration passes ints.
    """
    parent: dict[int, int] = {}
    for _, a, b in edges:
        while a in parent:
            up = parent[a]
            parent[a] = a = parent.get(up, up)
        while b in parent:
            up = parent[b]
            parent[b] = b = parent.get(up, up)
        if a != b:
            parent[a] = b
    while source in parent:
        source = parent[source]
    while target in parent:
        target = parent[target]
    return source == target


def _forests(edges: list[tuple[int, int, int]], need: int) -> list[int]:
    """Masks of the forests of ``need`` edges that span the (bit, tail,
    head) non-loop edges, in the canonical order.

    Contraction and deletion on the first remaining edge, driven by a
    stack of frames (edges, the mask of their bits, the bits chosen so
    far, the edges still needed).  The contraction is pushed last, so
    it pops first: its forests all sort before the deletion's.  A frame
    whose edges number exactly what it needs is one forest: they are
    all forced.  A forced deletion waits on the stack as that forest's
    mask alone, so a long cycle keeps no copy of its path per level.
    """
    out: list[int] = []
    mask = 0
    for bit, _, _ in edges:
        mask |= bit
    stack: list = [(edges, mask, 0, need)]
    while stack:
        top = stack.pop()
        if type(top) is int:
            out.append(top)
            continue
        edges, mask, chosen, need = top
        if len(edges) == need:
            out.append(chosen | mask)
            continue
        bit, u, v = edges[0]
        rest = edges[1:]
        mask ^= bit
        # Contract v into u: an edge parallel to the picked one becomes
        # a loop and is dropped.
        merged = []
        kept = mask
        parallel = meets_v = False
        for e in rest:
            if e[1] != v and e[2] != v:
                merged.append(e)
            else:
                w = e[2] if e[1] == v else e[1]
                if w == u:
                    kept ^= e[0]
                    parallel = True
                else:
                    merged.append((e[0], u, w))
                    meets_v = True
        # The deletion has forests unless the picked edge is a bridge: the
        # remaining edges must still join its ends.  A parallel edge does,
        # none does when no other edge meets v, and otherwise a union-find
        # decides.
        if parallel or meets_v and _reachable(rest, u, v):
            stack.append(chosen | mask if len(rest) == need else (rest, mask, chosen, need))
        stack.append((merged, kept, chosen | bit, need - 1))
    return out


def mask_bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def forest_masks(g: AugmentedGraph) -> list[int]:
    """All spanning forests of g as edge bitmasks, in the canonical order.

    Bit i stands for ``g.edges[i]``, the i-th edge in id order, so
    :func:`mask_bits` of a mask gives its edges in sorted id order.  A
    forest has one tree per connected component, ``|V| - c`` edges, and
    never a loop.  Enumeration is by contraction and deletion on the
    first remaining edge in id order: forests through the edge come from
    the contraction (which drops the loops it creates), then forests
    avoiding it from the deletion (skipped when the edge is a bridge).
    Every forest through an edge sorts before every forest avoiding it,
    so the forests come out exactly once each and already in the
    canonical order, lexicographic on sorted edge id tuples, with no
    sort.  A branch stops as soon as its remaining edges are exactly as
    many as its forest still needs, since then they are all forced; so
    a cycle of n edges costs n - 1 bridge tests, not n^2 / 2.
    """
    index = {v: i for i, v in enumerate(g.vertices)}
    edges = [(1 << i, index[u], index[v]) for i, (_, (u, v)) in enumerate(g.edges) if u != v]
    return _forests(edges, len(g.vertices) - len(connected_components(g)))


def mask_edges(ids: Sequence[str], masks: Iterable[int]) -> list[list[str]]:
    """The ids of each mask's set bits, ``ids[i]`` for bit i, in order.

    A mask is read a byte at a time, and the ids of each byte value at
    each offset are listed once per call and kept, so a mask costs one
    lookup per byte, not one step per bit.
    """
    chunks = [(k, ids[k : k + 8], {}) for k in range(0, len(ids), 8)]
    out = []
    for mask in masks:
        edges: list[str] = []
        for k, chunk, seen in chunks:
            byte = mask >> k & 255
            part = seen.get(byte)
            if part is None:
                part = seen[byte] = [e for j, e in enumerate(chunk) if byte >> j & 1]
            edges += part
        out.append(edges)
    return out


def spanning_trees(g: AugmentedGraph) -> list[frozenset[str]]:
    """All spanning forests, each with one tree per connected component,
    as sets of edge ids.

    The masks of :func:`forest_masks`, decoded in their order, which is
    the canonical one: lexicographic on sorted edge id tuples.  For a
    connected graph the forests are the spanning trees.
    """
    return [frozenset(edges) for edges in mask_edges(g.edge_ids, forest_masks(g))]


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


def is_spanning_forest(g: AugmentedGraph, edge_ids: frozenset[str]) -> bool:
    """Whether the edge ids form a spanning forest of g.

    They do when the greedy forest over them keeps them all, so each is
    an edge of g and none is a loop or closes a cycle, and it has the
    ``|V| - c`` edges of every spanning forest of g.
    """
    forest = canonical_spanning_forest(g, edge_ids)
    return forest == edge_ids and len(forest) == len(g.vertices) - len(connected_components(g))


def cycle_boundary(g: AugmentedGraph, cycle: CycleVector) -> dict[str, int]:
    """Boundary of a chain: at each vertex, inflow minus outflow."""
    b = {v: 0 for v in g.vertices}
    for eid, c in cycle.coeffs.items():
        u, v = g.ends(eid)
        b[v] += c
        b[u] -= c
    return b


def add_forest_path(
    g: AugmentedGraph, parents: Mapping[str, tuple[str, str] | None],
    coeffs: dict[str, int], tail: str, head: str, c: int,
) -> tuple[str, str]:
    """Add c * (path head -> root - path tail -> root) to a chain.

    The paths climb the ``parents`` of :func:`search_forest`.  With c on
    an edge from tail to head, the sum's boundary sits at the two roots
    returned, head's then tail's, and vanishes when they are one.
    """
    roots = []
    for start, sign in ((head, c), (tail, -c)):
        node = start
        while parents[node] is not None:
            feid, above = parents[node]
            step = sign if g.ends(feid) == (node, above) else -sign
            coeffs[feid] = coeffs.get(feid, 0) + step
            node = above
        roots.append(node)
    return roots[0], roots[1]


def fundamental_cycles(g: AugmentedGraph) -> list[CycleVector]:
    """Fundamental cycles of the canonical spanning forest.

    Works per connected component, so it accepts disconnected graphs;
    the public :func:`cycle_basis` adds the connectivity requirement.
    One cycle per non-forest edge, in ascending id order; the defining
    edge always has coefficient +1.
    """
    forest = canonical_spanning_forest(g)
    parents = search_forest(edge_adjacency(g, forest), g.vertices)
    cycles: list[CycleVector] = []
    for eid, (u, v) in g.edges:
        if eid not in forest:
            coeffs = {eid: 1}
            add_forest_path(g, parents, coeffs, u, v, 1)
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
