"""Ordered partitions of an edge set and the graded minors they induce.

An ordered partition splits the edges into consecutive layers.  Layer j
determines a graded minor: the edges of layer j, with each fiber (a
component of the subgraph of strictly later edges) shrunk to one vertex
that carries the fiber's genus.  The graph genus distributes
over the graded minors, spanning trees factor layer by layer, and the
cycle space admits bases adapted to the layers; this module materializes
all three constructions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import LayeringError
from .graphs import (
    AugmentedGraph,
    CycleVector,
    add_forest_path,
    canonical_spanning_forest,
    edge_adjacency,
    find_root,
    fundamental_cycles,
    graph_genus,
    search_forest,
    spanning_trees,
)


@dataclass(frozen=True)
class OrderedPartition:
    """A tuple of pairwise disjoint, nonempty edge id sets.

    The empty partition (no parts) is allowed and is the unique
    partition of the empty edge set.
    """

    parts: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        parts = tuple(frozenset(p) for p in self.parts)
        seen: set[str] = set()
        for p in parts:
            if not p:
                raise LayeringError("ordered partitions may not contain empty parts")
            if p & seen:
                raise LayeringError("ordered partition parts must be disjoint")
            seen |= p
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    @cached_property
    def edge_ids(self) -> frozenset[str]:
        out: set[str] = set()
        for p in self.parts:
            out |= p
        return frozenset(out)

    def layer_of(self, edge_id: str) -> int:
        """0-based index of the part containing an edge."""
        for j, p in enumerate(self.parts):
            if edge_id in p:
                return j
        raise LayeringError(f"edge {edge_id!r} is not covered by the partition")


def to_filtration(p: OrderedPartition) -> tuple[frozenset[str], ...]:
    """Increasing unions of initial segments of the parts."""
    out: list[frozenset[str]] = []
    acc: frozenset[str] = frozenset()
    for part in p.parts:
        acc = acc | part
        out.append(acc)
    return tuple(out)


def refines(p: OrderedPartition, q: OrderedPartition) -> bool:
    """True if p refines q, i.e. q's filtration is a subset of p's.

    Both partitions must cover the same edge set.  Every partition
    refines itself, and the empty partition is refined by nothing but
    itself (it covers no edges).
    """
    if p.edge_ids != q.edge_ids:
        raise LayeringError("refinement compares partitions of the same edge set")
    return set(to_filtration(q)) <= set(to_filtration(p))


def _validate_covering(g: AugmentedGraph, p: OrderedPartition) -> None:
    have = p.edge_ids
    want = frozenset(g.edge_ids)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        if missing:
            raise LayeringError(f"partition does not cover edges {missing}")
        raise LayeringError(f"partition mentions unknown edges {extra}")


@dataclass(frozen=True)
class GradedMinorReport:
    """The graded minors of a layered graph, with projection data.

    ``graph`` is the layered graph itself.  ``minors[j]`` has edge set
    equal to layer j.  ``vertex_maps[j]`` sends each original vertex to
    its image in minor j: the smallest vertex of its connected component
    in the subgraph of strictly later edges.
    """

    graph: AugmentedGraph
    layering: OrderedPartition
    minors: tuple[AugmentedGraph, ...]
    genus_vector: tuple[int, ...]
    vertex_maps: tuple[Mapping[str, str], ...]


def graded_minors(g: AugmentedGraph, p: OrderedPartition) -> GradedMinorReport:
    """Build every graded minor of g along p.

    Minor j keeps the edges of layer j and contracts every later edge.
    Its vertices are the fibers, the components of the subgraph of
    layers j+1..r, each named by its smallest vertex; the layer-j edges
    keep their ends through that fiber map.  A fiber's genus is the sum
    of its vertex genera plus its own cycle count, and its marks move to
    it, so each minor is again a valid augmented graph, and minor 0 has
    the total genus of g.  One union-find sweep from the last layer back
    decides every fiber map.
    """
    _validate_covering(g, p)
    parent = {v: v for v in g.vertices}
    # Keyed by the current roots: each fiber's vertex genera plus its
    # cycles so far.
    genus = dict(g.genus)
    minors: list[AugmentedGraph] = []
    maps: list[Mapping[str, str]] = []
    for part in reversed(p.parts):
        vmap = {v: find_root(parent, v) for v in g.vertices}
        layer = [(eid, uv) for eid, uv in g.edges if eid in part]
        minors.append(
            AugmentedGraph(
                vertices=tuple(genus),
                edges=tuple((eid, (vmap[u], vmap[v])) for eid, (u, v) in layer),
                genus=dict(genus),
                marks={label: vmap[v] for label, v in g.marks.items()},
            )
        )
        maps.append(vmap)
        for _, (u, v) in layer:
            ru, rv = sorted((find_root(parent, u), find_root(parent, v)))
            if ru == rv:
                genus[ru] += 1
            else:
                parent[rv] = ru
                genus[ru] += genus.pop(rv)
    minors.reverse()
    maps.reverse()
    return GradedMinorReport(
        graph=g,
        layering=p,
        minors=tuple(minors),
        genus_vector=tuple(graph_genus(m) for m in minors),
        vertex_maps=tuple(maps),
    )


def layered_spanning_trees(report: GradedMinorReport) -> list[frozenset[str]]:
    """Spanning forests of a layered graph assembled layer by layer.

    Takes one spanning forest of each graded minor in ``report`` (from
    :func:`graded_minors`) and returns every union, as edge id sets.
    Each union is a spanning forest of the graph, and the count is the
    product of the per-minor counts.  Output is in the canonical sorted
    order used by :func:`canmeas.graphs.spanning_trees`.
    """
    combos: list[frozenset[str]] = [frozenset()]
    for minor in report.minors:
        layer_trees = spanning_trees(minor)
        combos = [c | t for c in combos for t in layer_trees]
    combos.sort(key=sorted)
    return combos


@dataclass(frozen=True)
class AdmissibleBasis:
    """A cycle basis grouped into one block per layer.

    Block j has one cycle per independent cycle of graded minor j; each
    of its cycles is supported on layers j..r, and restricting block j
    to layer j recovers a cycle basis of minor j.
    """

    blocks: tuple[tuple[CycleVector, ...], ...]

    @property
    def flat(self) -> tuple[CycleVector, ...]:
        return tuple(c for block in self.blocks for c in block)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(block) for block in self.blocks)


def admissible_cycle_basis(report: GradedMinorReport) -> AdmissibleBasis:
    """Lift the canonical bases of the graded minors to a basis for g.

    ``report`` is the graded-minor decomposition of g, as built by
    :func:`graded_minors`; its minors are used as they are, not built
    again.  A cycle of minor j, read as a chain in g on layer-j edges,
    need not close up: its boundary sits inside the fibers, the
    components of the subgraph of strictly later edges, whose smallest
    vertices are the vertices of minor j.
    Routing each edge's ends to their roots through a spanning forest of
    the fibers kills it without leaving layers j+1..r, so the lift stays
    supported on layers j..r and still restricts to the cycle on layer j.
    """
    g, p = report.graph, report.layering
    blocks: list[tuple[CycleVector, ...]] = []
    for j, minor in enumerate(report.minors):
        forest = canonical_spanning_forest(g, frozenset().union(*p.parts[j + 1 :]))
        parents = search_forest(edge_adjacency(g, forest), minor.vertices)
        lifted: list[CycleVector] = []
        for gamma in fundamental_cycles(minor):
            coeffs = dict(gamma.coeffs)
            # Boundary left at the fiber roots: none for a cycle of the minor.
            residual: Counter[str] = Counter()
            for eid, c in gamma.coeffs.items():
                head_root, tail_root = add_forest_path(g, parents, coeffs, *g.ends(eid), c)
                residual[head_root] += c
                residual[tail_root] -= c
            if any(residual.values()):
                raise LayeringError(
                    "graded minor cycle does not lift; partition is inconsistent"
                )
            lifted.append(CycleVector(coeffs))
        blocks.append(tuple(lifted))
    return AdmissibleBasis(blocks=tuple(blocks))
