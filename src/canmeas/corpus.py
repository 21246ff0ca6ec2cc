"""Seeded random instances for self tests and property testing.

Everything here is driven by a caller-supplied random.Random, so a fixed
seed reproduces the same corpus byte for byte.  Graphs are connected
multigraphs built from a random spanning tree plus extra edges (loops
and parallels allowed); lengths are small random rationals.  Callers
choose sizes and length bounds; the other bounds are fixed constants:
vertex genera 0 to 2, at most 4 layers, at most 3 breakpoints per edge,
and blocks of size 1 to 3 with consecutive scale ratios t^2.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Mapping, Sequence

import numpy as np

from .degeneration import LengthFamily
from .families import ScaleFunction
from .graphs import AugmentedGraph
from .layerings import OrderedPartition
from .measures import MetricGraph, NormalizedTestFunction
from .periods import BlockScaleProfile


def random_graph(rng: Random, max_vertices: int = 8, max_edges: int = 12) -> AugmentedGraph:
    """A random connected multigraph with vertex genera drawn from 0 to 2."""
    nv = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(nv))
    edges: list[tuple[str, tuple[str, str]]] = []
    order = list(range(1, nv))
    rng.shuffle(order)
    joined = ["v0"]
    for i in order:
        other = rng.choice(joined)
        edges.append((f"e{len(edges)}", (other, f"v{i}")))
        joined.append(f"v{i}")
    extra = rng.randint(0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        edges.append((f"e{len(edges)}", (u, v)))
    genus = {v: rng.randint(0, 2) for v in vertices}
    return AugmentedGraph(vertices=vertices, edges=tuple(edges), genus=genus)


def random_rational(rng: Random, max_numerator: int = 100, max_denominator: int = 100) -> Fraction:
    return Fraction(rng.randint(1, max_numerator), rng.randint(1, max_denominator))


def random_metric(rng: Random, g: AugmentedGraph, max_part: int = 100) -> MetricGraph:
    lengths = {e: random_rational(rng, max_part, max_part) for e in g.edge_ids}
    return MetricGraph(g, lengths)


def random_layering(rng: Random, g: AugmentedGraph) -> OrderedPartition:
    """A random ordered partition of the edge set into at most 4 layers."""
    ids = list(g.edge_ids)
    if not ids:
        return OrderedPartition(parts=())
    rng.shuffle(ids)
    layers = rng.randint(1, min(4, len(ids)))
    cuts = sorted(rng.sample(range(1, len(ids)), layers - 1)) if layers > 1 else []
    parts = []
    start = 0
    for cut in cuts + [len(ids)]:
        parts.append(frozenset(ids[start:cut]))
        start = cut
    return OrderedPartition(parts=tuple(parts))


def normalized_coordinates(rng: Random, p: OrderedPartition) -> dict[str, Fraction]:
    """Positive rational coordinates summing to one within each layer."""
    out: dict[str, Fraction] = {}
    for part in p.parts:
        ids = sorted(part)
        weights = [Fraction(rng.randint(1, 9)) for _ in ids]
        total = sum(weights, Fraction(0))
        for e, w in zip(ids, weights):
            out[e] = w / total
    return out


def layered_family(
    g: AugmentedGraph,
    p: OrderedPartition,
    point: Mapping[str, Fraction],
    exponents: Sequence[int] | None = None,
) -> LengthFamily:
    """The straight-line family: layer-j edges have length x_e * t^a_j.

    ``point`` gives the target coordinates x_e and ``exponents`` the
    a_j, by default 0, 1, 2, ...  Lengths are built for the edges of
    ``point`` alone, so a point that misses an edge fails the family's
    own check of the target point.
    """
    if exponents is None:
        exponents = range(len(p.parts))
    lengths = {
        e: ScaleFunction.power(exponents[p.layer_of(e)], x) for e, x in point.items()
    }
    return LengthFamily(
        graph=g, param_lengths=lengths, target_layering=p, target_point=point
    )


def random_family(rng: Random, g: AugmentedGraph) -> LengthFamily:
    p = random_layering(rng, g)
    return layered_family(g, p, normalized_coordinates(rng, p))


def random_test_function(rng: Random, g: AugmentedGraph) -> NormalizedTestFunction:
    """Random rational piecewise-linear data in normalized coordinates,
    with at most 3 breakpoints per edge."""
    values = {
        v: Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for v in g.vertices
    }
    breaks = {}
    for e in g.edge_ids:
        n = rng.randint(0, 3)
        if not n:
            continue
        spots = sorted(rng.sample(range(1, 20), n))
        breaks[e] = tuple(
            (Fraction(s, 20), Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
            for s in spots
        )
    return NormalizedTestFunction(vertex_values=values, normalized_breaks=breaks)


def random_block_profile(
    gen: np.random.Generator, n_blocks: int | None = None
) -> BlockScaleProfile:
    """A random graded block profile with well-separated scales.

    Blocks have sizes 1 to 3.  Block k carries scale t^(-2(r-1-k)), so
    consecutive scale ratios vanish like t^2.  Diagonal limits are
    identity plus a small symmetric part, off-diagonal limits are
    moderate, which keeps every diagonal block comfortably invertible.
    """
    r = n_blocks if n_blocks is not None else int(gen.integers(2, 5))
    sizes = tuple(int(gen.integers(1, 4)) for _ in range(r))
    scales = tuple(ScaleFunction.power(-2 * (r - 1 - k)) for k in range(r))
    limits = []
    for k in range(r):
        row = []
        for l in range(r):
            if k == l:
                wiggle = gen.uniform(-0.2, 0.2, size=(sizes[k], sizes[k]))
                row.append(np.eye(sizes[k]) + (wiggle + wiggle.T) / 2)
            else:
                row.append(gen.uniform(-0.3, 0.3, size=(sizes[k], sizes[l])))
        limits.append(tuple(row))
    return BlockScaleProfile(block_sizes=sizes, scales=scales, limits=tuple(limits))
