"""Canonical measures on metric graphs and tropical curves.

The canonical measure of a metric graph spreads mass h = |E| - |V| + 1
over the edges and puts an integer atom of size genus(v) at each vertex.
The edge density is constant on each edge; the number

    mu(e) = (weight of spanning trees avoiding e) / (total tree weight),

with tree weight equal to the product of the lengths of the edges the
tree leaves out, is that density times the edge length.  Three routes to
mu are implemented: direct tree enumeration, orthogonal projection of an
edge onto the cycle space, and the inverse of the cycle Gram matrix.
They agree; keeping all three is the point, since they cross-check one
another and the Laplacian oracle in :mod:`canmeas.kirchhoff` checks them
all from outside.

The projection and matrix routes assemble the Gram matrix of the
fundamental cycle basis with :func:`canmeas.linalg.rank_one_sum` and
eliminate it once.  With positive lengths a Gram matrix is positive
definite exactly when it is nonsingular, so the singular-matrix check of
that one elimination does the work of Sylvester's criterion;
:func:`gram_matrices` still applies the criterion to bases that callers
supply.  Only the tree route enumerates trees.

For a tropical curve (a metric graph whose edges come with an ordered
layering, unit total length per layer) the edge mass on layer j is the
canonical edge mass of graded minor j, taken by the matrix route's
kernel: one Gram inverse per layer.  A test function's mean along an
edge does not depend on the edge's length, so :func:`integrate` reads it
off breakpoints in normalized edge coordinates.  Everything here is
exact; no floats enter at any point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from . import linalg
from .errors import (
    BasisError,
    DisconnectedGraph,
    FamilyError,
    InvalidGraph,
    LayeringError,
    InvalidTestFunction,
    UnknownEdge,
)
from .graphs import (
    AugmentedGraph,
    CycleVector,
    cycle_boundary,
    fundamental_cycles,
    is_connected,
    spanning_trees,
)
from .layerings import GradedMinorReport, OrderedPartition, graded_minors


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class MetricGraph:
    """An augmented graph with a positive rational length on every edge."""

    graph: AugmentedGraph
    lengths: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        lengths = {e: _as_fraction(x) for e, x in self.lengths.items()}
        for eid in lengths:
            if eid not in self.graph._ends:
                raise UnknownEdge(f"length given for unknown edge {eid!r}")
        for eid in self.graph.edge_ids:
            if eid not in lengths:
                raise InvalidGraph(f"edge {eid!r} has no length")
            if lengths[eid] <= 0:
                raise InvalidGraph(f"edge {eid!r} has nonpositive length")
        object.__setattr__(self, "lengths", lengths)

    def length(self, edge_id: str) -> Fraction:
        try:
            return self.lengths[edge_id]
        except KeyError:
            raise UnknownEdge(f"unknown edge {edge_id!r}") from None

    def scaled(self, factor: Fraction) -> "MetricGraph":
        f = _as_fraction(factor)
        if f <= 0:
            raise InvalidGraph("scale factor must be positive")
        return MetricGraph(self.graph, {e: x * f for e, x in self.lengths.items()})


@dataclass(frozen=True)
class TropicalCurve:
    """A layered metric graph, normalized to unit length per layer."""

    graph: AugmentedGraph
    lengths: Mapping[str, Fraction]
    layering: OrderedPartition

    def __post_init__(self) -> None:
        metric = MetricGraph(self.graph, self.lengths)
        object.__setattr__(self, "lengths", metric.lengths)
        if self.layering.edge_ids != frozenset(self.graph.edge_ids):
            raise LayeringError("layering must cover exactly the edges of the graph")
        for j, part in enumerate(self.layering.parts):
            total = sum((metric.lengths[e] for e in part), Fraction(0))
            if total != 1:
                raise LayeringError(
                    f"layer {j} has total length {total}, expected 1"
                )

    @property
    def metric(self) -> MetricGraph:
        return MetricGraph(self.graph, self.lengths)

    @cached_property
    def minors(self) -> GradedMinorReport:
        """The graded minors of the layering, built once per curve."""
        return graded_minors(self.graph, self.layering)


@dataclass(frozen=True)
class EdgeMeasure:
    """A rational mass per edge plus an atom at each vertex.

    The atoms are the vertex genera, as in the canonical measure, so
    they are read from the graph rather than stored.
    """

    metric: MetricGraph
    edge_coeffs: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        coeffs = {e: _as_fraction(x) for e, x in self.edge_coeffs.items()}
        if set(coeffs) != set(self.metric.graph.edge_ids):
            raise InvalidGraph("edge coefficients must cover exactly the edges")
        for e, x in coeffs.items():
            if x < 0 or x > 1:
                raise InvalidGraph(f"edge mass {x} on {e!r} is outside [0, 1]")
        object.__setattr__(self, "edge_coeffs", coeffs)

    @property
    def vertex_atoms(self) -> Mapping[str, int]:
        return self.metric.graph.genus

    @property
    def edge_mass(self) -> Fraction:
        return sum(self.edge_coeffs.values(), Fraction(0))

    @property
    def total_mass(self) -> Fraction:
        return self.edge_mass + sum(self.vertex_atoms.values())


def foster_by_trees(m: MetricGraph) -> EdgeMeasure:
    """Canonical measure by direct spanning tree enumeration."""
    if not is_connected(m.graph):
        raise DisconnectedGraph("canonical measure requires a connected graph")
    edge_ids = m.graph.edge_ids
    total = Fraction(0)
    inside: dict[str, Fraction] = {e: Fraction(0) for e in edge_ids}
    for tree in spanning_trees(m.graph):
        weight = Fraction(1)
        for eid in edge_ids:
            if eid not in tree:
                weight *= m.lengths[eid]
        total += weight
        for eid in tree:
            inside[eid] += weight
    coeffs = {e: 1 - inside[e] / total for e in edge_ids}
    return EdgeMeasure(metric=m, edge_coeffs=coeffs)


def _cycle_gram(m: MetricGraph, basis: Sequence[CycleVector]) -> list[list[Fraction]]:
    # Sum over edges of length(e) times the outer square of e's basis
    # coefficients.
    return linalg.rank_one_sum(
        ((m.lengths[eid], [gamma[eid] for gamma in basis]) for eid in m.graph.edge_ids),
        len(basis),
    )


def gram_matrices(m: MetricGraph, basis: Sequence[CycleVector]) -> linalg.Matrix:
    """Gram matrix of a cycle basis under the length inner product.

    Row i, column j is the inner product of basis cycles i and j, where
    edges are orthogonal and edge e has squared norm length(e).  Every
    cycle must have zero boundary, and the matrix must be positive
    definite (checked exactly); a dependent family fails that check.
    """
    for gamma in basis:
        for eid in gamma.support:
            if eid not in m.graph._ends:
                raise UnknownEdge(f"cycle uses unknown edge {eid!r}")
        if any(b != 0 for b in cycle_boundary(m.graph, gamma).values()):
            raise BasisError("basis element has nonzero boundary")
    matrix = _cycle_gram(m, basis)
    if not linalg.is_positive_definite(matrix):
        raise BasisError("cycle family is dependent; Gram matrix is not positive definite")
    return matrix


def foster_by_projection(m: MetricGraph) -> EdgeMeasure:
    """Canonical measure via orthogonal projection onto the cycle space.

    The mass of edge e is the squared length of the projection of e onto
    the cycle space, divided by the length of e.  The projection is
    found by solving the normal equations exactly, for all edges at once:
    one solve of the Gram matrix, with a column for each edge that lies
    on some basis cycle.
    """
    if not is_connected(m.graph):
        raise DisconnectedGraph("canonical measure requires a connected graph")
    basis = fundamental_cycles(m.graph)
    coeffs = {e: Fraction(0) for e in m.graph.edge_ids}
    rhs: dict[str, list[Fraction]] = {}
    for eid in m.graph.edge_ids:
        column = [m.lengths[eid] * gamma[eid] for gamma in basis]
        if any(x != 0 for x in column):
            rhs[eid] = column
    solutions = linalg.solve(_cycle_gram(m, basis), list(rhs.values()))
    for (eid, column), a in zip(rhs.items(), solutions):
        q = sum((ai * ri for ai, ri in zip(a, column)), Fraction(0))
        coeffs[eid] = q / m.lengths[eid]
    return EdgeMeasure(metric=m, edge_coeffs=coeffs)


def _cycle_space_masses(m: MetricGraph) -> dict[str, Fraction]:
    # The quadratic form of foster_by_matrix.  Fundamental cycles are
    # taken per component, so m may be disconnected, as minors often are.
    # The inverse is Y / D with Y an integer matrix, so each quadratic
    # form is an integer over D and each mass is one Fraction.
    basis = fundamental_cycles(m.graph)
    y, det = linalg.scaled_inverse(_cycle_gram(m, basis))
    coeffs = {}
    for eid in m.graph.edge_ids:
        c = [(i, x) for i, x in enumerate(gamma[eid] for gamma in basis) if x]
        s = sum(y[i][j] * a * b for i, a in c for j, b in c)
        length = m.lengths[eid]
        coeffs[eid] = Fraction(length.numerator * s, length.denominator * det)
    return coeffs


def foster_by_matrix(m: MetricGraph) -> EdgeMeasure:
    """Canonical measure from the inverse of the cycle Gram matrix.

    mu(e) = length(e) * sum_{i,j} inv(G)[i][j] * c_i(e) * c_j(e), with
    c_i(e) the coefficient of e in the i-th basis cycle.  The inverse is
    computed by fraction-free elimination; a singular matrix (dependent
    basis) raises BasisError.
    """
    if not is_connected(m.graph):
        raise DisconnectedGraph("canonical measure requires a connected graph")
    coeffs = _cycle_space_masses(m)
    return EdgeMeasure(metric=m, edge_coeffs=coeffs)


def tropical_canonical_measure(t: TropicalCurve) -> EdgeMeasure:
    """Canonical measure of a tropical curve, layer by layer.

    The mass of an edge in layer j is its canonical edge mass inside
    graded minor j (from the curve's cached ``minors``), with lengths
    restricted to that layer.  Minors may be disconnected; each
    fundamental cycle lies in one component, so each component
    contributes independently.  Vertex atoms are the vertex genera.
    """
    if not is_connected(t.graph):
        raise DisconnectedGraph("tropical curves must be connected")
    coeffs: dict[str, Fraction] = {}
    for minor in t.minors.minors:
        restricted = {e: t.lengths[e] for e in minor.edge_ids}
        coeffs.update(_cycle_space_masses(MetricGraph(minor, restricted)))
    return EdgeMeasure(metric=t.metric, edge_coeffs=coeffs)


@dataclass(frozen=True)
class NormalizedTestFunction:
    """A continuous piecewise linear function in normalized edge coordinates.

    Values are pinned at the vertices; each edge may add interior
    breakpoints as (position, value) pairs, with positions in (0, 1)
    measured from the edge's tail as a share of its length.  Between
    pins the function interpolates linearly.  The mean of f along an
    edge does not depend on the edge's length, so one function serves
    every fiber of a family and its limit curve.
    """

    vertex_values: Mapping[str, Fraction]
    normalized_breaks: Mapping[str, tuple[tuple[Fraction, Fraction], ...]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        values = {v: Fraction(x) for v, x in self.vertex_values.items()}
        breaks = {}
        for e, pts in self.normalized_breaks.items():
            fixed = tuple((Fraction(u), Fraction(y)) for u, y in pts)
            for u, _ in fixed:
                if u <= 0 or u >= 1:
                    raise FamilyError(
                        f"normalized breakpoint {u} on edge {e!r} is outside (0, 1)"
                    )
            if any(b[0] <= a[0] for a, b in zip(fixed, fixed[1:])):
                raise InvalidTestFunction(
                    f"breakpoints on edge {e!r} must be strictly increasing"
                )
            breaks[e] = fixed
        object.__setattr__(self, "vertex_values", values)
        object.__setattr__(self, "normalized_breaks", breaks)


def integrate(mu: EdgeMeasure, f: NormalizedTestFunction) -> Fraction:
    """Exact integral of a test function against a measure.

    Each edge contributes its mass times the mean of f along the edge,
    read off the normalized breakpoints; each vertex atom contributes the
    atom times the vertex value.
    """
    m = mu.metric
    for eid in f.normalized_breaks:
        m.length(eid)  # a breakpoint off the graph raises UnknownEdge
    atoms = [v for v, atom in mu.vertex_atoms.items() if atom]
    for v in [x for _, ends in m.graph.edges for x in ends] + atoms:
        if v not in f.vertex_values:
            raise InvalidTestFunction(f"no value at vertex {v!r}")
    total = Fraction(0)
    for eid, (u, v) in m.graph.edges:
        breaks = f.normalized_breaks.get(eid, ())
        pts = [(0, f.vertex_values[u]), *breaks, (1, f.vertex_values[v])]
        twice_mean = sum((x1 - x0) * (y0 + y1) for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
        total += mu.edge_coeffs[eid] * twice_mean / 2
    return total + sum(mu.vertex_atoms[v] * f.vertex_values[v] for v in atoms)
