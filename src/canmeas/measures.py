"""Canonical measures on metric graphs and tropical curves.

The canonical measure of a metric graph spreads mass h = |E| - |V| + 1
over the edges and puts an integer atom of size genus(v) at each vertex.
The edge density is constant on each edge; the number

    mu(e) = (weight of spanning trees avoiding e) / (total tree weight),

with tree weight equal to the product of the lengths of the edges the
tree leaves out, is that density times the edge length.  Three routes to
mu are implemented: direct tree enumeration, orthogonal projection of an
edge onto the cycle space (Zhang's definition: the squared length of the
projection, over the edge length), and the inverse of the cycle Gram
matrix.  They agree; keeping all three is the point, since they
cross-check one another and the Laplacian oracle in
:mod:`canmeas.kirchhoff` checks them all from outside.  The two
cycle-space routes run on kernels of their own: the projection route
orthogonalizes the basis by exact Gram-Schmidt, one forward elimination
whose pivot rows every edge reads its projection off, and the matrix
route inverts selectively.

:class:`CycleSpace` is the one place that assembles a Gram matrix.  It
holds a cycle basis (a graph's fundamental cycles, or any basis a
caller supplies) and each edge's support on it, and takes the lengths
as integer pairs (p, q), so a caller that measures one graph at many
lengths (the fibres of :func:`canmeas.degeneration.limit_foster`)
builds it once.  The projection and matrix routes, :func:`gram_matrices`
and the period layer targets all go through it.  Writing each length as
p/q, row i is scaled by s_i, the lcm of the q over the edges of cycle i,
its own scale and never one lcm for the whole matrix; every entry is
then an integer.  Each kernel returns integers over one denominator, so
each route builds exactly one Fraction per edge, its mass.  The matrix
route computes the inverse only between cycles that share an edge, on a
pattern found once per space.  With positive lengths a Gram matrix is
positive definite exactly when it is nonsingular, so the pivot check of
each route's one elimination does the work of Sylvester's criterion;
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
from math import gcd, lcm, prod
from typing import Collection, Mapping, Sequence

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
    forest_masks,
    graph_genus,
    is_connected,
    mask_bits,
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
            if lengths[eid].numerator <= 0:
                raise InvalidGraph(f"edge {eid!r} has nonpositive length")
        object.__setattr__(self, "lengths", lengths)

    @property
    def integer_lengths(self) -> dict[str, tuple[int, int]]:
        """Each length as its (numerator, denominator)."""
        return {e: (x.numerator, x.denominator) for e, x in self.lengths.items()}

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
    # The metric graph that checks the lengths, kept for every later use.
    metric: MetricGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        metric = MetricGraph(self.graph, self.lengths)
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "lengths", metric.lengths)
        if self.layering.edge_ids != frozenset(self.graph.edge_ids):
            raise LayeringError("layering must cover exactly the edges of the graph")
        for j, part in enumerate(self.layering.parts):
            total = sum((metric.lengths[e] for e in part), Fraction(0))
            if total != 1:
                raise LayeringError(
                    f"layer {j} has total length {total}, expected 1"
                )

    @cached_property
    def minors(self) -> GradedMinorReport:
        """The graded minors of the layering, built once per curve."""
        return graded_minors(self.graph, self.layering)


def check_edge_mass(edge_id: str, x: Fraction) -> None:
    """Raise InvalidGraph unless the edge mass x lies in [0, 1]."""
    if x.numerator < 0 or x.numerator > x.denominator:
        raise InvalidGraph(f"edge mass {x} on {edge_id!r} is outside [0, 1]")


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
            check_edge_mass(e, x)
        object.__setattr__(self, "edge_coeffs", coeffs)

    @property
    def vertex_atoms(self) -> Mapping[str, int]:
        return self.metric.graph.genus

    @cached_property
    def edge_mass(self) -> Fraction:
        return sum(self.edge_coeffs.values(), Fraction(0))

    @property
    def total_mass(self) -> Fraction:
        return self.edge_mass + sum(self.vertex_atoms.values())


def foster_by_trees(m: MetricGraph) -> EdgeMeasure:
    """Canonical measure by direct spanning tree enumeration.

    The sums run in integers.  Every length is scaled by L, the lcm of
    the length denominators; each tree weight then scales by L^h, which
    cancels from the ratio, and is an int product.  The trees come as
    the masks of :func:`canmeas.graphs.forest_masks`: a tree's weight is
    the product over its off-tree bits, h factors, and it is added to
    the weight through each edge over its tree bits.  The total weight
    and the weight of the trees through each edge stay ints, so each
    mass (total - inside) / total is the one Fraction built for its edge.
    """
    if not is_connected(m.graph):
        raise DisconnectedGraph("canonical measure requires a connected graph")
    edge_ids = m.graph.edge_ids
    scale = lcm(*[x.denominator for x in m.lengths.values()])
    scaled = [scale // x.denominator * x.numerator for x in map(m.lengths.__getitem__, edge_ids)]
    full = (1 << len(edge_ids)) - 1
    total = 0
    inside = [0] * len(edge_ids)
    for tree in forest_masks(m.graph):
        weight = 1
        for i in mask_bits(full ^ tree):
            weight *= scaled[i]
        total += weight
        for i in mask_bits(tree):
            inside[i] += weight
    coeffs = {e: Fraction(total - inside[i], total) for i, e in enumerate(edge_ids)}
    return EdgeMeasure(metric=m, edge_coeffs=coeffs)


class CycleSpace:
    """A cycle basis, each edge's support on it, and its Gram kernel.

    The one home of the integer Gram matrix: every route, fibre and
    period layer target that needs it builds a space once and evaluates
    it at integer lengths (p, q), given for at least the edges of the
    basis.  :meth:`of` takes a graph's fundamental cycles, per
    component, so the graph may be disconnected, as minors often are.
    """

    __slots__ = ("edge_ids", "cycle_edges", "support", "_fill")

    def __init__(self, edge_ids: Collection[str], basis: Sequence[CycleVector]) -> None:
        self.edge_ids = edge_ids
        self.cycle_edges = [gamma.coeffs for gamma in basis]
        # support[e] lists (i, c_i(e)) for the cycles through e, i ascending.
        self.support: dict[str, list[tuple[int, int]]] = {}
        for i, coeffs in enumerate(self.cycle_edges):
            for eid, c in coeffs.items():
                self.support.setdefault(eid, []).append((i, c))
        self._fill: list[list[int]] | None = None

    @classmethod
    def of(cls, g: AugmentedGraph) -> "CycleSpace":
        """The space of g's fundamental cycles, over all of g's edges."""
        return cls(g.edge_ids, fundamental_cycles(g))

    def gram(self, lengths: Mapping[str, tuple[int, int]]) -> tuple[list[list[int]], list[int]]:
        """The Gram matrix G as integer rows (S G, S).

        S scales row i by s_i, the lcm of the length denominators q_e
        over the edges of cycle i, so entry (i, j) is the integer sum
        over edges of p_e (s_i / q_e) c_i(e) c_j(e).  The assembly runs
        over the edge supports once, edge by edge.
        """
        scales = [lcm(*[lengths[eid][1] for eid in edges]) for edges in self.cycle_edges]
        rows = [[0] * len(scales) for _ in scales]
        for eid, coeffs in self.support.items():
            p, q = lengths[eid]
            for i, a in coeffs:
                row = rows[i]
                w = scales[i] // q * p * a
                for j, b in coeffs:
                    row[j] += w * b
        return rows, scales

    def forms(self, lengths: Mapping[str, tuple[int, int]]) -> tuple[list[int], int]:
        """The edge quadratic forms as integers (s, D) at lengths p/q.

        With the Gram inverse Y / D, Y an integer matrix, the mass of edge
        e is p_e s_e / (q_e D), for s_e = sum_{i,j} Y[i][j] c_i(e) c_j(e)
        (zero on an edge that lies on no cycle).  The s_e come in the
        order of ``edge_ids``.  Only the entries of Y between cycles that
        share an edge enter, so Y is inverted selectively
        (:func:`canmeas.linalg.selected_inverse`) on the filled pattern of
        those pairs.  The pattern comes from the supports, never from
        Gram values, which can cancel to 0 between cycles that meet; it
        is found once per space and serves every set of lengths.  Raises
        BasisError on a singular Gram matrix.
        """
        if self._fill is None:
            above: list[set[int]] = [set() for _ in self.cycle_edges]
            for c in self.support.values():
                for at, (i, _) in enumerate(c):
                    above[i].update(j for j, _ in c[at + 1 :])
            self._fill = linalg.elimination_fill(above)
        y, det = linalg.selected_inverse(*self.gram(lengths), self._fill)
        support = self.support
        forms = []
        for eid in self.edge_ids:
            c = support.get(eid, ())
            forms.append(sum(y[i][j] * a * b for i, a in c for j, b in c))
        return forms, det

    def masses(self, lengths: Mapping[str, tuple[int, int]]) -> dict[str, Fraction]:
        """The matrix route's edge masses p_e s_e / (q_e D), one Fraction
        per edge, in the order of ``edge_ids``."""
        forms, det = self.forms(lengths)
        masses = {}
        for eid, s in zip(self.edge_ids, forms):
            p, q = lengths[eid]
            masses[eid] = Fraction(p * s, q * det)
        return masses


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
    rows, scales = CycleSpace(m.graph.edge_ids, basis).gram(m.integer_lengths)
    if not linalg.is_positive_definite(rows):
        raise BasisError("cycle family is dependent; Gram matrix is not positive definite")
    return [[Fraction(x, s) for x in row] for row, s in zip(rows, scales)]


def foster_by_projection(m: MetricGraph) -> EdgeMeasure:
    """Canonical measure via orthogonal projection onto the cycle space.

    The mass of edge e is the squared length of the projection of e onto
    the cycle space, divided by the length of e.  Edge e has inner
    product length(e) c_i(e) with basis cycle i, so that squared length
    is length(e)^2 c^T G^-1 c for c = c(e), and the mass is
    length(e) c^T G^-1 c.  The forms come from exact Gram-Schmidt on
    the basis (:func:`canmeas.linalg.projection_norms`): one
    fraction-free forward elimination of the Gram matrix, from which
    each edge reads its form off its support, with no solve and no
    back-substitution.
    """
    if not is_connected(m.graph):
        raise DisconnectedGraph("canonical measure requires a connected graph")
    space = CycleSpace.of(m.graph)
    lengths = m.integer_lengths
    support = space.support
    on_cycles = [eid for eid in m.graph.edge_ids if eid in support]
    norms, det = linalg.projection_norms(
        *space.gram(lengths), [support[eid] for eid in on_cycles]
    )
    coeffs = dict.fromkeys(m.graph.edge_ids, Fraction(0))
    for eid, s in zip(on_cycles, norms):
        p, q = lengths[eid]
        coeffs[eid] = Fraction(p * s, q * det)
    return EdgeMeasure(metric=m, edge_coeffs=coeffs)


def foster_by_matrix(m: MetricGraph) -> EdgeMeasure:
    """Canonical measure from the inverse of the cycle Gram matrix.

    mu(e) = length(e) * sum_{i,j} inv(G)[i][j] * c_i(e) * c_j(e), with
    c_i(e) the coefficient of e in the i-th basis cycle.  The entries of
    the inverse between cycles that share an edge, the only ones read,
    are computed by fraction-free selected inversion in the
    :class:`CycleSpace` kernel, the same one that measures the fibres of
    a family; a singular matrix (dependent basis) raises BasisError.
    """
    if not is_connected(m.graph):
        raise DisconnectedGraph("canonical measure requires a connected graph")
    coeffs = CycleSpace.of(m.graph).masses(m.integer_lengths)
    return EdgeMeasure(metric=m, edge_coeffs=coeffs)


def mass_digits(g: AugmentedGraph, lengths: Mapping[str, tuple[int, int]]) -> int:
    """An upper bound on the decimal digits, numerator and denominator
    together, of every edge mass of g at the integer ``lengths`` (p, q),
    read off bit lengths before any elimination.

    With each length written p_e/q_e, multiply both tree sums of a mass
    by the product of the q_e: the mass is then N/K with integers N, K of
    at most H = tau(G) * prod_e max(p_e, q_e).  A spanning tree picks, at
    every vertex but a root, the edge towards the root, so tau(G) is at
    most the product of the non-loop degrees over all vertices but one
    of largest degree.  Masses do not change when every length is
    divided by their rational gcd, which leaves integers; each tree
    weight is then a product of h = graph_genus lengths (those off the
    tree), so H is also taken as tau(G) times the h largest of them, and
    the smaller bound kept.
    """
    degree = dict.fromkeys(g.vertices, 0)
    for _, (u, v) in g.edges:
        if u != v:
            degree[u] += 1
            degree[v] += 1
    degrees = [max(d, 1) for d in degree.values()]
    trees = prod(degrees) // max(degrees)
    pairs = [lengths[e] for e in g.edge_ids]
    # Arguments from lists, not generators: see graphs.AugmentedGraph.edge_ids.
    G = gcd(*[p for p, _ in pairs])
    L = lcm(*[q for _, q in pairs])
    direct = sum(max(p, q).bit_length() for p, q in pairs)
    scaled = sorted([(p // G * (L // q)).bit_length() for p, q in pairs], reverse=True)
    # A part has at most as many digits as 2^bits - 1, and
    # log10(2) < 0.30103.
    bits = trees.bit_length() + min(direct, sum(scaled[: graph_genus(g)]))
    return 2 * (bits * 30103 // 100000 + 1)


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
    lengths = t.metric.integer_lengths
    coeffs: dict[str, Fraction] = {}
    for minor in t.minors.minors:
        coeffs.update(CycleSpace.of(minor).masses(lengths))
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
