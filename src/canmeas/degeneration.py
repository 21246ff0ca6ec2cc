"""Degenerating families of metric graphs and their measure limits.

A length family assigns every edge a positive monomial sum in t.  As
t -> 0+ the normalized length vector should approach a point of the
stratum named by the target layering: within each layer the normalized
ratios converge to the target coordinates, and each later layer shrinks
to nothing against each earlier one.  Once the first holds, the second
asks only that the layers' dominant exponents increase strictly, and
:func:`require_convergent` refuses a family that fails either.  When
they hold, the canonical measures of the fibers converge edgewise to the
tropical canonical measure of the target curve, tree weights converge
after rescaling by per-layer totals, and integrals of fixed test
functions converge; a test function lives in normalized edge
coordinates, so it is integrated as it stands against every fiber and
against the limit.  All limits here are computed symbolically from
dominant exponents and leading coefficients; grid evaluations are exact
rational arithmetic, with floats confined to report rendering elsewhere.
Fibers are measured by the matrix route's kernel
(:class:`canmeas.measures.CycleSpace`, built once per family) and the
tropical target by the same kernel on each graded minor, so neither
enumerates trees: a fiber costs one Gram inverse, the target one per
layer.  Only the per-tree weight limits enumerate; each tree stays the
bitmask of :func:`canmeas.graphs.forest_masks`, which keys the limits
and the layered closed forms, and :func:`all_tree_limits` decodes it for
callers that want edge id sets.  A family builds its target curve, and
with it the graded minors, once: the tropical target, the tree-weight
rescaling and the layered closed forms all read that one decomposition,
and the closed form decides a tree by counting its off-tree bits per
layer against the minors' genera.  It decides convergence once as well,
and every limit taken from it, like the period model of
:mod:`canmeas.periods`, reads that one verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import FamilyError, InvalidGraph, quoted
from .families import ScaleFunction, ratio_limit, validate_grid
from .graphs import AugmentedGraph, forest_masks, is_spanning_forest, mask_bits, mask_edges
from .layerings import OrderedPartition
from .measures import (
    CycleSpace,
    MetricGraph,
    NormalizedTestFunction,
    TropicalCurve,
    check_edge_mass,
    foster_by_matrix,
    integrate,
    tropical_canonical_measure,
)

# Fractions are immutable, so every zero limit can be this one.
_ZERO = Fraction(0)

WITHIN_LAYER = "within_layer"
CROSS_LAYER = "cross_layer"


@dataclass(frozen=True)
class LengthFamily:
    """Edge lengths depending on a parameter t, with a declared limit.

    ``param_lengths`` maps each edge to a positive monomial sum; edges
    may also grow as t -> 0 (negative exponents), since every limit
    taken here depends only on length ratios.  ``target_point`` gives
    normalized limit coordinates: positive on every edge and summing to
    one within each layer of ``target_layering``.  Whether the family
    actually converges to that point is a separate question answered by
    :func:`check_convergence`, asked once per family through
    ``convergence``.
    """

    graph: AugmentedGraph
    param_lengths: Mapping[str, ScaleFunction]
    target_layering: OrderedPartition
    target_point: Mapping[str, Fraction]

    def __post_init__(self) -> None:
        edge_ids = frozenset(self.graph.edge_ids)
        # The target comes first: corpus.layered_family builds lengths
        # from the target's edges, so a partial target is the fault there.
        if self.target_layering.edge_ids != edge_ids:
            raise FamilyError("target layering must cover exactly the edges of the graph")
        target = {e: Fraction(x) for e, x in self.target_point.items()}
        if set(target) != edge_ids:
            raise FamilyError("target point must give a coordinate for every edge")
        lengths = dict(self.param_lengths)
        if set(lengths) != edge_ids:
            raise FamilyError("length family must cover exactly the edges of the graph")
        for eid, fn in lengths.items():
            if not isinstance(fn, ScaleFunction):
                raise FamilyError(f"edge {quoted(eid)} needs a scale function")
        for eid, x in target.items():
            if x <= 0:
                raise FamilyError(
                    f"target coordinate of edge {quoted(eid)} must be positive (interior point)"
                )
        for j, part in enumerate(self.target_layering.parts):
            if sum((target[e] for e in part), Fraction(0)) != 1:
                raise FamilyError(f"target coordinates of layer {j} do not sum to 1")
        object.__setattr__(self, "param_lengths", lengths)
        object.__setattr__(self, "target_point", target)

    def metric_at(self, t: Fraction) -> MetricGraph:
        return MetricGraph(
            self.graph, {e: Fraction(p, q) for e, (p, q) in self.integer_lengths_at(t).items()}
        )

    def integer_lengths_at(self, t: Fraction) -> dict[str, tuple[int, int]]:
        """Each length at t > 0 as its reduced (numerator, denominator),
        both positive: the coefficients of a scale function are positive."""
        out = {}
        for e, fn in self.param_lengths.items():
            p, q = fn.evaluate_pair(t)
            g = gcd(p, q)
            out[e] = (p // g, q // g)
        return out

    def layer_total(self, j: int) -> ScaleFunction:
        """Sum of the scale functions over layer j."""
        part = sorted(self.target_layering.parts[j])
        return ScaleFunction(terms=tuple(t for e in part for t in self.param_lengths[e].terms))

    @cached_property
    def convergence(self) -> "ConvergenceDiagnostics":
        """:func:`check_convergence` of this family, decided once."""
        return check_convergence(self)

    @cached_property
    def target_curve(self) -> TropicalCurve:
        """The limit point as a tropical curve, with its graded minors."""
        return TropicalCurve(
            graph=self.graph,
            lengths=dict(self.target_point),
            layering=self.target_layering,
        )


@dataclass(frozen=True)
class ConvergenceFailure:
    """One violated convergence condition, with the edges that broke it."""

    condition: str
    edges: tuple[str, ...]
    detail: str


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    ok: bool
    failures: tuple[ConvergenceFailure, ...]


def check_convergence(f: LengthFamily) -> ConvergenceDiagnostics:
    """Decide symbolically whether the family reaches its target.

    Two conditions, both read off dominant exponents.  Within each
    layer, each length divided by the layer total must tend to the
    declared target coordinate.  Across layers, each length in a later
    layer divided by each length in an earlier layer must tend to zero;
    once the first holds, every length of layer j has its layer total's
    dominant exponent D_j, so that reads D_0 < D_1 < ... < D_{r-1},
    checked once per pair of consecutive layers on their first edge ids.
    Every violation is reported, tagged with which condition broke: at
    most |E| + r - 1 of them.
    """
    failures: list[ConvergenceFailure] = []
    parts = f.target_layering.parts
    for j, part in enumerate(parts):
        total = f.layer_total(j)
        for e in sorted(part):
            limit, want = ratio_limit(f.param_lengths[e], total), f.target_point[e]
            if limit != want:
                detail = (
                    f"normalized length of edge {quoted(e)} in layer {j} tends to "
                    f"{_shown(limit)}, target says {_shown(want)}"
                )
                failures.append(ConvergenceFailure(WITHIN_LAYER, (e,), detail))
    if not failures:
        for j in range(1, len(parts)):
            e, e2 = min(parts[j - 1]), min(parts[j])
            if f.param_lengths[e2].dominant_exponent <= f.param_lengths[e].dominant_exponent:
                detail = (
                    f"length of edge {quoted(e2)} (layer {j}) does not vanish "
                    f"against edge {quoted(e)} (layer {j - 1})"
                )
                failures.append(ConvergenceFailure(CROSS_LAYER, (e, e2), detail))
    return ConvergenceDiagnostics(ok=not failures, failures=tuple(failures))


def _shown(x: Fraction) -> str:
    """x whole if its numerator and denominator have at most 300 bits in
    all, else by their bit lengths: str() refuses over 4,300 digits."""
    n, d = x.numerator.bit_length(), x.denominator.bit_length()
    return str(x) if n + d <= 300 else f"a ratio of {n}-bit and {d}-bit integers"


def require_convergent(f: LengthFamily) -> None:
    """Raise FamilyError with the first failure of :func:`check_convergence`, if any."""
    diag = f.convergence
    if not diag.ok:
        first = diag.failures[0]
        raise FamilyError(
            f"family does not converge to its target ({first.condition}): {first.detail}"
        )


def _weight_denominator(f: LengthFamily) -> tuple[int, Fraction]:
    """Leading term (exponent, coefficient) of the rescaling
    prod_j layer_total(j) ** h_j.

    h_j is the genus of graded minor j.  Coefficients are positive, so
    nothing cancels and the leading term of the product is the product
    of the factors' leading terms.
    """
    exponent, coeff = 0, Fraction(1)
    for j, h in enumerate(f.target_curve.minors.genus_vector):
        if h > 0:
            total = f.layer_total(j)
            exponent += h * total.dominant_exponent
            coeff *= total.leading_coefficient**h
    return exponent, coeff


def _leading_terms(f: LengthFamily) -> list[tuple[int, int, int]]:
    """(exponent, numerator, denominator) of each length's leading term,
    in edge id order, so entry i belongs to bit i of a forest mask."""
    out = []
    for e in f.graph.edge_ids:
        fn = f.param_lengths[e]
        c = fn.leading_coefficient
        out.append((fn.dominant_exponent, c.numerator, c.denominator))
    return out


def _tree_limit(
    leading: list[tuple[int, int, int]], off: int, denominator: tuple[int, Fraction]
) -> Fraction:
    # The raw weight is the product of the lengths on the off-tree bits
    # ``off``; only its leading term, the product of theirs, decides the
    # limit.
    bits = mask_bits(off)
    exponent = 0
    for i in bits:
        exponent += leading[i][0]
    low, coeff = denominator
    if exponent > low:
        return _ZERO
    if exponent < low:
        raise FamilyError("ratio diverges as t -> 0")
    num, den = coeff.denominator, coeff.numerator
    for i in bits:
        _, p, q = leading[i]
        num *= p
        den *= q
    return Fraction(num, den)


def _edge_mask(g: AugmentedGraph, ids: frozenset[str]) -> int:
    """The forest mask of a set of edge ids: bit i for the i-th edge id.
    The bits are distinct, so their sum is their union."""
    return sum(1 << i for i, e in enumerate(g.edge_ids) if e in ids)


def omega_infinity(f: LengthFamily, tree: frozenset[str]) -> Fraction:
    """Limit of the rescaled tree weight of one spanning tree.

    The tree is its edge id set, as :func:`canmeas.graphs.spanning_trees`
    lists it; a set that is not a spanning forest of the graph raises
    InvalidGraph.  The raw weight (product of lengths over edges off the
    tree) is divided by each layer total raised to the layer's graded
    genus.  The limit is zero unless the tree restricts to a spanning
    forest of every graded minor, in which case it is the product of the
    minors' tree weights at the target coordinates.  Returned exactly;
    only the leading terms of numerator and denominator enter.
    """
    require_convergent(f)
    if not is_spanning_forest(f.graph, tree):
        raise InvalidGraph("edge set is not a spanning forest of the graph")
    off = ((1 << len(f.graph.edges)) - 1) ^ _edge_mask(f.graph, tree)
    return _tree_limit(_leading_terms(f), off, _weight_denominator(f))


@dataclass(frozen=True)
class ConvergenceReport:
    """Edgewise measure trajectories along a decreasing grid.

    ``trajectories[e][i]`` is the canonical edge mass of e in the fiber
    at ``grid[i]``; ``targets[e]`` is the tropical edge mass it should
    approach.  All entries are exact rationals.
    """

    grid: tuple[Fraction, ...]
    targets: Mapping[str, Fraction]
    trajectories: Mapping[str, tuple[Fraction, ...]]
    max_deviations: tuple[Fraction, ...]
    edge_masses: tuple[Fraction, ...]
    monotone: bool

    @property
    def final_deviation(self) -> Fraction:
        return self.max_deviations[-1]


def limit_foster(f: LengthFamily, grid: Sequence[Fraction]) -> ConvergenceReport:
    """Exact canonical measures along the grid against the tropical limit.

    The limit is the tropical canonical measure of the target curve; its
    check that the graph is connected covers every fiber.  The fibers
    are measured by the matrix route's kernel,
    :class:`canmeas.measures.CycleSpace`, whose fundamental cycles and
    edge supports are built once for the family.  A grid point then does
    only its own work: the lengths as integer pairs, the integer Gram
    matrix, its inverse and the edge quadratic forms.  The deviations
    are compared and the edge masses summed in integers, so a point
    builds one Fraction per edge, one for its largest deviation and one
    for its edge mass.
    """
    require_convergent(f)
    pts = validate_grid(grid)
    target = tropical_canonical_measure(f.target_curve)
    space = CycleSpace.of(f.graph)
    coeffs = target.edge_coeffs
    goals = [(e, coeffs[e].numerator, coeffs[e].denominator) for e in space.edge_ids]
    trajectories: dict[str, list[Fraction]] = {e: [] for e in f.graph.edge_ids}
    max_devs: list[Fraction] = []
    masses: list[Fraction] = []
    for t in pts:
        lengths = f.integer_lengths_at(t)
        forms, det = space.forms(lengths)
        # The edge mass sums p_e s_e / (q_e D) over L D, L the lcm of the q_e.
        lcm_q = lcm(*[q for _, q in lengths.values()])
        total = 0
        worst, worst_den = 0, 1
        for (e, a, b), s in zip(goals, forms):
            p, q = lengths[e]
            total += lcm_q // q * p * s
            val = Fraction(p * s, q * det)
            check_edge_mass(e, val)
            trajectories[e].append(val)
            # |val - a/b| as dev / (d b), compared across edges in integers.
            n, d = val.numerator, val.denominator
            dev = abs(n * b - a * d)
            if dev * worst_den > worst * d * b:
                worst, worst_den = dev, d * b
        max_devs.append(Fraction(worst, worst_den))
        masses.append(Fraction(total, lcm_q * det))
    monotone = all(b <= a for a, b in zip(max_devs, max_devs[1:]))
    return ConvergenceReport(
        grid=pts,
        targets=dict(target.edge_coeffs),
        trajectories={e: tuple(v) for e, v in trajectories.items()},
        max_deviations=tuple(max_devs),
        edge_masses=tuple(masses),
        monotone=monotone,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Integrals of one test function along the family, with their limit."""

    grid: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    limit: Fraction
    deviations: tuple[Fraction, ...]

    @property
    def final_deviation(self) -> Fraction:
        return self.deviations[-1]


def continuity_probe(
    f: LengthFamily, fn: NormalizedTestFunction, grid: Sequence[Fraction]
) -> ProbeReport:
    """Integrate one test function against every fiber and the limit.

    The limit integral is taken against the tropical canonical measure
    of the target curve; fibers use their own canonical measures, from
    the matrix route.  All numbers are exact.
    """
    require_convergent(f)
    pts = validate_grid(grid)
    limit_value = integrate(tropical_canonical_measure(f.target_curve), fn)
    values = tuple(integrate(foster_by_matrix(f.metric_at(t)), fn) for t in pts)
    deviations = tuple(abs(v - limit_value) for v in values)
    return ProbeReport(grid=pts, values=values, limit=limit_value, deviations=deviations)


def layered_tree_weights(f: LengthFamily, masks: Iterable[int]) -> dict[int, Fraction]:
    """:func:`layered_tree_weight` of many spanning trees, keyed by mask.

    The trees are masks of spanning forests of the graph, as
    :func:`canmeas.graphs.forest_masks` lists them; they are not checked
    again.  Such a tree T is layered exactly when layer j holds h_j
    edges off T, h_j the genus of graded minor j: each tail of layers
    j..r keeps at least its own genus h_j + ... + h_r off T, and T
    leaves out h_1 + ... + h_r edges in all.  So each layer's off-tree
    edges are counted as the set bits of the off-tree mask within the
    layer's mask, and a layered tree multiplies the target coordinates
    over the off-tree bits alone.
    """
    full = (1 << len(f.graph.edges)) - 1
    genus = f.target_curve.minors.genus_vector
    layers = [(_edge_mask(f.graph, part), h) for part, h in zip(f.target_layering.parts, genus)]
    coords = [(x.numerator, x.denominator) for x in map(f.target_point.__getitem__, f.graph.edge_ids)]
    weights: dict[int, Fraction] = {}
    for mask in masks:
        off = full ^ mask
        weight = _ZERO
        for layer, h in layers:
            if (off & layer).bit_count() != h:
                break
        else:
            num = den = 1
            for i in mask_bits(off):
                p, q = coords[i]
                num *= p
                den *= q
            weight = Fraction(num, den)
        weights[mask] = weight
    return weights


def layered_tree_weight(f: LengthFamily, tree: frozenset[str]) -> Fraction:
    """Product of graded-minor tree weights at the target coordinates.

    The tree is its edge id set and must be a spanning forest of the
    graph (else InvalidGraph).  Zero when the tree is not layered, i.e.
    when some layer's slice of the tree fails to be a spanning forest of
    that layer's graded minor.  This is the closed form the limit in
    :func:`omega_infinity` must match.
    """
    if not is_spanning_forest(f.graph, tree):
        raise InvalidGraph("edge set is not a spanning forest of the graph")
    mask = _edge_mask(f.graph, tree)
    return layered_tree_weights(f, [mask])[mask]


def tree_limits(f: LengthFamily) -> dict[int, Fraction]:
    """omega_infinity over every spanning tree of the graph, keyed by the
    masks of :func:`canmeas.graphs.forest_masks`, in their canonical order.

    Convergence is checked, and the leading terms and the rescaling
    denominator read, once.  Each limit sums the exponents and
    multiplies the leading coefficients over the mask's off-tree bits
    only, h of them for genus h, in integers.
    """
    require_convergent(f)
    leading = _leading_terms(f)
    denominator = _weight_denominator(f)
    full = (1 << len(f.graph.edges)) - 1
    return {mask: _tree_limit(leading, full ^ mask, denominator) for mask in forest_masks(f.graph)}


def all_tree_limits(f: LengthFamily) -> dict[frozenset[str], Fraction]:
    """:func:`tree_limits` with each mask decoded to its edge id set, as
    :func:`canmeas.graphs.spanning_trees` lists them, in the same order."""
    limits = tree_limits(f)
    return dict(zip(map(frozenset, mask_edges(f.graph.edge_ids, limits)), limits.values()))
