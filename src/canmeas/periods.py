"""Model period matrices for degenerating families and their inverses.

The imaginary part of a degenerating period matrix is modeled as a fixed
symmetric base plus, for every edge, the edge's length times a padded
rank-one integer matrix built from a cycle basis.  When the basis is
admissible for a layering and the lengths scale layerwise, each layer's
scale vanishing against the previous one's (:func:`layered_period_family`
requires the family to converge), the model is a graded block matrix:
block (k, l) is the slower of the two layer scales times a fixed limit
block.  The inverse then has the transposed grading, and the rescaled
diagonal blocks converge to the inverses of exactly computable layer
matrices; the trailing block converges to the inverse of the base's pad
block.

This module is the package's one floating point lane.  Both
verifications, :func:`verify_inverse_lemma` on a synthetic graded matrix
and :func:`graded_inverse_limits` on a model family, run one sampling
routine over a decreasing grid.  It builds every point's matrix in grid
order, so the first point that fails raises its own error, then inverts
the whole stack in binary64 at once, rescales, and compares against
targets that are computed exactly first and rounded once.  So are the
scales and lengths, with no bound here: the command line budgets their
digits.  Stacked numpy calls run the same LAPACK routine on each matrix
as one call per point, so the samples are the same bit for bit; the
Frobenius norms stay 2-D calls, since a norm over axes sums in another
order.  A model family builds each edge's outer product once, in
integers: the samples and the command line's monodromy section read the
same matrices, and numpy converts those small integers to binary64
exactly.  Layer target k inverts the Gram matrix of the block-k cycles
on layer k, assembled by :class:`canmeas.measures.CycleSpace`, with the
measure kernel's selected inverse on the full pattern.  A recursive
Schur-complement inverter provides an independent oracle for every
direct inversion, and grid points whose condition number estimate
exceeds 1e12 are flagged.

numpy is imported inside each function that calls it, not at module
level.  The command line loads this module on every run, and numpy
would take more than half of its start-up time, so only the commands
that sample period matrices (``periods`` and the period section of
``selftest``) load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import linalg
from .degeneration import LengthFamily, require_convergent
from .errors import BasisError, FamilyError, NotPositiveDefinite, quoted
from .families import ScaleFunction, geometric_grid, validate_grid
from .graphs import AugmentedGraph, CycleVector, graph_genus
from .layerings import AdmissibleBasis, admissible_cycle_basis
from .measures import CycleSpace, MetricGraph, gram_matrices

if TYPE_CHECKING:
    import numpy as np

CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class MonodromySet:
    """Integer cycle data of a basis, edge by edge.

    ``edge_rows[e]`` lists the coefficient of edge e in each basis
    cycle.  The matrix of an edge is the outer product of its row with
    itself; in the model period matrix it fills the top-left rank block,
    and the ``pad`` trailing rows and columns belong to the vertex
    directions.  ``unit_gram`` is the Gram matrix of the basis with every
    edge of length one, as checked positive definite on construction.
    """

    basis: tuple[CycleVector, ...]
    block_sizes: tuple[int, ...]
    pad: int
    edge_rows: Mapping[str, tuple[int, ...]]
    unit_gram: linalg.Matrix

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def total_size(self) -> int:
        return self.rank + self.pad


def monodromy_from_basis(g: AugmentedGraph, basis: AdmissibleBasis) -> MonodromySet:
    """Extract per-edge integer matrices from an admissible cycle basis.

    The monodromy keeps the basis's blocks; the one-block basis of the
    trivial partition gives a single block.  The basis must have one
    cycle per independent cycle of the graph and be independent;
    independence is checked exactly through the unit-length Gram matrix.
    The pad is the total vertex genus.
    """
    flat = basis.flat
    h = graph_genus(g)
    if len(flat) != h:
        raise BasisError(f"expected {h} basis cycles, got {len(flat)}")
    unit_gram: linalg.Matrix = []
    if h:
        unit = MetricGraph(g, {e: Fraction(1) for e in g.edge_ids})
        unit_gram = gram_matrices(unit, flat)
    rows = {
        eid: tuple(gamma[eid] for gamma in flat) for eid in g.edge_ids
    }
    pad = sum(g.genus.values())
    return MonodromySet(
        basis=flat, block_sizes=basis.block_sizes, pad=pad, edge_rows=rows, unit_gram=unit_gram
    )


def _positive_definite(m: np.ndarray) -> bool:
    import numpy as np

    # A Cholesky factorization exists exactly for positive definite
    # matrices.  It succeeds on diagonals spread over many decades, where a
    # smallest-eigenvalue test drowns in rounding error.
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _pad_block_layout(g: AugmentedGraph, offset: int) -> list[tuple[str, int, int]]:
    # (vertex, start, stop) for each positive-genus vertex, sorted by id.
    padded = [v for v in g.vertices if g.genus[v] > 0]
    blocks = _block_offsets([g.genus[v] for v in padded])
    return [(v, offset + a, offset + b) for v, (a, b) in zip(padded, blocks)]


@dataclass(frozen=True, eq=False)
class ModelPeriodFamily:
    """A base matrix plus length-weighted padded cycle matrices.

    The base must be symmetric, with its pad region block diagonal
    along the positive-genus vertices (in sorted vertex order), each
    vertex block positive definite, and the pad block's condition number
    at most ``CONDITION_LIMIT`` and its inverse finite in binary64, since
    that inverse is the trailing target, ``pad_target`` (None without a
    pad).  The top-left rank block and the cross terms between rank and
    pad regions are unconstrained.
    """

    monodromy: MonodromySet
    lengths: LengthFamily
    base_im: np.ndarray
    pad_target: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        import numpy as np

        base = np.array(self.base_im, dtype=float)
        n = self.monodromy.total_size
        if n == 0:
            raise FamilyError("the graph has total genus 0, so its model period matrix is empty")
        if base.shape != (n, n):
            raise FamilyError(f"base matrix must be {n}x{n}, got {base.shape}")
        if not np.array_equal(base, base.T):
            raise FamilyError("base matrix must be symmetric")
        g = self.lengths.graph
        if self.monodromy.pad != sum(g.genus.values()):
            raise FamilyError("pad must equal the total vertex genus of the graph")
        layout = _pad_block_layout(g, self.monodromy.rank)
        for i, (_, s1, e1) in enumerate(layout):
            for _, s2, e2 in layout[i + 1 :]:
                if np.any(base[s1:e1, s2:e2] != 0):
                    raise FamilyError(
                        "base matrix couples distinct vertex blocks in the pad region"
                    )
        if self.monodromy.pad:
            h = self.monodromy.rank
            pad_block = base[h:, h:]
            if not _positive_definite(pad_block):
                raise NotPositiveDefinite("pad block of the base matrix must be positive definite")
            condition = np.linalg.cond(pad_block)
            if condition > CONDITION_LIMIT:
                raise FamilyError(
                    f"pad block of the base matrix is numerically singular: condition "
                    f"number {condition:.3g} exceeds {CONDITION_LIMIT:.0e}"
                )
            pad_target = np.linalg.inv(pad_block)
            if not np.all(np.isfinite(pad_target)):
                raise FamilyError("the inverse of the base matrix's pad block overflows binary64")
            object.__setattr__(self, "pad_target", pad_target)
        object.__setattr__(self, "base_im", base)

    @cached_property
    def edge_terms(self) -> dict[str, tuple[ScaleFunction, np.ndarray]]:
        """Each edge's length and the integer outer product of its
        monodromy row, keyed by edge in sorted order, built once."""
        import numpy as np

        terms = {}
        for eid, fn in sorted(self.lengths.param_lengths.items()):
            row = np.array(self.monodromy.edge_rows[eid], dtype=int)
            terms[eid] = (fn, np.outer(row, row))
        return terms


def assemble_base(
    monodromy: MonodromySet,
    g: AugmentedGraph,
    vertex_blocks: Mapping[str, Sequence[Sequence[float]]] | None = None,
    rank_block: Sequence[Sequence[float]] | None = None,
    cross: Sequence[Sequence[float]] | None = None,
) -> np.ndarray:
    """Build a base matrix from its constituent blocks.

    ``vertex_blocks`` maps each positive-genus vertex to a symmetric
    positive definite genus-by-genus matrix; by default every such
    vertex gets the identity.  ``rank_block`` (default zero) fills the
    top-left; ``cross`` (default zero) fills the rank rows of the pad
    columns.  A block for any other vertex raises FamilyError, so
    without vertex genus ``vertex_blocks`` must be empty.
    """
    import numpy as np

    n = monodromy.total_size
    h = monodromy.rank
    base = np.zeros((n, n))
    if rank_block is not None:
        block = np.array(rank_block, dtype=float)
        if block.shape != (h, h):
            raise FamilyError(f"rank block must be {h}x{h}")
        base[:h, :h] = block
    layout = _pad_block_layout(g, h)
    if vertex_blocks is None:
        vertex_blocks = {v: np.eye(stop - start) for v, start, stop in layout}
    unknown = sorted(set(vertex_blocks) - {v for v, _, _ in layout})
    if unknown:
        raise FamilyError(f"base block given for {quoted(unknown[0])}, not a vertex of positive genus")
    for v, start, stop in layout:
        try:
            vb = np.array(vertex_blocks[v], dtype=float)
        except KeyError:
            raise FamilyError(f"vertex {quoted(v)} has positive genus but no base block") from None
        if vb.shape != (stop - start, stop - start):
            raise FamilyError(f"base block of vertex {quoted(v)} has the wrong shape")
        base[start:stop, start:stop] = vb
    if cross is not None:
        cb = np.array(cross, dtype=float)
        if cb.shape != (h, n - h):
            raise FamilyError(f"cross block must be {h}x{n - h}")
        base[:h, h:] = cb
        base[h:, :h] = cb.T
    return base


def layered_period_family(lengths: LengthFamily, **blocks) -> ModelPeriodFamily:
    """The model period family of a layered length family on the admissible
    basis of its target's graded minors, with the base :func:`assemble_base`
    builds from ``blocks``.  A family that does not converge to its target
    is refused first; at scales t^-a_j, converging needs a_0 > ... > a_{r-1}.
    The basis and its monodromy cannot fail then, so only the blocks and
    the base are refused."""
    require_convergent(lengths)
    g = lengths.graph
    monodromy = monodromy_from_basis(g, admissible_cycle_basis(lengths.target_curve.minors))
    base = assemble_base(monodromy, g, **blocks)
    return ModelPeriodFamily(monodromy=monodromy, lengths=lengths, base_im=base)


def _binary64_value(fn: ScaleFunction, t: Fraction) -> float:
    """fn(t) rounded to binary64: the ints of :meth:`ScaleFunction.evaluate_pair`
    divided, which rounds correctly, as float() of their Fraction does, and
    raises OverflowError beyond binary64.  Their digits are not bounded here."""
    num, den = fn.evaluate_pair(t)
    return num / den


def model_period(f: ModelPeriodFamily, t: Fraction) -> np.ndarray:
    """Imaginary part of the model period matrix at parameter t.

    Lengths are evaluated exactly and rounded once; the edge terms
    (``f.edge_terms``) are summed in sorted edge order, so the floats do
    not depend on how the family was built.  Raises NotPositiveDefinite,
    naming t, if the result fails to be positive definite.
    """
    out = f.base_im.copy()
    top = out[: f.monodromy.rank, : f.monodromy.rank]
    for fn, outer in f.edge_terms.values():
        top += _binary64_value(fn, t) * outer
    if not _positive_definite(out):
        raise NotPositiveDefinite(f"model period matrix is not positive definite at t = {t}")
    return out


def schur_block_inverse(m: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Invert a block matrix by a Schur recursion that calls itself once.

    Peels the first block: with M = [[P11, P12], [P21, P22]], the trailing
    inverse inv(P22) from the one recursive call, S = P11 - P12 inv(P22) P21
    and B = -inv(P22) P21 inv(S),

        inv(M) = [[inv(S),  -inv(S) P12 inv(P22)],
                  [B,       inv(P22) - B P12 inv(P22)]]

    the last block by Woodbury.  No step inverts M as a whole, so this is
    an independent path to the inverse, used as an oracle against direct
    inversion; M need not be symmetric.  Empty blocks are dropped first,
    so the recursion runs once per nonempty block.  M may be a stack of
    matrices along leading axes, each inverted as it would be alone.
    """
    import numpy as np

    sizes = [s for s in sizes if s]
    if sum(sizes) != m.shape[-1]:
        raise FamilyError("block sizes do not sum to the matrix size")
    if len(sizes) <= 1:
        return np.linalg.inv(m)
    n1 = sizes[0]
    p11 = m[..., :n1, :n1]
    p12 = m[..., :n1, n1:]
    p21 = m[..., n1:, :n1]
    inv22 = schur_block_inverse(m[..., n1:, n1:], sizes[1:])
    inv_s = np.linalg.inv(p11 - p12 @ inv22 @ p21)
    lower = -inv22 @ p21 @ inv_s
    p12_inv22 = p12 @ inv22
    return np.block([[inv_s, -inv_s @ p12_inv22], [lower, inv22 - lower @ p12_inv22]])


@dataclass(frozen=True)
class NoiseSpec:
    """Entrywise decaying perturbation amplitude * t^exponent.

    The perturbation direction is a fixed matrix per block with entries
    drawn once, uniformly from [-1, 1], from the given seed.
    """

    amplitude: float = 1e-4
    exponent: float = 1.0
    seed: int = 0


@dataclass(frozen=True, eq=False)
class BlockScaleProfile:
    """Scales and limit blocks of a graded block matrix.

    Block (k, l) of the matrix is y_max(k,l) times ``limits[k][l]`` (up
    to perturbation), where the scales y_k are scale functions whose
    consecutive ratios vanish as t -> 0, i.e. strictly increasing
    dominant exponents.  Diagonal limit blocks must be invertible.
    """

    block_sizes: tuple[int, ...]
    scales: tuple[ScaleFunction, ...]
    limits: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        import numpy as np

        object.__setattr__(self, "block_sizes", tuple(int(s) for s in self.block_sizes))
        object.__setattr__(self, "scales", tuple(self.scales))
        r = len(self.block_sizes)
        if len(self.scales) != r or len(self.limits) != r:
            raise FamilyError("profile needs one scale and one limit row per block")
        exps = [s.dominant_exponent for s in self.scales]
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise FamilyError("consecutive scale ratios must vanish as t -> 0")
        limits = []
        for k in range(r):
            if len(self.limits[k]) != r:
                raise FamilyError("limit grid must be square")
            row = []
            for l in range(r):
                block = np.array(self.limits[k][l], dtype=float)
                if block.shape != (self.block_sizes[k], self.block_sizes[l]):
                    raise FamilyError(f"limit block ({k}, {l}) has the wrong shape")
                row.append(block)
            limits.append(tuple(row))
        for k in range(r):
            if self.block_sizes[k] and np.linalg.cond(limits[k][k]) > CONDITION_LIMIT:
                raise FamilyError(f"diagonal limit block {k} is numerically singular")
        object.__setattr__(self, "limits", tuple(limits))

    @property
    def total_size(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class BlockSample:
    """Measurements at one grid point of a block-inverse verification."""

    t: Fraction
    diag_deviations: tuple[float, ...]
    offdiag_norms: Mapping[tuple[int, int], float]
    oracle_gap: float
    condition: float
    flagged: bool


@dataclass(frozen=True, eq=False)
class InverseLemmaReport:
    """Grid verification that rescaled inverse blocks reach their limits.

    ``diag_deviations[i][k]`` is the Frobenius distance, at grid point
    i, between the rescaled (k, k) block of the inverse and the inverse
    of the limit block.  Off-diagonal blocks are only rescaled and
    measured, never assigned a limit.
    """

    grid: tuple[Fraction, ...]
    samples: tuple[BlockSample, ...]
    targets: tuple[np.ndarray, ...]

    @property
    def final_diag_deviations(self) -> tuple[float, ...]:
        return self.samples[-1].diag_deviations

    @property
    def max_oracle_gap(self) -> float:
        return max(s.oracle_gap for s in self.samples)


def _block_offsets(sizes: Sequence[int]) -> list[tuple[int, int]]:
    # (start, stop) of each diagonal block.
    out = []
    pos = 0
    for s in sizes:
        out.append((pos, pos + s))
        pos += s
    return out


def _block_samples(
    pts: Sequence[Fraction],
    sizes: Sequence[int],
    targets: Sequence[np.ndarray],
    point: Callable[[Fraction], tuple[np.ndarray, list[float]]],
) -> tuple[BlockSample, ...]:
    """Measure a graded block matrix at every grid point.

    ``point(t)`` gives the matrix at t and the scale y_k of each block.
    Every point's matrix is built first, in grid order, so the first
    point that fails raises its own error; a point whose matrix or
    scales overflow binary64 raises FamilyError.  The stack of matrices
    then gets one condition estimate, one direct inversion and one
    Schur recursion, each as exact per matrix as one call per point.
    Block (k, l) of each inverse is rescaled by y_min(k,l), diagonal
    block k is compared against ``targets[k]`` and off-diagonal norms
    are recorded, each a 2-D Frobenius norm.  Points with condition
    estimate beyond 1e12 are flagged.
    """
    import numpy as np

    offsets = _block_offsets(sizes)
    matrices, point_scales = [], []
    for t in pts:
        try:
            m, y = point(t)
        except OverflowError:
            raise FamilyError(f"grid point t = {t} overflows binary64") from None
        matrices.append(m)
        point_scales.append(y)
    stack = np.array(matrices)
    conditions = np.linalg.cond(stack)
    inverses = np.linalg.inv(stack)
    gaps = np.zeros(len(pts))
    if stack[0].size:
        gaps = np.max(np.abs(inverses - schur_block_inverse(stack, sizes)), axis=(1, 2))
    # Rescaling is elementwise, so one product per block over the stack
    # gives each point's entries exactly; the norms then run point by point.
    ys = np.array(point_scales).reshape(len(pts), len(sizes), 1, 1)
    diag_devs: list[list[float]] = [[] for _ in pts]
    off_norms: list[dict[tuple[int, int], float]] = [{} for _ in pts]
    for k, (a, b) in enumerate(offsets):
        for l, (c, d) in enumerate(offsets):
            blocks = ys[:, min(k, l)] * inverses[:, a:b, c:d]
            if l == k:
                for devs, block in zip(diag_devs, blocks - targets[k]):
                    devs.append(float(np.linalg.norm(block)))
            else:
                for norms, block in zip(off_norms, blocks):
                    norms[(k, l)] = float(np.linalg.norm(block))
    return tuple(
        BlockSample(
            t=t,
            diag_deviations=tuple(devs),
            offdiag_norms=norms,
            oracle_gap=float(gap),
            condition=float(condition),
            flagged=float(condition) > CONDITION_LIMIT,
        )
        for t, devs, norms, gap, condition in zip(pts, diag_devs, off_norms, gaps, conditions)
    )


def verify_inverse_lemma(
    profile: BlockScaleProfile,
    noise: NoiseSpec | None = None,
    grid: Sequence[Fraction] | None = None,
) -> InverseLemmaReport:
    """Sample a graded matrix family and check its inverse's grading.

    At each grid point the matrix with blocks y_max(k,l) * (limit + o(1))
    is inverted directly; block (k, l) of the inverse is rescaled by
    y_min(k,l).  Diagonal blocks are compared against the inverses of
    the diagonal limits; off-diagonal norms are recorded.  Every
    inversion is cross-checked against the Schur recursion oracle, and
    points with condition estimate beyond 1e12 are flagged.
    """
    import numpy as np

    if noise is None:
        noise = NoiseSpec()
    pts = geometric_grid(1, 4) if grid is None else validate_grid(grid)
    r = len(profile.block_sizes)
    rng = np.random.default_rng(noise.seed)
    directions = [
        [rng.uniform(-1.0, 1.0, size=(profile.block_sizes[k], profile.block_sizes[l])) for l in range(r)]
        for k in range(r)
    ]
    targets = tuple(
        np.linalg.inv(profile.limits[k][k]) if profile.block_sizes[k] else np.zeros((0, 0))
        for k in range(r)
    )
    offsets = _block_offsets(profile.block_sizes)

    def point(t: Fraction) -> tuple[np.ndarray, list[float]]:
        y = [_binary64_value(s, t) for s in profile.scales]
        eps = noise.amplitude * float(t) ** noise.exponent
        m = np.zeros((profile.total_size, profile.total_size))
        for k in range(r):
            for l in range(r):
                scale = y[max(k, l)]
                block = profile.limits[k][l] + eps * directions[k][l]
                m[offsets[k][0] : offsets[k][1], offsets[l][0] : offsets[l][1]] = scale * block
        return m, y

    samples = _block_samples(pts, profile.block_sizes, targets, point)
    return InverseLemmaReport(grid=pts, samples=samples, targets=targets)


@dataclass(frozen=True, eq=False)
class GradedLimitReport:
    """Verification that a model family's inverse follows its layering.

    The layer targets are the inverses of the exact layer Gram matrices
    (computed in integers and rounded once); the pad target
    is the inverse of the base's pad block.  The pad deviation sits in
    the last entry of each sample's diagonal deviations when a pad is
    present.
    """

    grid: tuple[Fraction, ...]
    block_sizes: tuple[int, ...]
    samples: tuple[BlockSample, ...]
    layer_targets_exact: tuple[tuple[tuple[Fraction, ...], ...], ...]
    pad_target: np.ndarray | None

    @property
    def final_deviations(self) -> tuple[float, ...]:
        return self.samples[-1].diag_deviations


def graded_inverse_limits(
    f: ModelPeriodFamily, grid: Sequence[Fraction] | None = None
) -> GradedLimitReport:
    """Check the layerwise limits of the inverse model period matrix.

    Requires the family's lengths to factor as (layer total) * (target
    coordinate) on every edge, and the monodromy blocks to match the
    layering.  Diagonal block k of the inverse, rescaled by the layer-k
    total, must approach the inverse of the Gram matrix, at the target
    coordinates, of the monodromy's own block-k cycles restricted to
    layer k (a singular one raises BasisError); the pad block,
    unrescaled, must approach the inverse of the base pad block.
    """
    import numpy as np

    layering = f.lengths.target_layering
    r = len(layering.parts)
    if len(f.monodromy.block_sizes) != r:
        raise FamilyError(
            "monodromy must carry one block per layer (use an admissible basis)"
        )
    scales = [f.lengths.layer_total(j) for j in range(r)]
    for j, part in enumerate(layering.parts):
        for e in sorted(part):
            if f.lengths.param_lengths[e] != scales[j].scaled(f.lengths.target_point[e]):
                raise FamilyError(
                    f"length of edge {quoted(e)} does not factor as layer scale times target coordinate"
                )
    pts = geometric_grid(1, 6) if grid is None else validate_grid(grid)
    lengths = f.lengths.target_curve.metric.integer_lengths
    exact_targets = []
    float_targets = []
    for part, (start, stop) in zip(layering.parts, _block_offsets(f.monodromy.block_sizes)):
        # Block k's cycles on layer k alone, a cycle basis of minor k.
        block = [CycleVector({e: c[e] for e in part}) for c in f.monodromy.basis[start:stop]]
        n = len(block)
        full = [list(range(i + 1, n)) for i in range(n)]
        w, det = linalg.selected_inverse(*CycleSpace(part, block).gram(lengths), full)
        inv = tuple(tuple(Fraction(w[i][j], det) for j in range(n)) for i in range(n))
        exact_targets.append(inv)
        # A genus-0 layer keeps its 0x0 shape.
        float_targets.append(np.array(inv, dtype=float).reshape(len(inv), len(inv)))
    pad_target = f.pad_target
    has_pad = pad_target is not None
    sizes = f.monodromy.block_sizes + ((f.monodromy.pad,) if has_pad else ())
    targets = float_targets + ([pad_target] if has_pad else [])

    def point(t: Fraction) -> tuple[np.ndarray, list[float]]:
        y = [_binary64_value(s, t) for s in scales]
        return model_period(f, t), y + ([1.0] if has_pad else [])

    samples = _block_samples(pts, sizes, targets, point)
    return GradedLimitReport(
        grid=pts,
        block_sizes=sizes,
        samples=samples,
        layer_targets_exact=tuple(exact_targets),
        pad_target=pad_target,
    )
