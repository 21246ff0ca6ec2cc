"""Command line front end.

Exit codes: 0 all requested checks passed, 2 malformed document or flag,
3 violated precondition (disconnected graph, missing section, family
that does not converge, out of memory, ...), 4 an assertion computed
fine but failed.
Reports go to stdout as canonical JSON (or a plain table with --table)
and are byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction
from random import Random
from typing import Any

from . import corpus, gallery
from .degeneration import (
    LengthFamily,
    layered_tree_weights,
    limit_foster,
    tree_limits,
)
from .documents import (
    DocumentError,
    TreeLimitRows,
    dump_report,
    exact_field,
    float_field,
    load_base_matrix,
    load_document,
    measure_section,
    render_table,
)
from .errors import CanmeasError, FamilyError, excerpt, quoted
from .families import RATIONAL_DIGITS, geometric_grid, oversized_rational, validate_grid
from .graphs import (
    connected_components,
    forest_masks,
    graph_genus,
    is_stable,
    mask_edges,
    total_genus,
)
from .kirchhoff import effective_resistance, tree_count
from .layerings import GradedMinorReport, admissible_cycle_basis, graded_minors
from .measures import (
    EdgeMeasure,
    MetricGraph,
    TropicalCurve,
    foster_by_matrix,
    foster_by_projection,
    foster_by_trees,
    mass_digits,
    tropical_canonical_measure,
)
from .periods import NoiseSpec, graded_inverse_limits, layered_period_family, verify_inverse_lemma

_FORMULATIONS = {
    "trees": foster_by_trees,
    "projection": foster_by_projection,
    "matrix": foster_by_matrix,
}

# The most spanning trees a command enumerates.  The 4x4 grid (100,352)
# and K8 (262,144) are below it; the 4x5 grid (4,140,081) and K9
# (4,782,969) are above it, and listing theirs exhausts 2 GiB of memory.
TREE_BUDGET = 1_000_000


# `periods` inverts matrices whose side is the total genus, runs a Schur oracle
# that inverts once per nonempty block, and prints an h x h matrix per edge
# for graph genus h.  On one BLAS thread, side 100 took 1.1 to 1.5 s with
# its 100 loops in one layer, in 30 layers or in 100 one-loop layers (at
# scales t^-100..t^-1 on 1e-1..1e-2), and 150 loops at a vertex took 3.7 s.
# The number of layers needs no budget: 31 one-loop layers at the default
# scales overflow binary64, which exits 3.
PERIOD_SIDE_BUDGET = 100


# The most decimal digits, numerator and denominator together, that
# `limit` and `periods` let an exact edge length take at a grid point,
# and that `measure`, `minors` and `limit` let the bound of
# `measures.mass_digits` reach.
# `limit` measures the fibres exactly, and the cost grows faster than the
# square of the digits: theta.json with e2 and e3 at 1/2*t^k on the
# default grid (lengths of about 6k digits at t = 1e-6) took 0.45 s at
# k = 3,000, 3.5 s at 10,000 and 29 s at 30,000.  At the budget, k = 1,666
# took 0.25 s, and tests/fixtures/layered_grid.json with every exponent
# times 275 (9,900 digits) 0.75 s.  `periods` rounds lengths to binary64,
# but exactly first: near t = 1, millions of digits make a finite double.
# Structured lengths like these are cheap; random ones are not: K6 with
# 7 of its edges at 1/7*t^5, at grid points of two 990-digit parts
# (lengths near the budget), took 2.0 s even with selected inversion.  So
# `limit` also refuses a grid point whose fibre masses
# `measures.mass_digits` bounds over the budget, which theta.json at
# k = 1,666 now is (13,332 digits).
LENGTH_DIGITS_BUDGET = 10_000


def _require_length_budget(family: LengthFamily, grid: tuple[Fraction, ...]) -> list[int]:
    """Refuse an exact edge length of more than LENGTH_DIGITS_BUDGET digits
    at a grid point, naming the first in grid then edge order.

    The digits are bounded from logarithms by
    :meth:`ScaleFunction.pair_digits`, before any power is taken, so the
    message gives that upper bound.  An exponent beyond binary64 is over
    any budget.  Returns, per grid point, the sum of those bounds over
    the edges.
    """
    lengths = sorted(family.param_lengths.items())
    totals = []
    for t in grid:
        total = 0
        at = f"at t = {excerpt(str(t))}"
        for e, fn in lengths:
            try:
                digits = fn.pair_digits(t)
            except OverflowError:
                digits = None
            _require_digits(digits, f"the length of edge {quoted(e)} {at} needs")
            total += digits
        totals.append(total)
    return totals


def _require_fibre_digits(
    family: LengthFamily, grid: tuple[Fraction, ...], totals: list[int]
) -> None:
    """Refuse a grid point whose fibre masses :func:`measures.mass_digits`
    bounds over LENGTH_DIGITS_BUDGET, naming the first.

    ``totals`` are the length digits per point from
    :func:`_require_length_budget`.  A length whose pair has d digits adds
    less than d / log10(2) + 1 bits to the bound's product, so the bound
    exceeds its value at unit lengths by less than twice the total plus
    one digit per edge, and two for rounding.  Only points where that
    screen passes the budget have their exact lengths taken.  The screen
    stays because the exact bound must first evaluate every length at
    every grid point, which on theta.json's default grid takes longer
    than this screen and the length budget together.
    """
    g = family.graph
    screen = mass_digits(g, dict.fromkeys(g.edge_ids, (1, 1))) + len(g.edges) + 2
    for t, total in zip(grid, totals):
        if screen + 2 * total > LENGTH_DIGITS_BUDGET:
            digits = mass_digits(g, family.integer_lengths_at(t))
            _require_digits(digits, f"masses at t = {excerpt(str(t))} may need")


def _require_minor_digits(curve: TropicalCurve) -> None:
    """Refuse a tropical measure whose masses :func:`measures.mass_digits`
    bounds over LENGTH_DIGITS_BUDGET on some graded minor, naming the
    first: the measure is each minor's canonical measure at its layer's
    lengths."""
    lengths = curve.metric.integer_lengths
    for j, minor in enumerate(curve.minors.minors):
        _require_digits(mass_digits(minor, lengths), f"masses of graded minor {j} may need")


def _require_digits(digits: int | None, what: str) -> None:
    """Refuse an exact value bounded by more than LENGTH_DIGITS_BUDGET
    digits, numerator and denominator together; None is a bound beyond
    binary64.  The message is ``what``, the bound and the budget."""
    if digits is None or digits > LENGTH_DIGITS_BUDGET:
        count = "more than 10^308" if digits is None else f"up to {digits}"
        raise CanmeasError(f"{what} {count} digits, over the budget of {LENGTH_DIGITS_BUDGET}")


def _require_budget(
    count: int, holder: str = "the graph", what: str = "spanning trees", budget: int = TREE_BUDGET
) -> None:
    """Refuse, from the exact count and before the work, more than
    ``budget`` of ``what``: by default, to list more than TREE_BUDGET trees.
    A count of 101 digits or more is shown as a power of ten below it, from
    its bit length and log10(2) > 0.30102: str() refuses over 4,300 digits."""
    if count > budget:
        shown: int | str = count
        if count >= 10**100:
            shown = f"more than 10^{(count.bit_length() - 1) * 30102 // 100000}"
        raise CanmeasError(f"{holder} has {shown} {what}, over the budget of {budget}")


def _oversized_point(token: str) -> DocumentError:
    return DocumentError(f"bad --grid: point {excerpt(token)} has more than {RATIONAL_DIGITS} digits")


def _decade(digits: str) -> int:
    """The N of a point 1e-N, or RATIONAL_DIGITS when N has more digits
    than that bound, before int() meets a string too long to convert."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(RATIONAL_DIGITS)) else RATIONAL_DIGITS


def _parse_grid(text: str | None, default: tuple[int, int]) -> tuple[Fraction, ...]:
    """The grid of --grid, refusing before any point is built one whose
    numerator or denominator has more than RATIONAL_DIGITS digits, the
    bound of every exact input: reports print every point in full."""
    if text is None:
        return geometric_grid(*default)
    decades = re.fullmatch(r"1e-(\d+)\s*\.\.\s*1e-(\d+)", text.strip())
    try:
        if decades:
            first, last = decades.groups()
            # 1e-N has N + 1 digits in its denominator.
            if _decade(last) >= RATIONAL_DIGITS:
                raise _oversized_point(f"1e-{last}")
            return geometric_grid(_decade(first), _decade(last))
        points = []
        for token in text.split(","):
            token = token.strip()
            if oversized_rational(token):
                raise _oversized_point(token)
            try:
                points.append(Fraction(token))
            except (ValueError, ZeroDivisionError):
                shown = excerpt(token, quote=True)
                raise DocumentError(f"cannot parse grid point {shown}") from None
        return validate_grid(points)
    except FamilyError as err:
        raise DocumentError(f"bad --grid: {err}") from None


def _graph_section(g) -> dict[str, Any]:
    return {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "components": len(connected_components(g)),
        "genus": graph_genus(g),
        "total_genus": total_genus(g),
        "stable": is_stable(g),
    }


def _assertion(name: str, passed: bool, **extra: Any) -> dict[str, Any]:
    out: dict[str, Any] = {"name": name, "passed": bool(passed)}
    out.update(extra)
    return out


def _agreement(name: str, key_name: str, rows) -> dict[str, Any]:
    """An assertion that each row ``(key, (label, a), (label, b))`` has
    a == b; a failure names the first row that breaks it, with both values."""
    for key, (label_a, a), (label_b, b) in rows:
        if a != b:
            evidence = {key_name: key, label_a: exact_field(a), label_b: exact_field(b)}
            return _assertion(name, False, **evidence)
    return _assertion(name, True)


def _finish(report: dict[str, Any], assertions: list[dict[str, Any]]) -> tuple[dict[str, Any], bool]:
    ok = all(a["passed"] for a in assertions)
    report["assertions"] = assertions
    report["ok"] = ok
    return report, ok


def _foster_mass(resistance: Fraction, length: Fraction) -> Fraction:
    """Foster's 1 - R/l as one Fraction: with R = r/d and l = p/q it is
    (d p - r q) / (d p)."""
    r, d = resistance.numerator, resistance.denominator
    p, q = length.numerator, length.denominator
    return Fraction(d * p - r * q, d * p)


def _measure_assertions(metric: MetricGraph, measures: dict[str, EdgeMeasure]) -> list[dict[str, Any]]:
    """The measure checks: the formulations agree, the edge mass is the
    genus, and the first formulation matches the resistance oracle."""
    g = metric.graph
    names = list(measures)
    assertions = []
    h = graph_genus(g)
    first = measures[names[0]]
    if len(names) > 1:
        rows = (
            (e, (names[0], first.edge_coeffs[e]), (n, measures[n].edge_coeffs[e]))
            for e in g.edge_ids
            for n in names[1:]
        )
        assertions.append(_agreement("formulations_agree", "edge", rows))
    assertions.append(
        _assertion(
            "edge_mass_equals_genus",
            first.edge_mass == h,
            edge_mass=exact_field(first.edge_mass),
            genus=h,
        )
    )
    lengths = metric.lengths
    resistance = effective_resistance(g, lengths)
    rows = (
        (e, ("measure", first.edge_coeffs[e]), ("oracle", _foster_mass(resistance[e], lengths[e])))
        for e in g.edge_ids
    )
    assertions.append(_agreement("resistance_oracle", "edge", rows))
    return assertions


def cmd_measure(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    doc = load_document(args.input)
    metric = doc.metric()
    _require_digits(mass_digits(doc.graph, metric.integer_lengths), "masses may need")
    names = list(_FORMULATIONS) if args.formulation == "all" else [args.formulation]
    if "trees" in names:
        _require_budget(tree_count(doc.graph))
    measures = {name: _FORMULATIONS[name](metric) for name in names}
    report: dict[str, Any] = {
        "command": "measure",
        "formulation": args.formulation,
        "graph": _graph_section(doc.graph),
        "measures": {name: measure_section(mu) for name, mu in measures.items()},
    }
    return _finish(report, _measure_assertions(metric, measures))


def cmd_trees(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    doc = load_document(args.input)
    oracle = tree_count(doc.graph)
    _require_budget(oracle)
    masks = forest_masks(doc.graph)
    report = {
        "command": "trees",
        "graph": _graph_section(doc.graph),
        "count": len(masks),
        "matrix_tree_count": oracle,
        # Bit i is the i-th edge id, so each decoded list is sorted.
        "trees": mask_edges(doc.graph.edge_ids, masks),
    }
    assertions = [_assertion("count_matches_matrix_tree", len(masks) == oracle)]
    return _finish(report, assertions)


def _minors_checks(minors: GradedMinorReport) -> tuple[list[int], int, list[dict[str, Any]]]:
    """Per-minor matrix-tree counts, the layered tree count, and the checks
    that the genera sum to the genus and the two tree counts agree."""
    counts = [tree_count(minor) for minor in minors.minors]
    # One minor's forests are listed at a time, so each count is budgeted
    # on its own, not their product.
    for j, count in enumerate(counts):
        _require_budget(count, f"graded minor {j}")
    product = math.prod(counts)
    # Unions of one forest per minor: the layers are disjoint, so counts multiply.
    layered = math.prod(len(forest_masks(minor)) for minor in minors.minors)
    h = graph_genus(minors.graph)
    assertions = [
        _assertion(
            "genus_decomposition_sums",
            sum(minors.genus_vector) == h,
            genus_vector=list(minors.genus_vector),
            genus=h,
        ),
        _assertion(
            "layered_tree_count_matches_product",
            layered == product,
            count=layered,
            product=product,
        ),
    ]
    return counts, layered, assertions


def cmd_minors(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    doc = load_document(args.input)
    layering = doc.require_layering()
    curve = None
    if doc.lengths is not None and all(
        sum((doc.lengths[e] for e in part), Fraction(0)) == 1 for part in layering.parts
    ):
        curve = doc.tropical()
    minors = graded_minors(doc.graph, layering) if curve is None else curve.minors
    if curve is not None:
        _require_minor_digits(curve)
    basis = admissible_cycle_basis(minors)
    counts, layered, assertions = _minors_checks(minors)
    per_layer = [
        {
            "layer": j,
            "edges": sorted(minor.edge_ids),
            "vertices": len(minor.vertices),
            "genus": minors.genus_vector[j],
            "tree_count": counts[j],
            "vertex_map": dict(sorted(minors.vertex_maps[j].items())),
        }
        for j, minor in enumerate(minors.minors)
    ]
    report: dict[str, Any] = {
        "command": "minors",
        "graph": _graph_section(doc.graph),
        "layers": per_layer,
        "genus_vector": list(minors.genus_vector),
        "layered_tree_count": layered,
        "admissible_basis": [
            [dict(sorted(c.coeffs.items())) for c in block] for block in basis.blocks
        ],
    }
    if curve is not None:
        # With normalized lengths the hybrid mass profile is the tropical
        # measure itself.
        tropical = tropical_canonical_measure(curve)
        report["tropical_measure"] = measure_section(tropical)
        assertions.append(
            _assertion(
                "hybrid_total_mass_equals_total_genus",
                tropical.total_mass == total_genus(doc.graph),
                total_mass=exact_field(tropical.total_mass),
                total_genus=total_genus(doc.graph),
            )
        )
    return _finish(report, assertions)


def _dichotomy_assertion(family: LengthFamily, limits: dict[int, Fraction]) -> dict[str, Any]:
    """Each tree's weight limit equals its layered closed form, both keyed
    by forest mask; a failure names the first tree, in the canonical order
    of ``limits``, that breaks it, decoded to its sorted edge ids."""
    closed_forms = layered_tree_weights(family, limits)
    rows = ((t, ("limit", x), ("closed_form", closed_forms[t])) for t, x in limits.items())
    assertion = _agreement("tree_weight_dichotomy", "tree", rows)
    if not assertion["passed"]:
        [assertion["tree"]] = mask_edges(family.graph.edge_ids, [assertion["tree"]])
    return assertion


def cmd_limit(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    doc = load_document(args.input)
    family = doc.length_family()
    grid = _parse_grid(args.grid, (1, 6))
    _require_fibre_digits(family, grid, _require_length_budget(family, grid))
    _require_budget(tree_count(doc.graph))
    # The fibres' target refuses a disconnected graph before any forest is listed.
    foster = limit_foster(family, grid)
    limits = tree_limits(family)
    dichotomy = _dichotomy_assertion(family, limits)
    h = graph_genus(doc.graph)
    report: dict[str, Any] = {
        "command": "limit",
        "graph": _graph_section(doc.graph),
        "grid": [exact_field(t) for t in grid],
        "targets": {e: exact_field(x) for e, x in sorted(foster.targets.items())},
        "trajectories": {
            e: [float_field(v) for v in vals]
            for e, vals in sorted(foster.trajectories.items())
        },
        "max_deviations": [float_field(d) for d in foster.max_deviations],
        "final_deviation": float_field(foster.final_deviation),
        "tree_limits": TreeLimitRows(doc.graph.edge_ids, limits),
    }
    assertions = [
        _assertion(
            "edge_mass_equals_genus_on_grid",
            all(mass == h for mass in foster.edge_masses),
            genus=h,
        ),
        _assertion("deviations_monotone", foster.monotone),
        dichotomy,
    ]
    return _finish(report, assertions)


def cmd_periods(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    """Refuses, before building any array, a period matrix with more than
    PERIOD_SIDE_BUDGET rows (its side is the total genus), and lengths over
    LENGTH_DIGITS_BUDGET digits before sampling."""
    doc = load_document(args.input)
    layering = doc.require_layering()
    if doc.target is None:
        raise FamilyError("period models need a target point in the document")
    r = len(layering.parts)
    if args.scales is None:
        exponents = [2 * (r - j) for j in range(r)]
    else:
        try:
            exponents = [int(tok) for tok in args.scales.split(",")]
        except ValueError:
            raise DocumentError("scales must be a comma list of integers") from None
        if len(exponents) != r or exponents[-1] <= 0:
            raise FamilyError("need one strictly decreasing positive exponent per layer")
    import numpy as np

    family = corpus.layered_family(doc.graph, layering, doc.target, [-a for a in exponents])
    _require_budget(total_genus(doc.graph), "the period matrix", "rows", PERIOD_SIDE_BUDGET)
    blocks = {} if args.lambda0 is None else load_base_matrix(args.lambda0)
    model = layered_period_family(family, **blocks)
    grid = _parse_grid(args.grid, (1, 5))
    _require_length_budget(family, grid)
    limits = graded_inverse_limits(model, grid)
    # The unit Gram matrix is the sum of the edge matrices the report
    # prints, added here in integers apart from the Gram assembly.
    edge_matrices = {e: m for e, (_, m) in model.edge_terms.items()}
    summed = sum(edge_matrices.values(), np.zeros((model.monodromy.rank,) * 2, dtype=int))
    gram_ok = summed.tolist() == model.monodromy.unit_gram
    report: dict[str, Any] = {
        "command": "periods",
        "graph": _graph_section(doc.graph),
        "scales": [f"t^-{a}" for a in exponents],
        "block_sizes": list(limits.block_sizes),
        "monodromy": {e: m.tolist() for e, m in edge_matrices.items()},
        "layer_targets": [
            [[exact_field(x) for x in row] for row in target_k]
            for target_k in limits.layer_targets_exact
        ],
        "grid": [exact_field(t) for t in grid],
        "samples": [
            {
                "t": exact_field(s.t),
                "diag_deviations": [float_field(d) for d in s.diag_deviations],
                "offdiag_max": float_field(
                    max(s.offdiag_norms.values()) if s.offdiag_norms else 0.0
                ),
                "oracle_gap": float_field(s.oracle_gap),
                "condition": float_field(s.condition),
                "flagged": s.flagged,
            }
            for s in limits.samples
        ],
    }
    final = limits.final_deviations
    pad = model.monodromy.pad
    assertions = [
        _assertion("gram_consistency", gram_ok),
        _assertion(
            "oracle_agreement",
            max(s.oracle_gap for s in limits.samples) <= 1e-9,
        ),
        _assertion(
            "diagonal_limits",
            all(d <= 1e-6 for d in (final[:-1] if pad else final)),
            final_deviations=[float_field(d) for d in final],
        ),
    ]
    if pad:
        assertions.append(_assertion("pad_limit", final[-1] <= 1e-9))
    return _finish(report, assertions)


# selftest runs the checks of measure and minors (and limit's dichotomy)
# on each random case and counts those that pass, under these names where
# its report names them differently.
_SELFTEST_COUNTS = {
    "edge_mass_equals_genus": "mass_identity",
    "genus_decomposition_sums": "genus_decomposition",
    "layered_tree_count_matches_product": "layered_tree_counts",
}


def _count_passed(counts: dict[str, int], assertions: list[dict[str, Any]]) -> None:
    for a in assertions:
        if a["passed"]:
            counts[_SELFTEST_COUNTS.get(a["name"], a["name"])] += 1


def _selftest_section(cases: int, counts: dict[str, int]) -> dict[str, Any]:
    return {"cases": cases, **counts, "passed": all(c == cases for c in counts.values())}


def _selftest_measures(rng: Random, cases: int) -> dict[str, Any]:
    counts = dict.fromkeys(
        ("formulations_agree", "mass_identity", "resistance_oracle", "scale_invariance"), 0
    )
    for _ in range(cases):
        g = corpus.random_graph(rng, max_vertices=6, max_edges=9)
        m = corpus.random_metric(rng, g)
        measures = {name: route(m) for name, route in _FORMULATIONS.items()}
        _count_passed(counts, _measure_assertions(m, measures))
        factor = corpus.random_rational(rng, 20, 20)
        if foster_by_trees(m.scaled(factor)).edge_coeffs == measures["trees"].edge_coeffs:
            counts["scale_invariance"] += 1
    return _selftest_section(cases, counts)


def _selftest_layerings(rng: Random, cases: int) -> dict[str, Any]:
    counts = dict.fromkeys(
        ("genus_decomposition", "layered_tree_counts", "tree_weight_dichotomy"), 0
    )
    for _ in range(cases):
        g = corpus.random_graph(rng, max_vertices=5, max_edges=7)
        p = corpus.random_layering(rng, g)
        family = corpus.layered_family(g, p, corpus.normalized_coordinates(rng, p))
        _, _, assertions = _minors_checks(family.target_curve.minors)
        assertions.append(_dichotomy_assertion(family, tree_limits(family)))
        _count_passed(counts, assertions)
    return _selftest_section(cases, counts)


def _selftest_limits() -> dict[str, Any]:
    grid = geometric_grid(1, 3)
    theta = limit_foster(gallery.theta_family(), grid)
    triangle = limit_foster(gallery.triangle_family(), grid)
    passed = (
        theta.monotone
        and triangle.monotone
        and theta.targets["e2"] == Fraction(1, 2)
        and triangle.targets["e1"] == 1
    )
    return {
        "theta_final_deviation": float_field(theta.final_deviation),
        "triangle_final_deviation": float_field(triangle.final_deviation),
        "passed": passed,
    }


def _selftest_periods(seed: int) -> dict[str, Any]:
    import numpy as np

    model = gallery.theta_period_family()
    limits = graded_inverse_limits(model, geometric_grid(1, 4))
    gen = np.random.default_rng(seed + 1)
    profile = corpus.random_block_profile(gen, n_blocks=3)
    lemma = verify_inverse_lemma(profile, NoiseSpec(seed=seed), geometric_grid(1, 4))
    passed = (
        max(s.oracle_gap for s in limits.samples) <= 1e-9
        and all(d <= 1e-4 for d in limits.final_deviations)
        and lemma.max_oracle_gap <= 1e-9
        and all(d <= 1e-6 for d in lemma.final_diag_deviations)
    )
    return {
        "model_final_deviations": [float_field(d) for d in limits.final_deviations],
        "lemma_final_deviations": [float_field(d) for d in lemma.final_diag_deviations],
        "max_oracle_gap": float_field(
            max(lemma.max_oracle_gap, max(s.oracle_gap for s in limits.samples))
        ),
        "passed": passed,
    }


def cmd_selftest(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    rng = Random(args.seed)
    sections = {
        "measures": _selftest_measures(rng, cases=10),
        "layerings": _selftest_layerings(rng, cases=10),
        "limits": _selftest_limits(),
        "periods": _selftest_periods(args.seed),
    }
    report: dict[str, Any] = {"command": "selftest", "seed": args.seed}
    report.update(sections)
    assertions = [
        _assertion(name, section["passed"]) for name, section in sections.items()
    ]
    return _finish(report, assertions)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="canmeas",
        description="canonical measures on layered metric graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_input: bool = True):
        p = sub.add_parser(name, help=help_text)
        if needs_input:
            p.add_argument("--input", required=True, help="path to a graph document")
        p.add_argument(
            "--table", action="store_true", help="plain text table instead of JSON"
        )
        return p

    p = add("measure", "canonical measure of a metric graph")
    p.add_argument(
        "--formulation",
        choices=[*_FORMULATIONS, "all"],
        default="all",
    )
    add("trees", "spanning trees and the matrix-tree cross-check")
    add("minors", "graded minors, layered trees, admissible basis")
    p = add("limit", "measure limits of a degenerating family")
    p.add_argument("--grid", help="'1e-1..1e-6' or comma list of rationals")
    p = add("periods", "block limits of the model period matrix")
    p.add_argument("--grid", help="'1e-1..1e-5' or comma list of rationals")
    p.add_argument("--scales", help="comma list of layer scale exponents")
    p.add_argument("--lambda0", help="JSON file with base matrix blocks")
    def seed(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
        return value

    p = add("selftest", "seeded randomized self checks", needs_input=False)
    p.add_argument("--seed", type=seed, default=0)
    return parser


def _loaded_linalg_errors() -> tuple[type[Exception], ...]:
    """numpy's LinAlgError once the period lane has loaded numpy, else
    nothing: an except clause evaluates this only when an exception
    reaches it, and numpy cannot raise before it is loaded."""
    np = sys.modules.get("numpy")
    return () if np is None else (np.linalg.LinAlgError,)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at each call, not bound into the cached parser, so a
        # command replaced in this module after the parser is built runs.
        report, ok = globals()["cmd_" + args.command](args)
        # Rendered here, since a value too long to print is found while
        # the tree limits are written.
        text = render_table(report) if args.table else dump_report(report)
    except DocumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CanmeasError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return 3
    except _loaded_linalg_errors() as err:
        print(f"error: numerical linear algebra failed: {err}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
