"""The benchmark's workloads: seeded CLI cases and their output checks.

Each case is one ``canmeas`` command line over a document written to the
work directory.  Its check takes the decoded report and returns a list
of problems, comparing against :mod:`oracle` (which shares no code with
canmeas) or against properties the method must have.  Oracle values are
computed here, while the cases are built, so none of that work falls
inside a timed call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

import inputs
import oracle

WORKLOADS = ("measure_exact", "layered", "cli_corpus")

# selftest draws its own random graphs and its run time varies about
# sixfold between seeds, so the workload runs it at fixed seeds: its
# cost must not move with the workload seed.
SELFTEST_SEEDS = (0, 1, 2)

# Shapes of the cli_corpus documents, (vertices, edges, layers, loops,
# largest vertex genus, fewest and most spanning trees), cycled so every
# seed gets the same mix.  A graph is redrawn until its tree count, which
# sets the cost of `limit` and `trees`, is in the shape's window around
# the middle of its distribution.  The first shape is a tree with no
# vertex genus: total genus 0.
CORPUS_SHAPES = (
    (4, 3, 2, 0, 0, 1, 1),
    (2, 3, 1, 0, 1, 3, 3),
    (3, 4, 2, 1, 0, 2, 3),
    (4, 6, 2, 0, 1, 9, 12),
    (5, 7, 3, 1, 0, 5, 8),
    (6, 9, 2, 0, 1, 30, 40),
    (7, 10, 3, 1, 0, 18, 24),
    (3, 3, 1, 1, 2, 1, 1),
    (4, 5, 2, 0, 2, 4, 6),
    (5, 8, 3, 1, 1, 11, 15),
    (6, 8, 2, 1, 0, 6, 9),
    (7, 9, 2, 0, 1, 18, 24),
)
CORPUS_DOCUMENTS = 60


@dataclass
class Case:
    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]


def _exact(field) -> Fraction:
    return Fraction(field["exact"])


def _float_text(x: Fraction) -> str:
    return format(float(x), ".17g")


def _writer(workdir: str):
    def write(name: str, doc: dict) -> str:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
        return path

    return write


# ---------------------------------------------------------------- checks


def check_measure(graph, lengths, formulation):
    vertices, edges, vertex_genus = graph
    mu = oracle.canonical_measure(vertices, edges, lengths)
    h = oracle.genus(vertices, edges)
    names = ["trees", "projection", "matrix"] if formulation == "all" else [formulation]
    atoms = {v: g for v, g in vertex_genus.items() if g}

    def check(report):
        problems = []
        if sorted(report["measures"]) != sorted(names):
            return [f"formulations {sorted(report['measures'])}, expected {sorted(names)}"]
        for name, section in report["measures"].items():
            got = {e: _exact(x) for e, x in section["edge_coefficients"].items()}
            if got != mu:
                bad = sorted(e for e in mu if got.get(e) != mu[e])[:3]
                problems.append(f"{name}: edge coefficients of {bad} differ from the oracle")
            if _exact(section["edge_mass"]) != h:
                problems.append(f"{name}: edge mass {section['edge_mass']} is not h = {h}")
            if section["vertex_atoms"] != atoms:
                problems.append(f"{name}: vertex atoms differ from the vertex genera")
        return problems

    return check


def check_trees(graph):
    vertices, edges, _ = graph
    count = oracle.tree_count(vertices, edges)

    def check(report):
        problems = []
        trees = report["trees"]
        if report["count"] != count or report["matrix_tree_count"] != count:
            problems.append(f"tree count {report['count']}, oracle {count}")
        if len(trees) != count or len({tuple(t) for t in trees}) != len(trees):
            problems.append("tree list is not the oracle's number of distinct forests")
        if not all(oracle.is_spanning_forest(vertices, edges, t) for t in trees):
            problems.append("a listed tree is not a spanning forest")
        return problems

    return check


def _minor_data(graph, layering, coords):
    vertices, edges, _ = graph
    minors = oracle.graded_minors(vertices, edges, layering)
    return {
        "h": oracle.genus(vertices, edges),
        "genus": [oracle.genus(*m) for m in minors],
        "counts": [oracle.tree_count(*m) for m in minors],
        "sums": [oracle.kirchhoff_sum(*m, coords) for m in minors],
        "tropical": oracle.tropical_measure(vertices, edges, layering, coords),
    }


def _product(values):
    out = 1
    for x in values:
        out *= x
    return out


def check_minors(graph, layering, coords, lengths):
    vertices, edges, _ = graph
    data = _minor_data(graph, layering, coords)
    # canmeas reports the tropical measure exactly when every layer's
    # lengths sum to one, and computes it from the lengths.
    normalized = all(sum(lengths[e] for e in part) == 1 for part in layering)
    tropical = oracle.tropical_measure(vertices, edges, layering, lengths) if normalized else None
    ends = {eid: (u, v) for eid, u, v in edges}
    layer_of = {e: j for j, part in enumerate(layering) for e in part}

    def check(report):
        problems = []
        if sum(report["genus_vector"]) != data["h"]:
            problems.append(f"genus vector {report['genus_vector']} does not sum to h = {data['h']}")
        if report["genus_vector"] != data["genus"]:
            problems.append(f"genus vector {report['genus_vector']}, oracle {data['genus']}")
        layers = report["layers"]
        if [layer["edges"] for layer in layers] != [sorted(p) for p in layering]:
            problems.append("minor edge sets are not the layers")
        if [layer["tree_count"] for layer in layers] != data["counts"]:
            problems.append(f"minor tree counts {[l['tree_count'] for l in layers]}, oracle {data['counts']}")
        if report["layered_tree_count"] != _product(data["counts"]):
            problems.append("layered tree count is not the product of the minor counts")
        for j, block in enumerate(report["admissible_basis"]):
            if len(block) != data["genus"][j]:
                problems.append(f"basis block {j} has {len(block)} cycles, minor genus {data['genus'][j]}")
            for cycle in block:
                boundary: dict = {}
                for e, c in cycle.items():
                    u, v = ends[e]
                    boundary[v] = boundary.get(v, 0) + c
                    boundary[u] = boundary.get(u, 0) - c
                    if layer_of[e] < j:
                        problems.append(f"basis block {j} uses earlier-layer edge {e}")
                if any(boundary.values()):
                    problems.append(f"basis block {j} holds a chain with nonzero boundary")
        if normalized != ("tropical_measure" in report):
            problems.append(f"tropical measure {'missing' if normalized else 'reported'}, lengths normalized: {normalized}")
        elif normalized:
            got = {e: _exact(x) for e, x in report["tropical_measure"]["edge_coefficients"].items()}
            if got != tropical:
                problems.append("tropical measure differs from the oracle's minor measures")
        return problems

    return check


def _grid(first: int, last: int) -> list[Fraction]:
    return [Fraction(1, 10**k) for k in range(first, last + 1)]


def check_limit(graph, layering, coords, grid):
    vertices, edges, _ = graph
    data = _minor_data(graph, layering, coords)
    exponent = {e: j for j, part in enumerate(layering) for e in part}
    trajectories = {e: [] for e, _, _ in edges}
    for t in grid:
        mu = oracle.canonical_measure(
            vertices, edges, {e: coords[e] * t ** exponent[e] for e in coords}
        )
        for e, x in mu.items():
            trajectories[e].append(_float_text(x))
    limit_sum = _product(data["sums"])
    nonzero = _product(data["counts"])
    total = oracle.tree_count(vertices, edges)

    def check(report):
        problems = []
        if [_exact(t) for t in report["grid"]] != grid:
            problems.append("grid differs from the requested grid")
        if {e: _exact(x) for e, x in report["targets"].items()} != data["tropical"]:
            problems.append("targets differ from the oracle's minor measures")
        got = {e: [x["float"] for x in xs] for e, xs in report["trajectories"].items()}
        if got != trajectories:
            problems.append("trajectories differ from the oracle's measures on the grid")
        limits = report["tree_limits"]
        values = [_exact(item["limit"]) for item in limits]
        if len(limits) != total:
            problems.append(f"{len(limits)} tree limits for {total} spanning trees")
        if sum(values) != limit_sum:
            problems.append("tree limits do not sum to the product of the minors' Kirchhoff sums")
        if sum(1 for x in values if x) != nonzero:
            problems.append("nonzero tree limits are not the product of the minors' tree counts")
        if not all(oracle.is_spanning_forest(vertices, edges, item["tree"]) for item in limits):
            problems.append("a tree limit is keyed by an edge set that is no spanning tree")
        return problems

    return check


def check_periods(graph, layering, coords):
    vertices, edges, vertex_genus = graph
    data = _minor_data(graph, layering, coords)
    pad = sum(vertex_genus.values())
    sizes = data["genus"] + ([pad] if pad else [])
    r = len(layering)

    def check(report):
        problems = []
        if report["block_sizes"] != sizes:
            problems.append(f"block sizes {report['block_sizes']}, oracle {sizes}")
        if report["scales"] != [f"t^-{2 * (r - j)}" for j in range(r)]:
            problems.append(f"unexpected default scales {report['scales']}")
        start = 0
        for k, part in enumerate(layering):
            size = data["genus"][k]
            target = [[_exact(x) for x in row] for row in report["layer_targets"][k]]
            matrix = [[Fraction(0)] * size for _ in range(size)]
            for e in part:
                outer = report["monodromy"][e]
                for i in range(size):
                    for j in range(size):
                        matrix[i][j] += coords[e] * outer[start + i][start + j]
            for i in range(size):
                for j in range(size):
                    entry = sum(target[i][m] * matrix[m][j] for m in range(size))
                    if abs(entry - (i == j)) > Fraction(1, 10**9):
                        problems.append(f"layer {k}: target times layer matrix is not I")
            start += size
        return problems

    return check


def check_selftest(seed):
    def check(report):
        sections = ("measures", "layerings", "limits", "periods")
        if report["seed"] != seed or not all(report[s]["passed"] for s in sections):
            return [f"selftest sections failed at seed {seed}"]
        return []

    return check


# ------------------------------------------------------------- workloads


def _sized(rng, shape, lo, hi):
    """A random multigraph of the shape whose tree count is in [lo, hi]."""
    while True:
        graph = inputs.random_multigraph(rng, *shape)
        if lo <= oracle.tree_count(*graph[:2]) <= hi:
            return graph


def _measure_exact(rng, write):
    graphs = [
        ("grid4x4", inputs.grid(4, 4)),
        ("grid5x5", inputs.grid(5, 5)),
        ("K6", inputs.complete(6)),
        ("K7", inputs.complete(7)),
        ("K8", inputs.complete(8)),
        ("cycle12", inputs.cycle(12)),
        # Three draws of lengths on C20, whose reports cost about what the
        # median report does, so the median does not jump with the seed.
        ("cycle20a", inputs.cycle(20)),
        ("cycle20b", inputs.cycle(20)),
        ("cycle20c", inputs.cycle(20)),
        ("banana8", inputs.banana(8)),
        ("banana14", inputs.banana(14)),
    ]
    for n_vertices, n_edges in ((7, 14), (8, 17), (9, 20), (10, 23), (12, 26), (14, 30)):
        graph = inputs.random_multigraph(rng, n_vertices, n_edges, loops=2, max_genus=2)
        graphs.append((f"random{n_edges}", graph))
    cases = []
    for name, graph in graphs:
        lengths = inputs.random_lengths(rng, graph[1])
        path = write(name, inputs.document(graph, lengths=lengths))
        for formulation in ("matrix", "projection"):
            cases.append(
                Case(
                    f"{name}/measure-{formulation}",
                    ["measure", "--input", path, "--formulation", formulation],
                    check_measure(graph, lengths, formulation),
                )
            )
    return cases


def _layered(rng, write):
    families = [
        ("grid3x3", inputs.grid(3, 3), 2),
        ("grid3x3", inputs.grid(3, 3), 3),
        ("grid3x3", inputs.grid(3, 3), 4),
        ("grid3x4", inputs.grid(3, 4), 2),
        ("K5", inputs.complete(5), 2),
        ("K5", inputs.complete(5), 3),
        ("K5", inputs.complete(5), 4),
        ("K6", inputs.complete(6), 2),
    ]
    # Random multigraphs with their tree count, which sets the cost of
    # `limit`, in a window around the middle of its distribution for the
    # shape, so the seed does not swing the cost.
    for k, (n_vertices, n_edges, layers, lo, hi) in enumerate(
        ((5, 9, 2, 22, 28), (5, 10, 3, 40, 52), (6, 11, 4, 55, 70),
         (6, 12, 2, 100, 128), (6, 12, 3, 100, 128), (5, 12, 4, 100, 124))
    ):
        families.append((f"random{k}", _sized(rng, (n_vertices, n_edges, 1, 1), lo, hi), layers))
    cases = []
    grid = _grid(1, 6)
    for name, graph, layers in families:
        # A two-layer layering is redrawn until its last layer holds a
        # cycle: where it is a forest, `limit` on the 3x4 grid costs 7 %
        # less, and the cost would swing with the seed.
        while True:
            layering = inputs.random_layering(rng, graph[1], (1,) * layers)
            if layers != 2 or oracle.genus(*oracle.graded_minors(*graph[:2], layering)[1]) > 0:
                break
        coords = inputs.layer_coordinates(rng, layering)
        path = write(f"{name}-L{layers}", inputs.document(graph, layering=layering, coords=coords))
        cases.append(Case(f"{name}-L{layers}/limit", ["limit", "--input", path], check_limit(graph, layering, coords, grid)))
        cases.append(Case(f"{name}-L{layers}/minors", ["minors", "--input", path], check_minors(graph, layering, coords, coords)))
    # Minors alone on 4x4 grids.  Where the first layer holds two thirds
    # of the edges, minor 0 has hundreds to thousands of spanning forests;
    # the layering is redrawn until that count is near its median.  With
    # four even layers every minor is small, and these cheap reports put
    # the median report of the workload among the fixed-cost ones.
    graph = inputs.grid(4, 4)
    for k, weights in enumerate([(2, 1)] * 3 + [(1, 1, 1, 1)] * 9):
        while True:
            layering = inputs.random_layering(rng, graph[1], weights)
            minor = oracle.graded_minors(*graph[:2], layering)[0]
            if weights != (2, 1) or 800 <= oracle.tree_count(*minor) <= 1000:
                break
        coords = inputs.layer_coordinates(rng, layering)
        name = f"grid4x4-L{len(weights)}-{k}"
        path = write(name, inputs.document(graph, layering=layering, coords=coords))
        cases.append(Case(f"{name}/minors", ["minors", "--input", path], check_minors(graph, layering, coords, coords)))
    return cases


def _cli_corpus(rng, write):
    cases = []
    grid = _grid(1, 3)
    for k in range(CORPUS_DOCUMENTS):
        n_vertices, n_edges, layers, loops, max_genus, lo, hi = CORPUS_SHAPES[k % len(CORPUS_SHAPES)]
        graph = _sized(rng, (n_vertices, n_edges, loops, max_genus), lo, hi)
        layering = inputs.random_layering(rng, graph[1], (1,) * layers)
        coords = inputs.layer_coordinates(rng, layering)
        # Even documents carry the normalized target as lengths, odd ones
        # random lengths, so `minors` runs both with and without the
        # tropical measure (random lengths rarely sum to one per layer too).
        lengths = coords if k % 2 == 0 else inputs.random_lengths(rng, graph[1])
        name = f"doc{k:02d}"
        path = write(name, inputs.document(graph, lengths, layering, coords))
        cases += [
            Case(f"{name}/measure", ["measure", "--input", path], check_measure(graph, lengths, "all")),
            Case(f"{name}/trees", ["trees", "--input", path], check_trees(graph)),
            Case(f"{name}/minors", ["minors", "--input", path], check_minors(graph, layering, coords, lengths)),
            Case(
                f"{name}/limit",
                ["limit", "--input", path, "--grid", "1e-1..1e-3"],
                check_limit(graph, layering, coords, grid),
            ),
        ]
        # `periods` fails on total genus 0 (an empty eigenvalue list) and,
        # on some seeds, on three layers (a false "not positive definite"),
        # so it runs on the other documents only.
        vertices, edges, vertex_genus = graph
        if oracle.genus(vertices, edges) + sum(vertex_genus.values()) > 0 and layers <= 2:
            cases.append(Case(f"{name}/periods", ["periods", "--input", path], check_periods(graph, layering, coords)))
    for seed in SELFTEST_SEEDS:
        cases.append(Case(f"selftest-{seed}", ["selftest", "--seed", str(seed)], check_selftest(seed)))
    return cases


def build(workload: str, seed: int, workdir: str) -> list[Case]:
    """Write the workload's documents for this seed and return its cases."""
    make = {"measure_exact": _measure_exact, "layered": _layered, "cli_corpus": _cli_corpus}[workload]
    return make(Random(f"{workload}:{seed}"), _writer(workdir))
