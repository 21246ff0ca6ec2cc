"""Seeded graph documents for the benchmark, built without canmeas.

A graph is ``(vertices, edges, vertex_genus)`` with edges as
``(edge_id, tail, head)``.  Ids are zero padded so that lexicographic
order, which canmeas uses everywhere, is creation order.  Every random
choice comes from the ``random.Random`` passed in, so a seed fixes the
documents byte for byte.
"""

from __future__ import annotations

from fractions import Fraction


def _vid(i: int) -> str:
    return f"v{i:02d}"


def _edges(pairs) -> list[tuple[str, str, str]]:
    return [(f"e{k:03d}", _vid(u), _vid(v)) for k, (u, v) in enumerate(pairs)]


def grid(rows: int, cols: int):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            if c + 1 < cols:
                pairs.append((here, here + 1))
            if r + 1 < rows:
                pairs.append((here, here + cols))
    return [_vid(i) for i in range(rows * cols)], _edges(pairs), {}


def complete(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [_vid(i) for i in range(n)], _edges(pairs), {}


def cycle(n: int):
    return [_vid(i) for i in range(n)], _edges([(i, (i + 1) % n) for i in range(n)]), {}


def banana(k: int):
    """Two vertices joined by k parallel edges."""
    return [_vid(0), _vid(1)], _edges([(0, 1)] * k), {}


def random_multigraph(rng, n_vertices: int, n_edges: int, loops: int = 0, max_genus: int = 0):
    """Connected multigraph: a random spanning tree, ``loops`` loops and
    random extra edges (parallels allowed), with random vertex genera."""
    order = list(range(n_vertices))
    rng.shuffle(order)
    pairs = [(rng.choice(order[:i]), order[i]) for i in range(1, n_vertices)]
    for _ in range(loops):
        v = rng.randrange(n_vertices)
        pairs.append((v, v))
    while len(pairs) < n_edges:
        pairs.append(tuple(rng.sample(range(n_vertices), 2)))
    rng.shuffle(pairs)
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
    vertex_genus = {_vid(i): rng.randint(0, max_genus) for i in range(n_vertices)}
    return [_vid(i) for i in range(n_vertices)], _edges(pairs), vertex_genus


def random_lengths(rng, edges, top: int = 12) -> dict[str, Fraction]:
    return {eid: Fraction(rng.randint(1, top), rng.randint(1, top)) for eid, _, _ in edges}


def random_layering(rng, edges, weights) -> list[list[str]]:
    """Shuffle the edges and cut them into one layer per weight, with
    layer sizes proportional to the weights."""
    ids = [eid for eid, _, _ in edges]
    rng.shuffle(ids)
    total = sum(weights)
    cuts = [len(ids) * sum(weights[:j]) // total for j in range(len(weights) + 1)]
    return [sorted(ids[cuts[j] : cuts[j + 1]]) for j in range(len(weights))]


def _prime_at_least(n: int) -> int:
    while n < 2 or any(n % d == 0 for d in range(2, int(n**0.5) + 1)):
        n += 1
    return n


def layer_coordinates(rng, layering) -> dict[str, Fraction]:
    """Positive coordinates summing to one within each layer.

    A layer of m edges gets w_e / P with P the smallest prime >= 5m and
    the w_e a random composition of P.  Every coordinate of a layer then
    has the same denominator, so the size of the exact arithmetic the
    coordinates feed does not swing with the seed.
    """
    coords = {}
    for part in layering:
        total = _prime_at_least(5 * len(part))
        cuts = sorted(rng.sample(range(1, total), len(part) - 1))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        coords.update({e: Fraction(w, total) for e, w in zip(part, weights)})
    return coords


def document(graph, lengths=None, layering=None, coords=None) -> dict:
    """A canmeas graph document.

    With a layering, layer-j edges get the family x_e * t^j toward the
    target point x; the lengths default to x, which is normalized per
    layer, so ``minors`` also reports the tropical measure.
    """
    vertices, edges, vertex_genus = graph
    if layering is not None and lengths is None:
        lengths = coords
    doc: dict = {
        "vertices": [
            {"id": v, "genus": vertex_genus[v]} if vertex_genus.get(v) else {"id": v}
            for v in vertices
        ],
        "edges": [
            {"id": eid, "ends": [u, v], **({"length": str(lengths[eid])} if lengths else {})}
            for eid, u, v in edges
        ],
    }
    if layering is not None:
        doc["layering"] = layering
        doc["target"] = {e: str(x) for e, x in sorted(coords.items())}
        doc["family"] = {
            e: _monomial(coords[e], j) for j, part in enumerate(layering) for e in part
        }
    return doc


def _monomial(coeff: Fraction, exponent: int) -> str:
    if exponent == 0:
        return str(coeff)
    return f"{coeff}*t" if exponent == 1 else f"{coeff}*t^{exponent}"
