"""Independent exact oracle for the benchmark's correctness checks.

Nothing here imports canmeas.  A graph is a list of vertex ids and a
list of ``(edge_id, tail, head)`` triples; loops and parallel edges are
allowed.  Three constructions are provided:

- the canonical measure mu(e) = 1 - R_eff(e) / length(e) from one exact
  grounded-Laplacian inverse per connected component (Foster's theorem),
- graded minors of a layering built with union-find, and
- weighted Kirchhoff sums: sum over spanning forests T of the product
  of the lengths outside T, as a product of Laplacian determinants.

Run ``python3 bench/oracle.py`` to test the oracle against closed forms.
"""

from __future__ import annotations

from fractions import Fraction


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def components(vertices, edges) -> list[list]:
    uf = UnionFind(vertices)
    for _, u, v in edges:
        uf.union(u, v)
    groups: dict = {}
    for v in vertices:
        groups.setdefault(uf.find(v), []).append(v)
    return list(groups.values())


def genus(vertices, edges) -> int:
    """First Betti number |E| - |V| + c."""
    return len(edges) - len(vertices) + len(components(vertices, edges))


def is_spanning_forest(vertices, edges, chosen) -> bool:
    """True if the chosen edge ids form a spanning forest of the graph."""
    ends = {eid: (u, v) for eid, u, v in edges}
    uf = UnionFind(vertices)
    for eid in chosen:
        if eid not in ends or not uf.union(*ends[eid]):
            return False
    return len(chosen) == len(vertices) - len(components(vertices, edges))


def _laplacian(comp, edges, weight) -> tuple[list[list[Fraction]], dict]:
    # Laplacian of one component with its last vertex grounded; loops drop out.
    index = {v: i for i, v in enumerate(comp[:-1])}
    n = len(index)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for eid, u, v in edges:
        if u == v:
            continue
        w = weight(eid)
        for a, b in ((u, v), (v, u)):
            if a in index:
                lap[index[a]][index[a]] += w
                if b in index:
                    lap[index[a]][index[b]] -= w
    return lap, index


def determinant(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by rational Gaussian elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                for j in range(c, n):
                    a[i][j] -= f * a[c][j]
    return det


def inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse by rational Gauss-Jordan elimination."""
    n = len(rows)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def _component_edges(vertices, edges):
    for comp in components(vertices, edges):
        members = set(comp)
        yield comp, [e for e in edges if e[1] in members]


def canonical_measure(vertices, edges, lengths) -> dict[str, Fraction]:
    """mu(e) = 1 - R_eff(e) / length(e), per connected component."""
    mu: dict[str, Fraction] = {}
    for comp, comp_edges in _component_edges(vertices, edges):
        lap, index = _laplacian(comp, comp_edges, lambda e: 1 / Fraction(lengths[e]))
        x = inverse(lap) if lap else []

        def entry(a, b):
            if a not in index or b not in index:
                return Fraction(0)
            return x[index[a]][index[b]]

        for eid, u, v in comp_edges:
            r = entry(u, u) + entry(v, v) - 2 * entry(u, v)
            mu[eid] = 1 - r / Fraction(lengths[eid])
    return mu


def kirchhoff_sum(vertices, edges, lengths=None) -> Fraction:
    """Sum over spanning forests of the product of lengths off the forest.

    With ``lengths`` None every length is 1 and the sum is the forest
    count.  By the matrix-tree theorem the sum over forests of the
    product of conductances 1/length on the forest is a product of
    grounded Laplacian determinants; multiplying by the product of all
    lengths turns it into the sum of the off-forest products.
    """
    length = (lambda e: Fraction(1)) if lengths is None else (lambda e: Fraction(lengths[e]))
    total = Fraction(1)
    for eid, _, _ in edges:
        total *= length(eid)
    for comp, comp_edges in _component_edges(vertices, edges):
        lap, _ = _laplacian(comp, comp_edges, lambda e: 1 / length(e))
        total *= determinant(lap)
    return total


def tree_count(vertices, edges) -> int:
    count = kirchhoff_sum(vertices, edges)
    assert count.denominator == 1
    return int(count)


def graded_minors(vertices, edges, layering) -> list[tuple[list, list]]:
    """Graded minor j: layer-j edges over the classes of later edges.

    Vertices of minor j are the union-find classes of the edges in
    layers after j; each layer-j edge joins the classes of its ends.
    """
    layer_of = {eid: j for j, part in enumerate(layering) for eid in part}
    minors = []
    for j in range(len(layering)):
        uf = UnionFind(vertices)
        for eid, u, v in edges:
            if layer_of[eid] > j:
                uf.union(u, v)
        minor_vertices = sorted({uf.find(v) for v in vertices})
        minor_edges = [
            (eid, uf.find(u), uf.find(v)) for eid, u, v in edges if layer_of[eid] == j
        ]
        minors.append((minor_vertices, minor_edges))
    return minors


def tropical_measure(vertices, edges, layering, coords) -> dict[str, Fraction]:
    """Canonical measure of each graded minor at the given coordinates."""
    mu: dict[str, Fraction] = {}
    for minor_vertices, minor_edges in graded_minors(vertices, edges, layering):
        mu.update(canonical_measure(minor_vertices, minor_edges, coords))
    return mu


def self_check() -> None:
    # Cycle: mu(e) = l(e) / sum(l).
    lengths = {"a": Fraction(1, 3), "b": Fraction(2), "c": Fraction(5, 7), "d": Fraction(1)}
    ring = [("a", 0, 1), ("b", 1, 2), ("c", 2, 3), ("d", 3, 0)]
    total = sum(lengths.values())
    assert canonical_measure(range(4), ring, lengths) == {e: x / total for e, x in lengths.items()}

    # Banana: mu(e_i) = 1 - 1 / (l_i * sum_j 1/l_j).
    lengths = {f"e{i}": Fraction(i + 1, 3) for i in range(5)}
    banana = [(e, "u", "v") for e in lengths]
    inv_sum = sum(1 / x for x in lengths.values())
    want = {e: 1 - 1 / (x * inv_sum) for e, x in lengths.items()}
    assert canonical_measure(["u", "v"], banana, lengths) == want

    # Unit-length K_n: mu = 1 - 2/n.
    for n in range(2, 8):
        kn = [(f"{i}-{j}", i, j) for i in range(n) for j in range(i + 1, n)]
        mu = canonical_measure(range(n), kn, {e: 1 for e, _, _ in kn})
        assert set(mu.values()) == {1 - Fraction(2, n)}, n

    # Grid tree counts.
    for (rows, cols), count in {(3, 3): 192, (3, 4): 2415, (4, 4): 100352}.items():
        verts = [(r, c) for r in range(rows) for c in range(cols)]
        grid = [
            (f"{r},{c}>{dr}", (r, c), (r + dr, c + 1 - dr))
            for r, c in verts
            for dr in (0, 1)
            if r + dr < rows and c + 1 - dr < cols
        ]
        assert tree_count(verts, grid) == count, (rows, cols)

    # A loop has mass 1, a bridge mass 0; the layered minors split the genus.
    lolli = [("loop", 0, 0), ("stick", 0, 1)]
    assert canonical_measure([0, 1], lolli, {"loop": 3, "stick": 2}) == {"loop": 1, "stick": 0}
    theta = [("e1", "u", "v"), ("e2", "u", "v"), ("e3", "u", "v")]
    minors = graded_minors(["u", "v"], theta, [["e1"], ["e2", "e3"]])
    assert [genus(*m) for m in minors] == [1, 1]


if __name__ == "__main__":
    self_check()
    print("oracle closed-form checks passed")
