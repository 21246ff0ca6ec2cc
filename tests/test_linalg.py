from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canmeas.linalg
from canmeas import (
    BasisError,
    MetricGraph,
    OrderedPartition,
    effective_resistance,
    foster_by_projection,
    gram_matrices,
    graded_minors,
    tree_count,
)
from canmeas.gallery import theta_graph
from canmeas.corpus import random_graph, random_layering, random_metric
from canmeas.graphs import (
    AugmentedGraph,
    CycleVector,
    canonical_spanning_forest,
    connected_components,
    cycle_basis,
    fundamental_cycles,
    is_connected,
    spanning_trees,
)
from canmeas.kirchhoff import _grounded_laplacians
from canmeas.linalg import (
    _integer_rows,
    determinant,
    integer_determinant,
    inverse,
    is_positive_definite,
    projection_norms,
    selected_inverse,
    solve,
)
from canmeas.measures import CycleSpace

seeds = st.integers(min_value=0, max_value=10**9)

F = Fraction


def random_entry(rng, sparse=False):
    if sparse and rng.random() < 0.5:
        return F(0)
    return F(rng.randint(-9, 9), rng.randint(1, 7))


def random_matrix(rng, rows, cols, sparse=False):
    return [[random_entry(rng, sparse) for _ in range(cols)] for _ in range(rows)]


def matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def fraction_solve(rows, rhs):
    """Reference: pivot-and-eliminate in Fractions, then back-substitute."""
    n = len(rows)
    width = n + len(rhs)
    a = [[F(x) for x in row] + [F(col[i]) for col in rhs] for i, row in enumerate(rows)]
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            raise BasisError("matrix is singular")
        a[c], a[p] = a[p], a[c]
        pivot = a[c]
        for i in range(c + 1, n):
            row = a[i]
            if row[c] == 0:
                continue
            f = row[c] / pivot[c]
            for j in range(c, width):
                row[j] -= f * pivot[j]
    out = []
    for col in range(n, width):
        x = [F(0)] * n
        for i in range(n - 1, -1, -1):
            s = a[i][col] - sum((a[i][j] * x[j] for j in range(i + 1, n)), F(0))
            x[i] = s / a[i][i]
        out.append(x)
    return out


def scaled_rows(rows):
    """Each row times the lcm of its denominators, and those lcms."""
    scales = [lcm(*(F(x).denominator for x in row)) for row in rows]
    return [[int(F(x) * d) for x in row] for row, d in zip(rows, scales)], scales


def rational_solve(rows, rhs, factor=1):
    """linalg.solve on a rational system, each row of [A | B] scaled to
    integers by its lcm times ``factor``; the solution as Fractions."""
    n = len(rows)
    scaled, _ = scaled_rows([list(row) + [col[i] for col in rhs] for i, row in enumerate(rows)])
    scaled = [[factor * x for x in row] for row in scaled]
    columns = [[row[n + k] for row in scaled] for k in range(len(rhs))]
    ys, det = solve([row[:n] for row in scaled], columns)
    assert type(det) is int and det != 0
    assert all(type(y) is int for col in ys for y in col)
    return [[F(y, det) for y in col] for col in ys]


def fraction_inverse(rows):
    n = len(rows)
    identity = [[F(int(i == j)) for i in range(n)] for j in range(n)]
    return transpose(fraction_solve(rows, identity)) if n else []


def grid_gram(n):
    """Cycle Gram matrix of the n x n grid with lengths p/q up to 10^6."""
    name = lambda r, c: f"v{r}_{c}"
    edges = [(f"h{r}_{c}", (name(r, c), name(r, c + 1))) for r in range(n) for c in range(n - 1)]
    edges += [(f"w{r}_{c}", (name(r, c), name(r + 1, c))) for r in range(n - 1) for c in range(n)]
    vertices = tuple(name(r, c) for r in range(n) for c in range(n))
    g = AugmentedGraph(vertices=vertices, edges=tuple(edges))
    lengths = random_metric(Random(0), g, 10**6).lengths
    basis = cycle_basis(g)
    return [[sum((lengths[e] * a[e] * b[e] for e in a.support), F(0)) for b in basis] for a in basis]


def gram_of(b, n):
    """b^T b for the rows of b, n entries each: symmetric positive
    semidefinite, and definite exactly when b has rank n."""
    return [[sum((r[i] * r[j] for r in b), F(0)) for j in range(n)] for i in range(n)]


def full_pattern(n):
    return [list(range(i + 1, n)) for i in range(n)]


def sylvester(a):
    return all(
        determinant([row[:k] for row in a[:k]]) > 0 for k in range(1, len(a) + 1)
    )


class TestSolve:
    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_columns_solve_alone_and_match_the_inverse(self, seed):
        rng = Random(seed)
        n = rng.randint(1, 5)
        sparse = rng.random() < 0.5
        a = random_matrix(rng, n, n, sparse)
        if determinant(a) == 0:
            with pytest.raises(BasisError):
                rational_solve(a, [[F(1)] * n])
            return
        columns = [[random_entry(rng, sparse) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        together = rational_solve(a, columns)
        assert len(together) == len(columns)
        inv = fraction_inverse(a)
        for b, x in zip(columns, together):
            # Any nonzero row factor gives the same solution.
            assert rational_solve(a, [b], factor=rng.choice([-3, 1, 2])) == [x]
            assert x == [sum((inv[i][j] * b[j] for j in range(n)), F(0)) for i in range(n)]
            assert [sum((a[i][j] * x[j] for j in range(n)), F(0)) for i in range(n)] == b

    def test_pivoting_past_a_zero_diagonal(self):
        ys, det = solve([[0, 1], [2, 0]], [[3, 4], [0, 0]])
        assert [[F(y, det) for y in col] for col in ys] == [[2, 3], [0, 0]]

    def test_singular_matrix_raises(self):
        with pytest.raises(BasisError):
            solve([[1, 2], [2, 4]], [[1, 0]])

    def test_empty_system(self):
        assert solve([], [[], []]) == ([[], []], 1)


def huge_entry(rng, sparse=False):
    # Forty-digit numerators and denominators.
    if sparse and rng.random() < 0.5:
        return F(0)
    return F(rng.randint(-(10**40), 10**40), rng.randint(1, 10**40))


class TestAgainstFractionElimination:
    """solve and inverse equal the Fraction loops exactly, and so does
    selected_inverse on the full pattern of a symmetric positive
    semidefinite matrix.

    solve and selected_inverse get each row scaled by the lcm of its
    denominators."""

    def check(self, a, columns):
        try:
            want = fraction_solve(a, columns)
        except BasisError:
            for kernel in (inverse, lambda rows: rational_solve(rows, columns)):
                with pytest.raises(BasisError):
                    kernel(a)
            return
        assert rational_solve(a, columns) == want
        inv = inverse(a)
        assert inv == fraction_inverse(a)
        assert all(isinstance(x, Fraction) for row in inv for x in row)

    def check_symmetric(self, a):
        # W is D times the Fraction inverse, entry for entry, over the
        # final pivot D; a singular matrix raises at a zero pivot.
        n = len(a)
        try:
            want = fraction_inverse(a)
        except BasisError:
            with pytest.raises(BasisError):
                selected_inverse(*scaled_rows(a), full_pattern(n))
            return
        w, det = selected_inverse(*scaled_rows(a), full_pattern(n))
        assert type(det) is int and det > 0
        assert all(type(x) is int for row in w for x in row.values())
        assert [[w[i][j] for j in range(n)] for i in range(n)] == [
            [det * x for x in row] for row in want
        ]

    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_random_rational_systems(self, seed):
        rng = Random(seed)
        n = rng.randint(0, 6)
        sparse = rng.random() < 0.5
        entry = huge_entry if rng.random() < 0.2 else random_entry
        a = [[entry(rng, sparse) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            # A dependent row.
            k = random_entry(rng)
            a[-1] = [k * x for x in a[0]]
        columns = [[entry(rng, sparse) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        self.check(a, columns)

    @given(seeds)
    @settings(max_examples=100, deadline=None)
    def test_random_symmetric_semidefinite_matrices(self, seed):
        rng = Random(seed)
        n = rng.randint(0, 6)
        entry = huge_entry if rng.random() < 0.2 else random_entry
        # Fewer vectors than columns give a singular matrix.
        rank = rng.randint(0, n - 1) if n and rng.random() < 0.3 else n
        self.check_symmetric(gram_of([[entry(rng) for _ in range(n)] for _ in range(rank)], n))

    @pytest.mark.parametrize(
        "a",
        [
            # Zero leading pivots force row swaps.
            [[F(0), F(0), F(3)], [F(0), F(2), F(1)], [F(5), F(1), F(0)]],
            [[F(0), F(1)], [F(1, 3), F(0)]],
            # Rows with a zero in the pivot column are skipped and later
            # become pivots themselves: [0, 0, 3] waits two steps.
            [[F(2), F(1), F(0)], [F(0), F(0), F(3)], [F(0), F(5), F(1)]],
            [
                [F(3, 2), F(0), F(1), F(0)],
                [F(0), F(0), F(0), F(7, 3)],
                [F(1), F(0), F(2), F(1)],
                [F(0), F(4, 5), F(0), F(1)],
            ],
        ],
    )
    def test_structured_systems(self, a):
        rng = Random(len(a))
        columns = [[random_entry(rng, sparse=True) for _ in a] for _ in range(3)]
        self.check(a, columns)

    def test_forty_digit_entries(self):
        rng = Random(40)
        for n in (1, 3, 5):
            a = [[huge_entry(rng) for _ in range(n)] for _ in range(n)]
            columns = [[huge_entry(rng) for _ in range(n)] for _ in range(2)]
            self.check(a, columns)
            self.check_symmetric(gram_of(a, n))

    def test_empty_matrix(self):
        assert inverse([]) == []
        assert selected_inverse([], [], []) == ([], 1)
        assert determinant([]) == 1

    def test_determinant_needs_a_square_matrix(self):
        for a in ([[F(1), F(2)]], [[F(1)], [F(2)]], [[F(1), F(2)], [F(3)]]):
            with pytest.raises(BasisError, match="^matrix is not square$"):
                determinant(a)

    def test_inverse_needs_a_square_matrix(self):
        # Wide, tall and ragged: none has an inverse, and none may come
        # back as a smaller matrix or end in an IndexError.
        for a in (
            [[F(1), F(2)]],
            [[F(1), F(2), F(3)], [F(4), F(5), F(6)]],
            [[F(1)], [F(2)]],
            [[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]],
            [[F(1), F(2)], [F(3)]],
        ):
            with pytest.raises(BasisError, match="^matrix is not square$"):
                inverse(a)

    def test_singular_matrices_raise(self):
        for a in (
            [[F(1), F(2)], [F(2), F(4)]],
            [[F(0)]],
            [[F(1), F(0), F(1)], [F(0), F(0), F(0)], [F(2), F(3), F(5)]],
        ):
            self.check(a, [[F(1)] * len(a)])
        for a in (
            [[F(0)]],
            # A zero first pivot, and a zero last one.
            [[F(0), F(0)], [F(0), F(1, 3)]],
            [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]],
            gram_of([[F(1), F(2, 3), F(0)], [F(0), F(5), F(-1, 7)]], 3),
        ):
            with pytest.raises(BasisError):
                selected_inverse(*scaled_rows(a), full_pattern(len(a)))


def quadratic_form(inv, c):
    """c^T inv c for c given as its (i, c_i) pairs."""
    return sum((a * inv[i][j] * b for i, a in c for j, b in c), F(0))


def random_support(rng, n):
    """One to four ascending indices below n, each with a coefficient of
    +-1 or +-2."""
    indices = sorted(rng.sample(range(n), rng.randint(1, min(n, 4))))
    return [(i, rng.choice([-2, -1, 1, 2])) for i in indices]


def own_scales(rng, a):
    """S A and S for A with rational entries: each row times the lcm of
    its denominators and a positive factor of its own."""
    rows, scales = scaled_rows(a)
    factors = [rng.randint(1, 5) for _ in a]
    scaled = [[f * x for x in row] for f, row in zip(factors, rows)]
    return scaled, [f * s for f, s in zip(factors, scales)]


class TestProjectionNorms:
    """projection_norms gives c^T A^-1 c as N / D, with D the final pivot,
    equal to the Fraction inverse read at c: on symmetric positive
    definite Gram-type matrices of side 0-8 with small entries, or 0-6
    with forty-digit ones, each row on a scale of its own, at vectors
    of one to four entries +-1 or +-2."""

    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_inverse(self, seed):
        rng = Random(seed)
        entry = huge_entry if rng.random() < 0.2 else random_entry
        # The Fraction reference takes seconds on 8x8 forty-digit Gram
        # matrices, so those stop at 6x6.
        n = rng.randint(0, 8 if entry is random_entry else 6)
        # Sparse vectors leave zeros for the elimination to skip, and may
        # make the matrix singular.
        sparse = rng.random() < 0.5
        b = [[entry(rng, sparse) for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
        a = gram_of(b, n)
        rows, scales = own_scales(rng, a)
        vectors = [random_support(rng, n) for _ in range(rng.randint(0, 5))] if n else []
        try:
            inv = fraction_inverse(a)
        except BasisError:
            # A singular Gram matrix: semidefinite, so some pivot is 0.
            with pytest.raises(BasisError):
                projection_norms(rows, scales, vectors)
            return
        norms, det = projection_norms(rows, scales, vectors)
        assert type(det) is int and det == integer_determinant(rows) > 0
        assert all(type(x) is int for x in norms)
        assert [F(x, det) for x in norms] == [quadratic_form(inv, c) for c in vectors]

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_singular_semidefinite_matrices_raise(self, seed):
        rng = Random(seed)
        entry = huge_entry if rng.random() < 0.2 else random_entry
        n = rng.randint(1, 8 if entry is random_entry else 6)
        # Fewer vectors than columns give a singular matrix.
        a = gram_of([[entry(rng) for _ in range(n)] for _ in range(rng.randint(0, n - 1))], n)
        rows, scales = own_scales(rng, a)
        with pytest.raises(BasisError):
            projection_norms(rows, scales, [random_support(rng, n)])

    def test_indefinite_and_zero_pivots_raise(self):
        for a in (
            [[F(0)]],
            [[F(-1, 2)]],
            [[F(1), F(2)], [F(2), F(1)]],
            [[F(0), F(1)], [F(1), F(0)]],
            gram_of([[F(1), F(2, 3), F(0)], [F(0), F(5), F(-1, 7)]], 3),
        ):
            with pytest.raises(BasisError):
                projection_norms(*scaled_rows(a), [[(0, 1)]])

    def test_empty_matrix(self):
        assert projection_norms([], [], []) == ([], 1)


class TestPositiveDefinite:
    @given(seeds)
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_leading_minors(self, seed):
        rng = Random(seed)
        n = rng.randint(1, 5)
        kind = rng.randrange(4)
        if kind == 0:
            # Random symmetric: mostly indefinite.
            b = random_matrix(rng, n, n, sparse=True)
            a = [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]
        elif kind == 1:
            # A Gram matrix of r vectors: semidefinite, singular when r < n.
            b = random_matrix(rng, rng.randint(1, n), n)
            a = matmul(transpose(b), b)
        elif kind == 2:
            # A Gram matrix of n vectors plus a positive diagonal: definite.
            b = random_matrix(rng, n, n)
            a = matmul(transpose(b), b)
            for i in range(n):
                a[i][i] += F(1, rng.randint(1, 9))
        else:
            # Rows and columns 0 and 1 equal: the second leading minor
            # vanishes (on a 1x1 matrix, the first).
            b = random_matrix(rng, n, n)
            a = matmul(transpose(b), b)
            if n == 1:
                a[0][0] = F(0)
            else:
                for row in a:
                    row[1] = row[0]
                a[1] = list(a[0])
        # Positive row scales keep the sign of every leading minor.
        assert is_positive_definite(_integer_rows(a)[0]) == sylvester(a)

    @pytest.mark.parametrize(
        "rows, want",
        [
            ([], True),
            ([[F(1, 3)]], True),
            ([[F(0)]], False),
            ([[F(-2)]], False),
            ([[F(0), F(1)], [F(1), F(0)]], False),
            ([[F(2), F(1)], [F(1), F(1, 2)]], False),
            ([[F(2), F(1)], [F(1), F(2, 3)]], True),
            ([[F(1), F(1), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]], False),
            ([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(-1, 7)]], False),
            (grid_gram(6), True),
        ],
    )
    def test_small_cases(self, rows, want):
        assert is_positive_definite(_integer_rows(rows)[0]) is want
        assert sylvester(rows) is want


class TestEffectiveResistance:
    def test_loop_has_no_resistance(self):
        g = AugmentedGraph(
            vertices=("a", "b"), edges=(("l", ("a", "a")), ("m", ("a", "b")))
        )
        assert effective_resistance(g, {"l": F(3), "m": F(7)}) == {"l": F(0), "m": F(7)}

    def test_parallel_edges_conduct_together(self):
        # Conductances 1, 2 and 2 in parallel: resistance 1/5 on every edge.
        lengths = {"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)}
        assert effective_resistance(theta_graph(), lengths) == {
            "e1": F(1, 5),
            "e2": F(1, 5),
            "e3": F(1, 5),
        }

    def test_tree_edges_carry_their_whole_length(self):
        g = AugmentedGraph(
            vertices=("a", "b", "c", "d"),
            edges=(("x", ("a", "b")), ("y", ("b", "c")), ("z", ("b", "d"))),
        )
        lengths = {"x": F(2), "y": F(3, 4), "z": F(5)}
        assert effective_resistance(g, lengths) == lengths

    def test_disconnected_graded_minor(self):
        # The last layer of a bridge between two digons is the two digons
        # alone: two components, each a pair of parallel edges.
        g = AugmentedGraph(
            vertices=("a", "b", "c", "d"),
            edges=(
                ("f1", ("a", "b")),
                ("f2", ("a", "b")),
                ("x", ("b", "c")),
                ("g1", ("c", "d")),
                ("g2", ("d", "c")),
            ),
        )
        layering = OrderedPartition(parts=(frozenset({"x"}), frozenset({"f1", "f2", "g1", "g2"})))
        minor = graded_minors(g, layering).minors[1]
        assert len(connected_components(minor)) == 2
        lengths = {"f1": F(1, 2), "f2": F(1, 3), "g1": F(1, 7), "g2": F(1, 7)}
        got = effective_resistance(minor, lengths)
        assert got == {"f1": F(1, 5), "f2": F(1, 5), "g1": F(1, 14), "g2": F(1, 14)}


def graph_of(pairs):
    """The graph on the vertices of ``pairs``, one edge per pair."""
    return AugmentedGraph(
        vertices=tuple(sorted({v for pair in pairs for v in pair})),
        edges=tuple((f"e{k:04d}", pair) for k, pair in enumerate(pairs)),
    )


def complete_pairs(n, tag="v"):
    return [(f"{tag}{i:02d}", f"{tag}{j:02d}") for i in range(n) for j in range(i + 1, n)]


def cycle_pairs(n, tag="c"):
    return [(f"{tag}{i:03d}", f"{tag}{(i + 1) % n:03d}") for i in range(n)]


def necklace_pairs(k):
    """k copies of K4, each joined to the next by a bridge, with a loop at
    every other K4."""
    pairs = []
    for b in range(k):
        pairs += complete_pairs(4, f"k{b:03d}_")
        if b:
            pairs.append((f"k{b - 1:03d}_03", f"k{b:03d}_00"))
        if b % 2:
            pairs.append((f"k{b:03d}_01", f"k{b:03d}_01"))
    return pairs


class TestTreeCount:
    """The matrix-tree count against closed forms that share no code with
    it."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 40])
    def test_complete_graphs_follow_cayley(self, n):
        assert tree_count(graph_of(complete_pairs(n))) == n ** (n - 2)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 6), (2, 3), (3, 3), (4, 7), (6, 9)])
    def test_complete_bipartite_graphs(self, m, n):
        pairs = [(f"a{i}", f"b{j}") for i in range(m) for j in range(n)]
        assert tree_count(graph_of(pairs)) == m ** (n - 1) * n ** (m - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 101])
    def test_cycles(self, n):
        assert tree_count(graph_of(cycle_pairs(n))) == n

    @pytest.mark.parametrize("k", [1, 2, 7, 50])
    def test_bananas(self, k):
        assert tree_count(graph_of([("u", "v")] * k)) == k

    @pytest.mark.parametrize("k", [1, 2, 9, 120])
    def test_necklaces_of_k4(self, k):
        assert tree_count(graph_of(necklace_pairs(k))) == 16**k

    def test_counts_of_a_disjoint_union_multiply(self):
        pairs = complete_pairs(6) + cycle_pairs(7) + [("u", "w")] * 3 + necklace_pairs(3)
        g = graph_of(pairs)
        g = AugmentedGraph(vertices=g.vertices + ("z",), edges=g.edges)
        assert len(connected_components(g)) == 5
        assert tree_count(g) == 6**4 * 7 * 3 * 16**3


def reference_masses(g, lengths):
    """mu(e) = length(e) c(e)^T G^-1 c(e) over the fundamental cycles, and
    the Gram matrix G, by Fraction elimination."""
    basis = fundamental_cycles(g)
    gram = [
        [sum((lengths[e] * a[e] * b[e] for e in a.support), F(0)) for b in basis] for a in basis
    ]
    coeffs = {e: [gamma[e] for gamma in basis] for e in g.edge_ids}
    solutions = fraction_solve(gram, list(coeffs.values()))
    mu = {
        e: lengths[e] * sum((c * x for c, x in zip(coeffs[e], xs)), F(0))
        for e, xs in zip(coeffs, solutions)
    }
    return mu, basis, gram


def reference_resistance(g, lengths):
    """Potential differences of unit currents in the grounded Laplacian of
    each component, by Fraction elimination; a loop gets zero."""
    out = {e: F(0) for e in g.edge_ids}
    for comp in connected_components(g):
        index = {v: i for i, v in enumerate(sorted(comp))}
        n = len(index) - 1  # the grounded vertex has index n
        lap = [[F(0)] * (n + 1) for _ in range(n + 1)]
        edges = [(e, index[u], index[v]) for e, (u, v) in g.edges if u in comp and u != v]
        for e, i, j in edges:
            c = 1 / lengths[e]
            lap[i][i] += c
            lap[j][j] += c
            lap[i][j] -= c
            lap[j][i] -= c
        columns = [[int(k == i) - int(k == j) for k in range(n)] for _, i, j in edges]
        for (e, i, j), x in zip(edges, fraction_solve([row[:n] for row in lap[:n]], columns)):
            x.append(F(0))
            out[e] = x[i] - x[j]
    return out


def small_lengths(rng, layer_of):
    return {e: F(rng.randint(1, 12), rng.randint(1, 12)) for e in layer_of}


def layered_lengths(rng, layer_of):
    # A grid point of a limit family: layer j shrinks like 10^(-6j).
    return {
        e: F(rng.randint(1, 12), rng.randint(1, 12) * 10 ** (6 * j)) for e, j in layer_of.items()
    }


def huge_lengths(rng, layer_of):
    # Numerators near 10^30: the resistance oracle's row scales are lcms
    # of length numerators.
    return {e: F(10**30 + rng.randint(-(10**6), 10**6), rng.randint(1, 12)) for e in layer_of}


def multigraphs_minors_and_trees(rng, regime):
    """A random multigraph with loops, its graded minors under a random
    layering of up to four layers (often disconnected), and its canonical
    spanning forest, with lengths on its edges drawn by ``regime``."""
    g = random_graph(rng, max_vertices=6, max_edges=10)
    graphs = [g]
    layer_of = {}
    if g.edges:
        layering = random_layering(rng, g)
        layer_of = {e: j for j, part in enumerate(layering.parts) for e in part}
        graphs += graded_minors(g, layering).minors
    forest = canonical_spanning_forest(g)
    graphs.append(
        AugmentedGraph(vertices=g.vertices, edges=tuple(x for x in g.edges if x[0] in forest))
    )
    return graphs, regime(rng, layer_of)


def edge_column_resistance(g, lengths):
    """The resistance oracle with one unit-current column per non-loop
    edge u-v, sent as s_u e_u - s_v e_v through the scaled grounded
    Laplacian: each resistance is the potential difference it produces.
    The Laplacian's rows come from the diagonal on; entry (j, i) of T L is
    entry (i, j) times t_j / t_i."""
    out = dict.fromkeys(g.edge_ids, F(0))
    for rows, scales, edges in _grounded_laplacians(
        g, lambda e: (lengths[e].denominator, lengths[e].numerator)
    ):
        n = len(rows)
        grounded = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                grounded[i][j] = x
                grounded[j][i] = x * scales[j] // scales[i]
        columns = []
        for _, i, j in edges:
            col = [0] * (n + 1)
            col[i], col[j] = scales[i], -scales[j]
            columns.append(col[:n])
        ys, det = solve(grounded, columns)
        for (e, i, j), y in zip(edges, ys):
            y.append(0)
            out[e] = F(y[i] - y[j], det)
    return out


class TestKernelsAgainstFractionElimination:
    """The matrix route's masses, the projection route and the resistance
    oracle, all computed in integers with per-row scales, equal Fraction
    elimination exactly: on random multigraphs with loops, on their
    graded minors (often disconnected) under up to four layers, and on
    spanning trees (h = 0)."""

    @pytest.mark.parametrize("regime", [small_lengths, layered_lengths, huge_lengths])
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_random_multigraphs_minors_and_trees(self, regime, seed):
        graphs, lengths = multigraphs_minors_and_trees(Random(seed), regime)
        for h in graphs:
            restricted = {e: lengths[e] for e in h.edge_ids}
            m = MetricGraph(h, restricted)
            mu, basis, gram = reference_masses(h, restricted)
            resistance = reference_resistance(h, restricted)
            assert CycleSpace.of(h).masses(m.integer_lengths) == mu
            assert effective_resistance(h, restricted) == resistance
            assert gram_matrices(m, basis) == gram
            if is_connected(h):
                assert foster_by_projection(m).edge_coeffs == mu
            for e in h.edge_ids:
                assert mu[e] == 1 - resistance[e] / restricted[e], e


def full_inverse_forms(space, lengths):
    """The edge forms of :meth:`CycleSpace.forms` from the whole inverse
    of the Gram matrix, by :func:`solve` on the identity under the row
    scales: an elimination that :func:`selected_inverse` does not share.
    A Gram matrix has positive leading minors, so solve swaps no rows
    and ends on the same pivot D."""
    rows, scales = space.gram(lengths)
    identity = [[s if i == j else 0 for i, s in enumerate(scales)] for j in range(len(rows))]
    ys, det = solve(rows, identity)
    forms = []
    for e in space.edge_ids:
        c = space.support.get(e, ())
        forms.append(sum(ys[j][i] * a * b for i, a in c for j, b in c))
    return forms, det


class TestSelectedGramInverse:
    """:meth:`CycleSpace.forms` inverts the Gram matrix only on the filled
    pattern of the cycles that meet, and gives the same integers and the
    same denominator as the whole inverse."""

    @pytest.mark.parametrize("regime", [small_lengths, layered_lengths, huge_lengths])
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_equals_the_whole_inverse(self, regime, seed):
        graphs, lengths = multigraphs_minors_and_trees(Random(seed), regime)
        for h in graphs:
            integer = {e: (lengths[e].numerator, lengths[e].denominator) for e in h.edge_ids}
            space = CycleSpace.of(h)
            assert space.forms(integer) == full_inverse_forms(space, integer)
            basis = fundamental_cycles(h)
            if basis:
                # The first cycle twice: a dependent family.
                dependent = CycleSpace(h.edge_ids, basis + [CycleVector(basis[0].coeffs)])
                with pytest.raises(BasisError):
                    dependent.forms(integer)

    def test_meeting_cycles_with_a_zero_gram_entry(self):
        # A = e1 - e2 and B = e1 + e2 + f + g share e1 and e2 with opposite
        # signs, so at equal lengths their Gram entry cancels to 0; C = f - g
        # meets B.  The pattern must still pair A with B.
        g = AugmentedGraph(
            vertices=("u", "v"),
            edges=(("e1", ("u", "v")), ("e2", ("u", "v")), ("f", ("v", "u")), ("g", ("v", "u"))),
        )
        basis = [
            CycleVector({"e1": 1, "e2": -1}),
            CycleVector({"e1": 1, "e2": 1, "f": 1, "g": 1}),
            CycleVector({"f": 1, "g": -1}),
        ]
        space = CycleSpace(g.edge_ids, basis)
        cases = (
            {"e1": (1, 1), "e2": (1, 1), "f": (2, 1), "g": (3, 1)},
            {"e1": (5, 7), "e2": (5, 7), "f": (4, 3), "g": (4, 3)},
        )
        for lengths in cases:
            rows, _ = space.gram(lengths)
            assert rows[0][1] == rows[1][0] == 0
            assert space.forms(lengths) == full_inverse_forms(space, lengths)
            m = MetricGraph(g, {e: F(p, q) for e, (p, q) in lengths.items()})
            assert space.masses(lengths) == foster_by_projection(m).edge_coeffs
        with pytest.raises(BasisError):
            CycleSpace(g.edge_ids, basis + [CycleVector({"e1": 2, "f": 1, "g": 1})]).forms(lengths)


class TestResistanceFromTheGroundedInverse:
    """The resistance oracle reads each component's grounded inverse on
    the pattern its elimination fills, with an elimination of its own: it
    gives the same Fractions as one unit-current column per edge, solved
    by :func:`canmeas.linalg.solve`.  The tree count reads the last pivot
    of that elimination and equals the number of forests listed.  Neither
    calls anything in ``canmeas.linalg``, so the oracles share no code
    with the routes they check."""

    @pytest.mark.parametrize("regime", [small_lengths, layered_lengths, huge_lengths])
    def test_unit_columns_match_edge_columns(self, regime, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Laplacian oracles must not call canmeas.linalg")

        kernels = [
            name
            for name, value in vars(canmeas.linalg).items()
            if callable(value) and getattr(value, "__module__", None) == "canmeas.linalg"
        ]
        assert {
            "solve",
            "selected_inverse",
            "projection_norms",
            "integer_determinant",
            "is_positive_definite",
        } <= set(kernels)
        loops = split = 0
        for seed in range(30):
            graphs, lengths = multigraphs_minors_and_trees(Random(seed), regime)
            for h in graphs:
                restricted = {e: lengths[e] for e in h.edge_ids}
                want = edge_column_resistance(h, restricted)
                forests = len(spanning_trees(h))
                with monkeypatch.context() as patch:
                    for name in kernels:
                        patch.setattr(canmeas.linalg, name, refuse)
                    assert effective_resistance(h, restricted) == want, seed
                    assert tree_count(h) == forests, seed
                loops += any(u == v for _, (u, v) in h.edges)
                split += sum(len(c) > 1 for c in connected_components(h)) > 1
        assert loops and split
