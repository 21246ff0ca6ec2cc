from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import BasisError, OrderedPartition, effective_resistance, graded_minors
from canmeas.gallery import theta_graph
from canmeas.graphs import AugmentedGraph, connected_components
from canmeas.linalg import determinant, inverse, is_positive_definite, solve

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
                solve(a, [[F(1)] * n])
            return
        columns = [[random_entry(rng, sparse) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        together = solve(a, columns)
        assert len(together) == len(columns)
        inv = inverse(a)
        for b, x in zip(columns, together):
            assert solve(a, [b]) == [x]
            assert x == [sum((inv[i][j] * b[j] for j in range(n)), F(0)) for i in range(n)]
            assert [sum((a[i][j] * x[j] for j in range(n)), F(0)) for i in range(n)] == b

    def test_pivoting_past_a_zero_diagonal(self):
        a = [[F(0), F(1)], [F(2), F(0)]]
        assert solve(a, [[F(3), F(4)], [F(0), F(0)]]) == [[F(2), F(3)], [F(0), F(0)]]

    def test_singular_matrix_raises(self):
        with pytest.raises(BasisError):
            solve([[F(1), F(2)], [F(2), F(4)]], [[F(1), F(0)]])

    def test_empty_system(self):
        assert solve([], [[], []]) == [[], []]


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
        assert is_positive_definite(a) == sylvester(a)

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
        ],
    )
    def test_small_cases(self, rows, want):
        assert is_positive_definite(rows) is want
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
