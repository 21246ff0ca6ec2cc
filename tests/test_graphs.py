from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import (
    AugmentedGraph,
    CycleVector,
    DisconnectedGraph,
    InvalidGraph,
    OrderedPartition,
    UnknownEdge,
    UnknownVertex,
    canonical_spanning_forest,
    connected_components,
    cycle_basis,
    fundamental_cycles,
    graded_minors,
    graph_genus,
    is_connected,
    is_stable,
    load_document,
    spanning_trees,
    total_genus,
    tree_count,
)
from canmeas.corpus import random_graph
from canmeas.gallery import theta_graph, triangle_graph
from canmeas.graphs import _reachable, cycle_boundary, is_spanning_forest

seeds = st.integers(min_value=0, max_value=10**9)

# The 3x3 grid with a loop at one corner, in three layers.
LAYERED_GRID = Path(__file__).parent / "fixtures" / "layered_grid.json"


def layering(*parts):
    return OrderedPartition(parts=tuple(frozenset(part) for part in parts))


def dumbbell():
    # Two loops joined by a bridge.
    return AugmentedGraph(
        vertices=("a", "b"),
        edges=(("l1", ("a", "a")), ("l2", ("b", "b")), ("m", ("a", "b"))),
    )


class TestAugmentedGraph:
    def test_vertices_and_edges_are_sorted(self):
        g = AugmentedGraph(
            vertices=("z", "a"), edges=(("e2", ("z", "a")), ("e1", ("a", "z")))
        )
        assert g.vertices == ("a", "z")
        assert g.edge_ids == ("e1", "e2")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(InvalidGraph):
            AugmentedGraph(vertices=("a", "a"), edges=())

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidGraph):
            AugmentedGraph(
                vertices=("a", "b"),
                edges=(("e", ("a", "b")), ("e", ("b", "a"))),
            )

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(InvalidGraph):
            AugmentedGraph(vertices=("a",), edges=(("e", ("a", "b")),))

    def test_genus_completed_with_zeros(self):
        g = AugmentedGraph(vertices=("a", "b"), edges=(), genus={"a": 2})
        assert g.genus == {"a": 2, "b": 0}

    def test_negative_genus_rejected(self):
        with pytest.raises(InvalidGraph):
            AugmentedGraph(vertices=("a",), edges=(), genus={"a": -1})

    def test_genus_on_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            AugmentedGraph(vertices=("a",), edges=(), genus={"b": 1})

    def test_mark_on_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertex):
            AugmentedGraph(vertices=("a",), edges=(), marks={"p": "b"})

    def test_loop_counts_twice_in_degree(self):
        g = dumbbell()
        assert g.degree("a") == 3
        tail, head = g.ends("l1")
        assert tail == head
        tail, head = g.ends("m")
        assert tail != head

    def test_unknown_edge_lookup(self):
        with pytest.raises(UnknownEdge):
            theta_graph().ends("nope")


class TestGenus:
    def test_theta(self):
        assert graph_genus(theta_graph()) == 2

    def test_triangle(self):
        assert graph_genus(triangle_graph()) == 1

    def test_dumbbell(self):
        assert graph_genus(dumbbell()) == 2

    def test_disconnected(self):
        g = AugmentedGraph(
            vertices=("a", "b", "c"), edges=(("e", ("a", "a")),)
        )
        assert len(connected_components(g)) == 3
        assert graph_genus(g) == 1

    def test_components_are_handed_out_as_new_lists(self):
        g = AugmentedGraph(vertices=("c", "a", "b"), edges=(("e", ("c", "b")),))
        parts = connected_components(g)
        assert parts == [frozenset("a"), frozenset("bc")]
        parts.clear()
        assert connected_components(g) == [frozenset("a"), frozenset("bc")]

    def test_total_genus_adds_vertex_genera(self):
        assert total_genus(theta_graph(genus=(1, 3))) == 6

    # A graded minor contracts every later layer, so minor 0 of the
    # layering (rest, {e}) is g with e contracted.
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_contraction_preserves_total_genus(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        for eid in g.edge_ids:
            rest = set(g.edge_ids) - {eid}
            if rest:
                minor = graded_minors(g, layering(rest, {eid})).minors[0]
                assert total_genus(minor) == total_genus(g)

    def test_loop_contraction_raises_vertex_genus(self):
        g = dumbbell()
        c = graded_minors(g, layering({"l2", "m"}, {"l1"})).minors[0]
        assert c.genus["a"] == 1
        assert "l1" not in c.edge_ids
        assert c.vertices == g.vertices

    def test_edge_contraction_merges_into_smaller_vertex(self):
        g = AugmentedGraph(
            vertices=("a", "b"),
            edges=(("e", ("b", "a")), ("f", ("a", "b"))),
            genus={"a": 1, "b": 2},
            marks={"p": "b"},
        )
        c = graded_minors(g, layering({"f"}, {"e"})).minors[0]
        assert c.vertices == ("a",)
        assert c.genus["a"] == 3
        assert c.marks == {"p": "a"}
        assert c.ends("f") == ("a", "a")

    def test_contract_set_composes(self):
        g = triangle_graph()
        c = graded_minors(g, layering({"e1"}, {"e2", "e3"})).minors[0]
        assert c.vertices == ("v1",)
        assert graph_genus(c) == 1


class TestStability:
    def test_theta_is_stable(self):
        assert is_stable(theta_graph())

    def test_triangle_needs_genus_or_marks(self):
        assert not is_stable(triangle_graph())
        assert is_stable(triangle_graph(genus=(1, 1, 1)))

    def test_isolated_vertex_stability_by_genus(self):
        def lone(gv, marks=()):
            return AugmentedGraph(
                vertices=("a",),
                edges=(),
                genus={"a": gv},
                marks={m: "a" for m in marks},
            )

        assert not is_stable(lone(0))
        assert not is_stable(lone(1))
        assert is_stable(lone(1, marks=("p",)))
        assert is_stable(lone(2))


class TestSpanningTrees:
    def test_theta(self):
        got = [tuple(sorted(t)) for t in spanning_trees(theta_graph())]
        assert got == [("e1",), ("e2",), ("e3",)]

    def test_triangle(self):
        got = [tuple(sorted(t)) for t in spanning_trees(triangle_graph())]
        assert got == [("e1", "e2"), ("e1", "e3"), ("e2", "e3")]

    def test_loops_never_appear(self):
        got = [tuple(sorted(t)) for t in spanning_trees(dumbbell())]
        assert got == [("m",)]

    def test_forest_per_component(self):
        g = AugmentedGraph(
            vertices=("a", "b", "c", "d"),
            edges=(
                ("e1", ("a", "b")),
                ("e2", ("a", "b")),
                ("f1", ("c", "d")),
            ),
        )
        got = [tuple(sorted(t)) for t in spanning_trees(g)]
        assert got == [("e1", "f1"), ("e2", "f1")]

    def test_canonical_forest_is_first_tree(self):
        for g in (theta_graph(), triangle_graph(), dumbbell()):
            assert canonical_spanning_forest(g) == spanning_trees(g)[0]

    def test_forests_are_sorted_edge_sets(self):
        # Edge ids given out of order: forests are frozensets of ids,
        # listed in lexicographic order of their sorted ids.
        g = AugmentedGraph(
            vertices=("x", "y", "z"),
            edges=(("c", ("z", "x")), ("b", ("x", "y")), ("a", ("y", "z"))),
        )
        trees = spanning_trees(g)
        assert all(type(t) is frozenset for t in trees)
        t = trees[0]
        assert "a" in t and "c" not in t
        assert sorted(t) == ["a", "b"]
        assert len(t) == 2
        assert [sorted(t) for t in trees] == [["a", "b"], ["a", "c"], ["b", "c"]]
        for seed in range(20):
            keys = [sorted(t) for t in spanning_trees(random_graph(Random(seed), 6, 9))]
            assert keys == sorted(keys) and len({tuple(k) for k in keys}) == len(keys)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_count_matches_laplacian_oracle(self, seed):
        g = random_graph(Random(seed), max_vertices=6, max_edges=9)
        assert len(spanning_trees(g)) == tree_count(g)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_trees_have_right_size_and_span(self, seed):
        g = random_graph(Random(seed), max_vertices=6, max_edges=9)
        want = len(g.vertices) - len(connected_components(g))
        for t in spanning_trees(g):
            assert len(t) == want
            kept = tuple((eid, uv) for eid, uv in g.edges if eid in t)
            assert is_connected(AugmentedGraph(vertices=g.vertices, edges=kept))


@st.composite
def split_multigraphs(draw):
    """A multigraph with at least two components, loops and parallel
    edges allowed, up to 10 edges, as (vertices, [(id, tail, head)]).

    Edge ids are shuffled against creation order, so id order is not the
    order in which the edges were drawn.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    blocks, start = [], 0
    for n in sizes:
        blocks.append([f"v{i}" for i in range(start, start + n)])
        start += n
    pairs = draw(
        st.lists(
            st.sampled_from(blocks).flatmap(
                lambda b: st.tuples(st.sampled_from(b), st.sampled_from(b))
            ),
            max_size=10,
        )
    )
    ids = draw(st.permutations([f"e{k:02d}" for k in range(len(pairs))]))
    vertices = [v for b in blocks for v in b]
    return vertices, [(eid, u, v) for eid, (u, v) in zip(ids, pairs)]


def forests_by_brute_force(vertices, edges):
    """Every spanning forest, from all edge subsets of size |V| - c in
    lexicographic order, kept when a union-find finds no cycle."""

    def root(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def acyclic(chosen):
        parent = {v: v for v in vertices}
        for eid in chosen:
            a, b = root(parent, ends[eid][0]), root(parent, ends[eid][1])
            if a == b:
                return False
            parent[a] = b
        return True

    ends = {eid: (u, v) for eid, u, v in edges}
    parent = {v: v for v in vertices}
    components = len(vertices)
    for _, u, v in edges:
        a, b = root(parent, u), root(parent, v)
        if a != b:
            parent[a] = b
            components -= 1
    ids = sorted(eid for eid, u, v in edges if u != v)
    return [
        frozenset(c) for c in combinations(ids, len(vertices) - components) if acyclic(c)
    ]


class TestEnumerationOracle:
    @given(split_multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_in_order(self, drawn):
        vertices, edges = drawn
        g = AugmentedGraph(
            vertices=tuple(vertices), edges=tuple((eid, (u, v)) for eid, u, v in edges)
        )
        assert spanning_trees(g) == forests_by_brute_force(vertices, edges)


def reachable_by_search(edges, source, target):
    # Breadth-first search from source over the (id, tail, head) edges.
    adjacent = {}
    for _, u, v in edges:
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    reached, frontier = {source}, [source]
    while frontier:
        frontier = [x for w in frontier for x in adjacent.get(w, ()) if x not in reached]
        reached.update(frontier)
    return target in reached


class TestReachable:
    def test_agrees_with_breadth_first_search(self):
        # Seeded multigraphs with loops, parallel edges, isolated vertices
        # and several components, in the (id, tail, head) form the
        # forest enumeration hands to _reachable.
        for seed in range(300):
            rng = Random(seed)
            vertices = [f"v{i}" for i in range(rng.randint(1, 9))]
            edges = [
                (f"e{k}", rng.choice(vertices), rng.choice(vertices))
                for k in range(rng.randint(0, 12))
            ]
            if edges:
                _, u, v = rng.choice(edges)
                edges.append(("parallel", u, v))
                edges.append(("loop", u, u))
                rng.shuffle(edges)
            for source in vertices:
                for target in vertices:
                    assert _reachable(edges, source, target) == reachable_by_search(
                        edges, source, target
                    ), (seed, source, target)

    def test_long_chains(self):
        # A path given from either end, so the union-find builds long
        # chains of parent links before it halves them.
        path = [(f"e{i}", f"v{i:03d}", f"v{i + 1:03d}") for i in range(200)]
        for edges in (path, path[::-1]):
            assert _reachable(edges, "v000", "v200")
            assert _reachable(edges[:100] + edges[101:], "v000", "v099")
            assert not _reachable(edges[:100] + edges[101:], "v000", "v200")


def grid_minors():
    doc = load_document(str(LAYERED_GRID))
    return graded_minors(doc.graph, doc.require_layering()).minors


class TestIsSpanningForest:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_enumeration(self, seed):
        # A random multigraph (random_graph's extra edges make loops) and
        # the graded minors of the layered grid, two of them disconnected.
        # The candidates: every set of the forest size, so every cycle and
        # loop of that size, and random sets one edge short or over, with
        # unknown ids.
        rng = Random(seed)
        minors = grid_minors()
        assert sum(not is_connected(m) for m in minors) == 2
        for g in (random_graph(rng, max_vertices=6, max_edges=10), *minors):
            trees = set(spanning_trees(g))
            size = len(canonical_spanning_forest(g))
            candidates = [frozenset(c) for c in combinations(g.edge_ids, size)]
            pool = list(g.edge_ids) + ["zz", "e99"]
            for _ in range(20):
                k = max(0, size + rng.choice((-1, 0, 1)))
                candidates.append(frozenset(rng.sample(pool, min(k, len(pool)))))
            assert trees <= set(candidates)
            for s in candidates:
                assert is_spanning_forest(g, s) == (s in trees), sorted(s)


class TestCycles:
    def test_theta_basis(self):
        got = [c.coeffs for c in cycle_basis(theta_graph())]
        assert got == [{"e1": -1, "e2": 1}, {"e1": -1, "e3": 1}]

    def test_triangle_basis(self):
        got = [c.coeffs for c in cycle_basis(triangle_graph())]
        assert got == [{"e1": 1, "e2": -1, "e3": 1}]

    def test_loop_is_its_own_cycle(self):
        got = [c.coeffs for c in fundamental_cycles(dumbbell())]
        assert got == [{"l1": 1}, {"l2": 1}]

    def test_disconnected_input_rejected(self):
        g = AugmentedGraph(vertices=("a", "b"), edges=())
        with pytest.raises(DisconnectedGraph):
            cycle_basis(g)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_fundamental_cycles_close_up(self, seed):
        g = random_graph(Random(seed), max_vertices=6, max_edges=9)
        cycles = fundamental_cycles(g)
        assert len(cycles) == graph_genus(g)
        for c in cycles:
            assert all(x == 0 for x in cycle_boundary(g, c).values())

    def test_empty_edge_id_is_an_edge_like_any_other(self):
        # The empty id sorts first, so it always lands in the forest.
        theta = AugmentedGraph(
            vertices=("a", "b"),
            edges=(("", ("a", "b")), ("e2", ("a", "b")), ("e3", ("a", "b"))),
        )
        got = [c.coeffs for c in cycle_basis(theta)]
        assert got == [{"": -1, "e2": 1}, {"": -1, "e3": 1}]
        square = AugmentedGraph(
            vertices=("a", "b", "c", "d"),
            edges=(("x", ("a", "b")), ("", ("b", "c")), ("y", ("c", "d")), ("z", ("a", "d"))),
        )
        got = [c.coeffs for c in cycle_basis(square)]
        assert got == [{"z": 1, "y": -1, "": -1, "x": -1}]

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_cycles_close_up_with_an_empty_edge_id(self, seed):
        g = random_graph(Random(seed), max_vertices=6, max_edges=9)
        g = AugmentedGraph(
            vertices=g.vertices,
            edges=tuple(("" if eid == "e0" else eid, uv) for eid, uv in g.edges),
            genus=g.genus,
        )
        cycles = fundamental_cycles(g)
        assert len(cycles) == graph_genus(g)
        for c in cycles:
            assert all(x == 0 for x in cycle_boundary(g, c).values())

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_each_cycle_owns_its_defining_edge(self, seed):
        g = random_graph(Random(seed), max_vertices=6, max_edges=9)
        forest = canonical_spanning_forest(g)
        defining = [e for e in g.edge_ids if e not in forest]
        cycles = fundamental_cycles(g)
        for eid, c in zip(defining, cycles):
            assert c[eid] == 1
            for other in cycles:
                if other is not c:
                    assert other[eid] == 0


class TestValueObjects:
    def test_cycle_vector_drops_zeros(self):
        c = CycleVector({"a": 0, "b": -2})
        assert c.coeffs == {"b": -2}
        assert c["a"] == 0
        assert c.support == frozenset({"b"})
