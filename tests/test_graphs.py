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
from canmeas import graphs
from canmeas.corpus import random_graph
from canmeas.gallery import theta_graph, triangle_graph
from canmeas.graphs import _reachable, cycle_boundary, forest_masks, is_spanning_forest

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

    @pytest.mark.parametrize(
        "vertices, edges, genus, marks",
        [
            (("a", "b"), (("x" * 50_000, ("a", "b")),) * 2, {}, {}),
            (("a",), (("x" * 50_000, ("a", "b")),), {}, {}),
            (("a",), (), {"x" * 50_000: 1}, {}),
            (("x" * 50_000,), (), {"x" * 50_000: -1}, {}),
            (("a",), (), {}, {"x" * 50_000: "b"}),
            (("a",), (), {}, {"p": "x" * 50_000}),
        ],
        ids=["duplicate_edge", "outside_endpoint", "unknown_genus", "negative_genus",
             "mark_label", "mark_vertex"],
    )
    def test_messages_do_not_echo_long_ids(self, vertices, edges, genus, marks):
        with pytest.raises(InvalidGraph) as raised:
            AugmentedGraph(vertices=vertices, edges=edges, genus=genus, marks=marks)
        assert len(str(raised.value)) < 200
        assert "(50000 characters)" in str(raised.value)

    def test_loop_ends(self):
        g = dumbbell()
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

    def test_loop_counts_twice(self):
        # Each end of the dumbbell has a loop and the bridge: weight 3.
        assert is_stable(dumbbell())
        loop = (("l", ("a", "a")),)
        assert not is_stable(AugmentedGraph(vertices=("a",), edges=loop))
        assert is_stable(AugmentedGraph(vertices=("a",), edges=loop, marks={"p": "a"}))
        # A loop and one more edge at a, a leaf b.
        lollipop = AugmentedGraph(vertices=("a", "b"), edges=(*loop, ("m", ("a", "b"))))
        assert not is_stable(lollipop)
        assert is_stable(AugmentedGraph(vertices=("a", "b"), edges=lollipop.edges, genus={"b": 1}))

    def test_matches_a_weight_count_per_vertex(self):
        # Random multigraphs with loops, parallel edges, genera 0-2 and
        # marks, against the half edges and marks counted vertex by vertex.
        outcomes = []
        for seed in range(300):
            rng = Random(seed)
            g = random_graph(rng, max_vertices=6, max_edges=9)
            marks = {f"p{i}": rng.choice(g.vertices) for i in range(rng.randrange(4))}
            g = AugmentedGraph(vertices=g.vertices, edges=g.edges, genus=g.genus, marks=marks)
            want = True
            for v in g.vertices:
                half_edges = sum((a == v) + (b == v) for _, (a, b) in g.edges)
                weight = half_edges + list(g.marks.values()).count(v)
                want &= weight >= {0: 3, 1: 1}.get(g.genus[v], 0)
            assert is_stable(g) == want, seed
            outcomes.append(want)
        assert 50 <= sum(outcomes) <= 250, sum(outcomes)


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


@st.composite
def long_sparse_multigraphs(draw):
    """65 to 120 edges at genus at most 3, as (vertices, [(id, tail,
    head)]), so forest masks run past bit 63 and every forest leaves out
    at most 3 edges.

    A long path, maybe closed into a cycle, with up to two short chords
    (a chord of span 1 is a parallel pair), maybe a loop, maybe a second
    component (a path or a triangle) and maybe an isolated vertex.  The
    genus budget of 3 is spent in that order; the path takes up what is
    left of the edge count.  Ids are shuffled against the path order.
    """
    budget = 3
    closed = draw(st.booleans())
    budget -= closed
    chords = draw(st.lists(st.integers(1, 8), max_size=min(2, budget)))
    budget -= len(chords)
    loop = budget > 0 and draw(st.booleans())
    budget -= loop
    extra = draw(st.sampled_from([0, 2] + [3] * (budget > 0)))
    side = [("q0", "q1"), ("q1", "q2"), ("q2", "q0")][:extra]
    m = draw(st.integers(65, 120))
    n = m - closed - len(chords) - loop - len(side) + 1
    path = [f"p{i:03d}" for i in range(n)]
    pairs = [(path[i], path[i + 1]) for i in range(n - 1)]
    if closed:
        pairs.append((path[-1], path[0]))
    for span in chords:
        start = draw(st.integers(0, n - 1 - span))
        pairs.append((path[start], path[start + span]))
    if loop:
        pairs.append((path[0], path[0]))
    pairs += side
    vertices = path + sorted({v for e in side for v in e})
    if draw(st.booleans()):
        vertices.append("lone")
    ids = draw(st.permutations([f"e{k:03d}" for k in range(len(pairs))]))
    return vertices, [(eid, u, v) for eid, (u, v) in zip(ids, pairs)]


def forests_by_cycle_rank(vertices, edges):
    """Every spanning forest, in the canonical order, as the complement
    of each set of h non-loop edges (h the genus without the loops) whose
    cycle vectors are independent over GF(2).

    The cycle vector of an edge has bit k when the edge lies on the k-th
    fundamental cycle of a union-find spanning forest.  The cycle space
    represents the dual of the graphic matroid, so the edges off a
    spanning forest are exactly those h-sets.  Like
    :func:`forests_by_brute_force` this tries every subset of one size,
    but at 2^h steps a subset, so it stays cheap on long sparse graphs.
    """
    parent = {v: v for v in vertices}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    tree, chords = [], []
    for eid, u, v in sorted(e for e in edges if e[1] != e[2]):
        a, b = root(u), root(v)
        if a == b:
            chords.append((eid, u, v))
        else:
            parent[a] = b
            tree.append((eid, u, v))
    # Each tree edge by its ends, and a breadth-first parent link and
    # depth for every vertex of the forest.
    links = {v: [] for v in vertices}
    for eid, u, v in tree:
        links[u].append((v, eid))
        links[v].append((u, eid))
    up, depth = {}, {}
    for start in vertices:
        if start in depth:
            continue
        depth[start], queue = 0, [start]
        for x in queue:
            for y, eid in links[x]:
                if y not in depth:
                    depth[y], up[y] = depth[x] + 1, (x, eid)
                    queue.append(y)
    vector = {eid: 0 for eid, _, _ in tree}
    for k, (eid, a, b) in enumerate(chords):
        vector[eid] = 1 << k
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            a, step = up[a]
            vector[step] ^= 1 << k
    ids = sorted(vector)

    def independent(chosen):
        # Grow the span of the vectors so far, 2^h sums at most.
        span = {0}
        for x in chosen:
            if x in span:
                return False
            span |= {x ^ y for y in span}
        return True

    off = [set(c) for c in combinations(ids, len(chords)) if independent([vector[e] for e in c])]
    # Complements of equal-sized sets sort in the reverse order.
    return [frozenset(ids).difference(c) for c in reversed(off)]


class TestEnumerationOracle:
    @given(split_multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_in_order(self, drawn):
        vertices, edges = drawn
        g = AugmentedGraph(
            vertices=tuple(vertices), edges=tuple((eid, (u, v)) for eid, u, v in edges)
        )
        assert spanning_trees(g) == forests_by_brute_force(vertices, edges)
        assert forests_by_cycle_rank(vertices, edges) == forests_by_brute_force(vertices, edges)

    @given(long_sparse_multigraphs())
    @settings(max_examples=8, deadline=None)
    def test_matches_the_cycle_rank_past_bit_63(self, drawn):
        # forests_by_brute_force would try C(120, 3) = 280,840 subsets
        # with a union-find each; the cycle rank tries as many at 8 steps each.
        vertices, edges = drawn
        g = AugmentedGraph(
            vertices=tuple(vertices), edges=tuple((eid, (u, v)) for eid, u, v in edges)
        )
        assert len(g.edges) >= 65 and graph_genus(g) <= 3
        assert spanning_trees(g) == forests_by_cycle_rank(vertices, edges)


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


def cycle_graph(n):
    ids = [f"v{i:04d}" for i in range(n)]
    return AugmentedGraph(
        vertices=tuple(ids),
        edges=tuple((f"e{i:04d}", (ids[i], ids[(i + 1) % n])) for i in range(n)),
    )


class TestLongCycles:
    def test_each_forest_misses_one_edge(self):
        g = cycle_graph(1200)
        trees = spanning_trees(g)
        assert len(trees) == 1200
        edges = frozenset(g.edge_ids)
        assert [sorted(edges - t) for t in trees] == [[e] for e in g.edge_ids][::-1]

    def test_bridge_tests_grow_linearly(self, monkeypatch):
        # With the forced-edge cut a cycle of n edges needs one bridge
        # test per contraction level; without it, about n^2 / 2.
        calls = []
        reachable = graphs._reachable

        def counted(*args):
            calls.append(1)
            return reachable(*args)

        monkeypatch.setattr(graphs, "_reachable", counted)
        g = cycle_graph(400)
        assert len(forest_masks(g)) == 400
        assert len(calls) <= 2 * len(g.edges)


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
