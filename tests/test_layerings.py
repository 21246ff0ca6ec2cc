import dataclasses
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import (
    AugmentedGraph,
    LayeringError,
    OrderedPartition,
    admissible_cycle_basis,
    graded_minors,
    graph_genus,
    layered_spanning_trees,
    refines,
    spanning_trees,
    to_filtration,
)
from canmeas.corpus import random_graph, random_layering
from canmeas.gallery import theta_graph, triangle_graph
from canmeas.graphs import (
    CycleVector,
    canonical_spanning_forest,
    cycle_boundary,
    edge_adjacency,
    fundamental_cycles,
    search_forest,
)

seeds = st.integers(min_value=0, max_value=10**9)

THETA_SPLIT = OrderedPartition(parts=(frozenset({"e1"}), frozenset({"e2", "e3"})))


def p(*parts):
    return OrderedPartition(parts=tuple(frozenset(x) for x in parts))


def contract_edge(g, edge_id):
    """g with one edge contracted, and where each vertex goes.

    A loop raises the genus of its vertex by one.  Any other edge merges
    its ends into the smaller one, which takes the other's genus and
    marks.
    """
    u, v = g.ends(edge_id)
    rest = tuple((eid, uv) for eid, uv in g.edges if eid != edge_id)
    if u == v:
        genus = dict(g.genus)
        genus[u] += 1
        return AugmentedGraph(g.vertices, rest, genus, g.marks), {w: w for w in g.vertices}
    keep, gone = sorted((u, v))
    vmap = {w: keep if w == gone else w for w in g.vertices}
    genus = {w: gw for w, gw in g.genus.items() if w != gone}
    genus[keep] += g.genus[gone]
    contracted = AugmentedGraph(
        vertices=tuple(w for w in g.vertices if w != gone),
        edges=tuple((eid, (vmap[a], vmap[b])) for eid, (a, b) in rest),
        genus=genus,
        marks={label: vmap[w] for label, w in g.marks.items()},
    )
    return contracted, vmap


def contraction_minors(g, q):
    """(minor, vertex map) per layer: drop the earlier layers, then
    contract the later edges one at a time in ascending id order."""
    out = []
    for j, part in enumerate(q.parts):
        later = sorted(frozenset().union(*q.parts[j + 1 :]))
        kept = tuple((eid, uv) for eid, uv in g.edges if eid in part or eid in later)
        minor = AugmentedGraph(g.vertices, kept, g.genus, g.marks)
        vmap = {w: w for w in g.vertices}
        for eid in later:
            minor, step = contract_edge(minor, eid)
            vmap = {w: step[vmap[w]] for w in vmap}
        out.append((minor, vmap))
    return out


def decorated_graph(rng):
    """A random multigraph with vertex genera, up to two added loops, up
    to three marks, and its first edge renamed to the empty id."""
    g = random_graph(rng, max_vertices=7, max_edges=12)
    loops = tuple((f"loop{k}", (rng.choice(g.vertices),) * 2) for k in range(rng.randint(0, 2)))
    edges = tuple(("" if eid == "e0" else eid, uv) for eid, uv in g.edges + loops)
    marks = {f"p{k}": rng.choice(g.vertices) for k in range(rng.randint(0, 3))}
    return AugmentedGraph(vertices=g.vertices, edges=edges, genus=g.genus, marks=marks)


def residual_lift(report):
    """The admissible basis by residual propagation, block by block.

    Each minor cycle, read as a chain in g, has its boundary pushed from
    the leaves of each fiber's search tree to the root, one forest edge
    at a time, until only the roots could hold any.
    """
    g, p = report.graph, report.layering
    blocks = []
    for j, minor in enumerate(report.minors):
        later = frozenset().union(*p.parts[j + 1 :])
        children = edge_adjacency(g, canonical_spanning_forest(g, later))
        fibers = [list(search_forest(children, [root]).items())[::-1] for root in minor.vertices]
        lifted = []
        for gamma in fundamental_cycles(minor):
            coeffs = dict(gamma.coeffs)
            residual = cycle_boundary(g, gamma)
            for tree in fibers:
                for w, (eid, par) in tree[:-1]:
                    s = residual[w]
                    tail, _ = g.ends(eid)
                    coeffs[eid] = coeffs.get(eid, 0) + (s if tail == w else -s)
                    residual[par] += s
                    residual[w] = 0
                assert residual[tree[-1][0]] == 0
            lifted.append(CycleVector(coeffs))
        blocks.append(tuple(lifted))
    return tuple(blocks)


class TestOrderedPartition:
    def test_empty_partition_allowed(self):
        assert len(OrderedPartition(parts=())) == 0

    def test_empty_part_rejected(self):
        with pytest.raises(LayeringError):
            p({"a"}, set())

    def test_overlap_rejected(self):
        with pytest.raises(LayeringError):
            p({"a", "b"}, {"b"})

    def test_layer_of(self):
        q = p({"a"}, {"b", "c"})
        assert q.layer_of("c") == 1
        with pytest.raises(LayeringError):
            q.layer_of("z")


class TestFiltrationOrder:
    def test_filtration_accumulates(self):
        q = p({"a"}, {"b"}, {"c"})
        assert to_filtration(q) == (
            frozenset({"a"}),
            frozenset({"a", "b"}),
            frozenset({"a", "b", "c"}),
        )

    def test_splitting_a_part_refines(self):
        coarse = p({"a", "b", "c"})
        fine = p({"a"}, {"b", "c"})
        assert refines(fine, coarse)
        assert not refines(coarse, fine)

    def test_reordering_does_not_refine(self):
        assert not refines(p({"b"}, {"a"}), p({"a"}, {"b"}))

    def test_reflexive(self):
        q = p({"a"}, {"b"})
        assert refines(q, q)

    def test_ground_sets_must_match(self):
        with pytest.raises(LayeringError):
            refines(p({"a"}), p({"b"}))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_every_layering_refines_the_trivial_one(self, seed):
        g = random_graph(Random(seed), max_vertices=6, max_edges=9)
        q = random_layering(Random(seed + 1), g)
        if g.edge_ids:
            assert refines(q, OrderedPartition((frozenset(g.edge_ids),)))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_refinement_is_transitive_along_merges(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        q = random_layering(rng, g)
        if len(q) < 2:
            return
        cut = rng.randint(1, len(q) - 1)
        merged_part = frozenset().union(*q.parts[cut - 1 : cut + 1])
        merged = OrderedPartition(
            parts=q.parts[: cut - 1] + (merged_part,) + q.parts[cut + 1 :]
        )
        assert refines(q, merged)


class TestGradedMinors:
    def test_theta_split(self):
        report = graded_minors(theta_graph(), THETA_SPLIT)
        assert report.genus_vector == (1, 1)
        first, second = report.minors
        assert first.edge_ids == ("e1",)
        assert len(first.vertices) == 1
        assert first.ends("e1")[0] == first.ends("e1")[1]
        assert second.edge_ids == ("e2", "e3")
        assert len(second.vertices) == 2

    def test_triangle_split(self):
        report = graded_minors(
            triangle_graph(), p({"e1"}, {"e2", "e3"})
        )
        assert report.genus_vector == (1, 0)
        loop, path = report.minors
        tail, head = loop.ends("e1")
        assert tail == head
        assert sorted(path.vertices) == ["v1", "v2", "v3"]

    def test_vertex_maps_point_into_minor(self):
        report = graded_minors(theta_graph(), THETA_SPLIT)
        for j, minor in enumerate(report.minors):
            for v in theta_graph().vertices:
                assert report.vertex_maps[j][v] in minor.vertices

    def test_contraction_folds_genus_into_minor(self):
        # Contracting the two parallel later edges merges the endpoints
        # (genera 1 + 2) and then collapses the surviving loop, which
        # adds one more: the cycle it carried moves into vertex genus.
        g = theta_graph(genus=(1, 2))
        report = graded_minors(g, THETA_SPLIT)
        assert sum(report.minors[0].genus.values()) == 4
        from canmeas import total_genus

        assert total_genus(report.minors[0]) == total_genus(g)

    def test_matches_edge_by_edge_contraction(self):
        for seed in range(300):
            rng = Random(seed)
            g = decorated_graph(rng)
            q = random_layering(rng, g)
            report = graded_minors(g, q)
            want = contraction_minors(g, q)
            assert list(zip(report.minors, report.vertex_maps)) == want, seed
            assert report.genus_vector == tuple(graph_genus(m) for m, _ in want), seed

    def test_partition_must_cover(self):
        with pytest.raises(LayeringError):
            graded_minors(theta_graph(), p({"e1"}))
        with pytest.raises(LayeringError):
            graded_minors(theta_graph(), p({"e1", "e2", "e3"}, {"zz"}))

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_genus_decomposes_over_layers(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        q = random_layering(rng, g)
        assert sum(graded_minors(g, q).genus_vector) == graph_genus(g)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_minor_edge_set_is_its_layer(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        q = random_layering(rng, g)
        report = graded_minors(g, q)
        for j, minor in enumerate(report.minors):
            assert frozenset(minor.edge_ids) == q.parts[j]


class TestLayeredTrees:
    def test_theta_split_trees(self):
        got = [tuple(sorted(t)) for t in layered_spanning_trees(graded_minors(theta_graph(), THETA_SPLIT))]
        assert got == [("e2",), ("e3",)]

    def test_triangle_split_trees(self):
        got = [
            tuple(sorted(t))
            for t in layered_spanning_trees(graded_minors(triangle_graph(), p({"e1"}, {"e2", "e3"})))
        ]
        assert got == [("e2", "e3")]

    def test_trivial_layering_gives_all_trees(self):
        g = theta_graph()
        trivial = OrderedPartition((frozenset(g.edge_ids),))
        assert layered_spanning_trees(graded_minors(g, trivial)) == spanning_trees(g)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_count_is_product_over_minors(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        q = random_layering(rng, g)
        layered = layered_spanning_trees(graded_minors(g, q))
        product = 1
        for minor in graded_minors(g, q).minors:
            product *= len(spanning_trees(minor))
        assert len(layered) == product

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_layered_trees_are_spanning_trees(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        q = random_layering(rng, g)
        everything = set(spanning_trees(g))
        for t in layered_spanning_trees(graded_minors(g, q)):
            assert t in everything

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_nontree_edges_per_layer_match_genus_vector(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        q = random_layering(rng, g)
        vector = graded_minors(g, q).genus_vector
        for t in layered_spanning_trees(graded_minors(g, q)):
            for j, part in enumerate(q.parts):
                assert len(part - t) == vector[j]


class TestAdmissibleBasis:
    def test_theta_split_basis(self):
        basis = admissible_cycle_basis(graded_minors(theta_graph(), THETA_SPLIT))
        assert basis.block_sizes == (1, 1)
        assert [c.coeffs for c in basis.flat] == [
            {"e1": 1, "e2": -1},
            {"e2": -1, "e3": 1},
        ]

    def test_block_sizes_match_genus_vector(self):
        g = theta_graph()
        basis = admissible_cycle_basis(graded_minors(g, THETA_SPLIT))
        assert basis.block_sizes == graded_minors(g, THETA_SPLIT).genus_vector

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_lifted_cycles_close_up_and_stay_late(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        q = random_layering(rng, g)
        basis = admissible_cycle_basis(graded_minors(g, q))
        assert basis.block_sizes == graded_minors(g, q).genus_vector
        for j, block in enumerate(basis.blocks):
            allowed = frozenset().union(frozenset(), *q.parts[j:])
            for c in block:
                assert c.support <= allowed
                assert all(x == 0 for x in cycle_boundary(g, c).values())

    def test_matches_residual_propagation(self):
        # Loops, parallel edges, vertex genera, marks and the empty edge id,
        # in up to four layers.  On a forest one chain cancels a given
        # boundary, so any correct routing gives the same coefficients.
        checked = 0
        for seed in range(300):
            rng = Random(seed)
            g = decorated_graph(rng)
            report = graded_minors(g, random_layering(rng, g))
            got = admissible_cycle_basis(report)
            assert [[c.coeffs for c in b] for b in got.blocks] == [
                [c.coeffs for c in b] for b in residual_lift(report)
            ], seed
            checked += len(report.minors) > 1 and any(got.block_sizes[1:])
        assert checked > 100

    def test_inconsistent_report_does_not_lift(self):
        # A minor whose edges do not join the fibers of their ends in g:
        # e2 and e3 run from u to v in the theta graph, loops here.
        report = graded_minors(theta_graph(), THETA_SPLIT)
        loops = AugmentedGraph(vertices=("u", "v"), edges=(("e2", ("u", "u")), ("e3", ("u", "u"))))
        bad = dataclasses.replace(report, minors=(report.minors[0], loops))
        with pytest.raises(LayeringError, match="does not lift"):
            admissible_cycle_basis(bad)

    def test_empty_edge_id_lifts(self):
        g = AugmentedGraph(
            vertices=("a", "b", "c"),
            edges=(("", ("a", "b")), ("x", ("b", "c")), ("y", ("a", "c")), ("z", ("a", "c"))),
        )
        q = p({"", "y", "z"}, {"x"})
        basis = admissible_cycle_basis(graded_minors(g, q))
        assert basis.block_sizes == graded_minors(g, q).genus_vector
        for c in basis.flat:
            assert all(x == 0 for x in cycle_boundary(g, c).values())

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_restriction_to_own_layer_is_minor_basis(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        q = random_layering(rng, g)
        basis = admissible_cycle_basis(graded_minors(g, q))
        report = graded_minors(g, q)
        from canmeas.graphs import fundamental_cycles

        for j, block in enumerate(basis.blocks):
            want = [c.coeffs for c in fundamental_cycles(report.minors[j])]
            got = [{e: x for e, x in c.coeffs.items() if e in q.parts[j]} for c in block]
            assert got == want
