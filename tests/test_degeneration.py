import gc
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import (
    CROSS_LAYER,
    WITHIN_LAYER,
    AugmentedGraph,
    FamilyError,
    InvalidGraph,
    LengthFamily,
    NormalizedTestFunction,
    OrderedPartition,
    ScaleFunction,
    all_tree_limits,
    canonical_spanning_forest,
    check_convergence,
    continuity_probe,
    foster_by_matrix,
    foster_by_trees,
    geometric_grid,
    graded_minors,
    integrate,
    layered_tree_weight,
    limit_foster,
    load_document,
    omega_infinity,
    spanning_trees,
    tropical_canonical_measure,
)
from canmeas.corpus import (
    layered_family,
    normalized_coordinates,
    random_family,
    random_graph,
    random_layering,
)
from canmeas.degeneration import _tree_limit, layered_tree_weights, tree_limits
from canmeas.families import product, ratio_limit
from canmeas.gallery import theta_family, theta_graph, triangle_family
from canmeas.graphs import forest_masks

seeds = st.integers(min_value=0, max_value=10**9)

# The 3x3 grid with a loop at one corner, in three layers.
LAYERED_GRID = Path(__file__).parent / "fixtures" / "layered_grid.json"

F = Fraction


def reference_tree_limit(f, tree):
    # The full product of the off-tree lengths against the full
    # rescaling prod_j layer_total(j)^h_j, as omega_infinity once
    # computed it before reading leading terms only.
    numerator = product(f.param_lengths[e] for e in f.graph.edge_ids if e not in tree)
    genus_vector = graded_minors(f.graph, f.target_layering).genus_vector
    denominator = product(
        f.layer_total(j) for j, h in enumerate(genus_vector) for _ in range(h)
    )
    return ratio_limit(numerator, denominator)


def multi_term_family(rng, g):
    """Layer j leads at t^(2j - 3), so early layers grow as t -> 0, and
    every edge may carry up to two higher-order terms."""
    p = random_layering(rng, g)
    coords = normalized_coordinates(rng, p)
    lengths = {}
    for j, part in enumerate(p.parts):
        lead = 2 * j - 3
        scale = F(rng.randint(1, 5), rng.randint(1, 5))
        for e in part:
            terms = [(lead, scale * coords[e])]
            terms += [
                (lead + rng.randint(1, 4), F(rng.randint(1, 9), rng.randint(1, 9)))
                for _ in range(rng.randint(0, 2))
            ]
            lengths[e] = ScaleFunction(terms=tuple(terms))
    return LengthFamily(
        graph=g, param_lengths=lengths, target_layering=p, target_point=coords
    )


class TestLengthFamily:
    def test_must_cover_edges(self):
        power = ScaleFunction.power(0, F(1, 3))
        every = {"e1": power, "e2": power, "e3": power}
        point = {"e1": F(1, 3), "e2": F(1, 3), "e3": F(1, 3)}
        whole = OrderedPartition((frozenset({"e1", "e2", "e3"}),))
        for lengths, layering, message in (
            ({"e1": ScaleFunction.power(0, 1)}, whole, "length family must cover"),
            (every, OrderedPartition((frozenset({"e1", "e2"}),)), "target layering must cover"),
            ({**every, "e3": F(1, 3)}, whole, "^edge 'e3' needs a scale function$"),
        ):
            with pytest.raises(FamilyError, match=message):
                LengthFamily(
                    graph=theta_graph(),
                    param_lengths=lengths,
                    target_layering=layering,
                    target_point=point,
                )

    def test_target_must_be_interior(self):
        with pytest.raises(FamilyError, match="positive"):
            LengthFamily(
                graph=theta_graph(),
                param_lengths={
                    "e1": ScaleFunction.power(0, 1),
                    "e2": ScaleFunction.power(1),
                    "e3": ScaleFunction.power(1),
                },
                target_layering=OrderedPartition(
                    parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
                ),
                target_point={"e1": F(1), "e2": F(0), "e3": F(1)},
            )

    def test_layer_sums_must_be_one(self):
        with pytest.raises(FamilyError, match="sum"):
            LengthFamily(
                graph=theta_graph(),
                param_lengths={
                    "e1": ScaleFunction.power(0, 1),
                    "e2": ScaleFunction.power(1),
                    "e3": ScaleFunction.power(1),
                },
                target_layering=OrderedPartition(
                    parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
                ),
                target_point={"e1": F(1), "e2": F(1, 2), "e3": F(1, 3)},
            )

    def test_lengths_at(self):
        f = theta_family()
        t = F(1, 10)
        assert {e: F(*fn.evaluate_pair(t)) for e, fn in f.param_lengths.items()} == {
            "e1": F(1),
            "e2": F(1, 20),
            "e3": F(1, 20),
        }
        assert f.layer_total(1).terms == ((1, F(1)),)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_layer_total_adds_coefficients_per_exponent(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=5, max_edges=7)
        if not g.edge_ids:
            return
        f = multi_term_family(rng, g)
        for j, part in enumerate(f.target_layering.parts):
            want = {}
            for e in part:
                for k, c in f.param_lengths[e].terms:
                    want[k] = want.get(k, 0) + c
            assert f.layer_total(j).terms == tuple(sorted(want.items()))

    def test_growing_lengths_are_allowed(self):
        f = LengthFamily(
            graph=theta_graph(),
            param_lengths={
                "e1": ScaleFunction.power(-2),
                "e2": ScaleFunction.power(-1, F(1, 2)),
                "e3": ScaleFunction.power(-1, F(1, 2)),
            },
            target_layering=OrderedPartition(
                parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
            ),
            target_point={"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)},
        )
        assert check_convergence(f).ok


class TestConvergenceConditions:
    def test_gallery_families_converge(self):
        assert check_convergence(theta_family()).ok
        assert check_convergence(triangle_family()).ok

    def test_wrong_ratio_within_a_layer(self):
        f = LengthFamily(
            graph=theta_graph(),
            param_lengths={
                "e1": ScaleFunction.power(0, 1),
                "e2": ScaleFunction.power(1, F(1, 3)),
                "e3": ScaleFunction.power(1, F(1, 2)),
            },
            target_layering=OrderedPartition(
                parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
            ),
            target_point={"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)},
        )
        diag = check_convergence(f)
        assert not diag.ok
        assert {fail.condition for fail in diag.failures} == {WITHIN_LAYER}
        assert {fail.edges for fail in diag.failures} == {("e2",), ("e3",)}

    def test_layer_that_fails_to_shrink(self):
        f = LengthFamily(
            graph=theta_graph(),
            param_lengths={
                "e1": ScaleFunction.power(0, 1),
                "e2": ScaleFunction.power(0, F(1, 2)),
                "e3": ScaleFunction.power(0, F(1, 2)),
            },
            target_layering=OrderedPartition(
                parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
            ),
            target_point={"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)},
        )
        diag = check_convergence(f)
        assert not diag.ok
        assert {fail.condition for fail in diag.failures} == {CROSS_LAYER}
        assert ("e1", "e2") in {fail.edges for fail in diag.failures}

    def test_refusal_names_the_condition(self):
        f = LengthFamily(
            graph=theta_graph(),
            param_lengths={
                "e1": ScaleFunction.power(0, 1),
                "e2": ScaleFunction.power(0, F(1, 2)),
                "e3": ScaleFunction.power(0, F(1, 2)),
            },
            target_layering=OrderedPartition(
                parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
            ),
            target_point={"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)},
        )
        with pytest.raises(FamilyError, match=CROSS_LAYER):
            limit_foster(f, geometric_grid(1, 2))
        with pytest.raises(FamilyError, match=CROSS_LAYER):
            omega_infinity(f, spanning_trees(f.graph)[0])
        with pytest.raises(FamilyError, match=CROSS_LAYER):
            all_tree_limits(f)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_corpus_families_converge_by_construction(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=8)
        if not g.edge_ids:
            return
        assert check_convergence(random_family(rng, g)).ok


class TestTreeWeightLimits:
    def test_theta_limits(self):
        limits = all_tree_limits(theta_family())
        assert limits == {
            frozenset({"e1"}): F(0),
            frozenset({"e2"}): F(1, 2),
            frozenset({"e3"}): F(1, 2),
        }

    def test_triangle_limits(self):
        limits = all_tree_limits(triangle_family())
        assert limits == {
            frozenset({"e1", "e2"}): F(0),
            frozenset({"e1", "e3"}): F(0),
            frozenset({"e2", "e3"}): F(1),
        }

    def test_multi_term_and_growing_lengths(self):
        f = LengthFamily(
            graph=theta_graph(),
            param_lengths={
                "e1": ScaleFunction(terms=((-2, F(1)), (0, F(3)))),
                "e2": ScaleFunction(terms=((-1, F(1, 2)), (1, F(1)))),
                "e3": ScaleFunction(terms=((-1, F(1, 2)), (3, F(5)))),
            },
            target_layering=OrderedPartition(
                parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
            ),
            target_point={"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)},
        )
        limits = all_tree_limits(f)
        assert limits == {
            frozenset({"e1"}): F(0),
            frozenset({"e2"}): F(1, 2),
            frozenset({"e3"}): F(1, 2),
        }
        for tree in spanning_trees(f.graph):
            assert limits[tree] == reference_tree_limit(f, tree)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_leading_terms_match_the_full_products(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=5, max_edges=7)
        if not g.edge_ids:
            return
        p = random_layering(rng, g)
        families = [
            layered_family(g, p, normalized_coordinates(rng, p)),
            multi_term_family(rng, g),
        ]
        for f in families:
            trees = spanning_trees(g)
            expected = {t: reference_tree_limit(f, t) for t in trees}
            limits = all_tree_limits(f)
            assert set(limits) == set(trees)
            assert limits == expected
            assert omega_infinity(f, trees[0]) == expected[trees[0]]
            assert expected == {t: layered_tree_weight(f, t) for t in trees}

    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_limits_past_bit_63(self, seed):
        # A cycle with up to two short chords and maybe a loop, 65 to 120
        # edges at genus at most 3, in two layers: masks past bit 63.
        rng = Random(seed)
        # A span of 0 is the loop.
        spans = [rng.randint(1, 8) for _ in range(rng.randint(0, 2))] + [0] * rng.randint(0, 1)
        n = rng.randint(65, 120) - len(spans)
        ends = [(i, (i + 1) % n) for i in range(n)]
        for span in spans:
            start = rng.randrange(n)
            ends.append((start, (start + span) % n))
        ids = [f"e{k:03d}" for k in range(len(ends))]
        rng.shuffle(ids)
        g = AugmentedGraph(
            vertices=tuple(f"v{i:03d}" for i in range(n)),
            edges=tuple((e, (f"v{a:03d}", f"v{b:03d}")) for e, (a, b) in zip(ids, ends)),
        )
        # The ids are shuffled, so a cut in id order splits the edges at random.
        order = sorted(ids)
        cut = rng.randint(1, len(order) - 1)
        p = OrderedPartition(parts=(frozenset(order[:cut]), frozenset(order[cut:])))
        f = layered_family(g, p, normalized_coordinates(rng, p))
        trees = spanning_trees(g)
        limits = all_tree_limits(f)
        assert list(limits) == trees
        for tree in trees[:: max(1, len(trees) // 25)]:
            assert limits[tree] == reference_tree_limit(f, tree)
        # The weights edge by edge: the off-tree edges of each layer,
        # counted, against the minors' genera.
        genus = list(graded_minors(g, p).genus_vector)

        def by_edges(tree):
            off, weight = [0] * len(genus), F(1)
            for e in g.edge_ids:
                if e not in tree:
                    off[p.layer_of(e)] += 1
                    weight *= f.target_point[e]
            return weight if off == genus else F(0)

        # The weights are keyed by the masks that spanning_trees decodes.
        masks = forest_masks(g)
        weights = layered_tree_weights(f, masks)
        assert list(weights) == masks and tree_limits(f) == weights
        assert dict(zip(trees, weights.values())) == {t: by_edges(t) for t in trees}
        assert limits == dict(zip(trees, weights.values()))

    def test_non_tree_rejected(self):
        with pytest.raises(InvalidGraph):
            omega_infinity(theta_family(), frozenset({"e1", "e2"}))
        with pytest.raises(InvalidGraph):
            layered_tree_weight(theta_family(), frozenset())

    def test_right_size_non_forest_rejected(self):
        f = load_document(str(LAYERED_GRID)).length_family()
        trees = set(spanning_trees(f.graph))
        first = canonical_spanning_forest(f.graph)
        some_edge = min(first)
        with_cycle = next(
            frozenset(c)
            for c in combinations(sorted(set(f.graph.edge_ids) - {"l22"}), len(first))
            if frozenset(c) not in trees
        )
        for bad in (with_cycle, first - {some_edge} | {"l22"}, first - {some_edge} | {"zz"}):
            assert len(bad) == len(first)
            with pytest.raises(InvalidGraph):
                omega_infinity(f, bad)
            with pytest.raises(InvalidGraph):
                layered_tree_weight(f, bad)

    def test_divergent_ratio_raises(self):
        # Off the tree (the mask of its off-tree edges), t^0 against a
        # denominator at t^1: the ratio grows.
        with pytest.raises(FamilyError, match="diverges"):
            _tree_limit([(0, 1, 1)], 0b1, (1, F(1)))
        assert _tree_limit([(2, 1, 1)], 0b1, (1, F(1))) == 0
        # Edges e and f at bits 0 and 1; the tree {f} leaves e off.
        terms = [(1, 3, 4), (0, 9, 1)]
        assert _tree_limit(terms, 0b01, (1, F(1, 2))) == F(3, 2)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_limits_come_in_enumeration_order(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        if not g.edge_ids:
            return
        f = random_family(rng, g)
        assert list(all_tree_limits(f)) == spanning_trees(g)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_limit_equals_layered_weight(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=5, max_edges=7)
        if not g.edge_ids:
            return
        f = random_family(rng, g)
        for tree in spanning_trees(g):
            assert omega_infinity(f, tree) == layered_tree_weight(f, tree)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_limits_sum_to_product_of_layer_totals(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=5, max_edges=7)
        if not g.edge_ids:
            return
        f = random_family(rng, g)
        from canmeas import graded_minors

        total = sum(all_tree_limits(f).values(), F(0))
        product = F(1)
        for minor in graded_minors(g, f.target_layering).minors:
            layer_sum = F(0)
            for t in spanning_trees(minor):
                w = F(1)
                for e in minor.edge_ids:
                    if e not in t:
                        w *= f.target_point[e]
                layer_sum += w
            product *= layer_sum
        assert total == product


class TestForestTest:
    def test_layered_tree_weights_rejects_non_forests(self):
        # The two single-tree entry points validate the tree; the batch
        # takes the masks forest_masks lists as they are.
        g = AugmentedGraph(
            vertices=("d", "b", "c", "a"),
            edges=(
                ("e1", ("d", "a")),
                ("e2", ("a", "b")),
                ("e3", ("b", "c")),
                ("e4", ("c", "d")),
                ("e5", ("b", "d")),
                ("e6", ("c", "c")),
            ),
        )
        p = OrderedPartition(parts=(frozenset({"e1", "e2", "e5"}), frozenset({"e3", "e4", "e6"})))
        third = F(1, 3)
        point = {"e1": F(1, 2), "e2": F(1, 4), "e5": F(1, 4), "e3": third, "e4": third, "e6": third}
        f = layered_family(g, p, point)
        masks = forest_masks(g)
        assert len(masks) == 8
        assert set(layered_tree_weights(f, masks)) == set(masks)
        for bad in (
            frozenset({"e1", "e2", "zz"}),  # an unknown id
            frozenset({"e1", "e2"}),  # too few edges
            frozenset({"e1", "e2", "e3", "e4"}),  # too many edges
            frozenset({"e1", "e2", "e5"}),  # the cycle d-a-b-d
            frozenset({"e1", "e2", "e6"}),  # a loop
        ):
            for single in (layered_tree_weight, omega_infinity):
                with pytest.raises(InvalidGraph, match="not a spanning forest"):
                    single(f, bad)


def test_tree_route_leaves_no_reference_cycles():
    # Reference cycles outlive their last use until the cyclic collector
    # runs; with it off, each call must leave nothing for it to find.
    f = load_document(str(LAYERED_GRID)).length_family()
    masks = forest_masks(f.graph)
    calls = {
        "spanning_trees": lambda: spanning_trees(f.graph),
        "all_tree_limits": lambda: all_tree_limits(f),
        "tree_limits": lambda: tree_limits(f),
        "layered_tree_weights": lambda: layered_tree_weights(f, masks),
    }
    for call in calls.values():
        call()
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


class TestMeasureTrajectories:
    def test_triangle_closed_form(self):
        report = limit_foster(triangle_family(), geometric_grid(1, 4))
        for t, val in zip(report.grid, report.trajectories["e1"]):
            assert val == 1 / (1 + t)
        assert report.targets == {"e1": F(1), "e2": F(0), "e3": F(0)}
        assert report.monotone

    def test_theta_closed_form(self):
        x2 = F(1, 3)
        x3 = F(2, 3)
        report = limit_foster(theta_family(x2, x3), geometric_grid(1, 4))
        for t, val in zip(report.grid, report.trajectories["e2"]):
            assert val == x2 * (1 + x3 * t) / (1 + x2 * x3 * t)
        assert report.targets["e2"] == x2
        assert report.final_deviation == report.max_deviations[-1]

    def test_targets_match_tropical_measure(self):
        f = theta_family()
        report = limit_foster(f, geometric_grid(1, 2))
        mu = tropical_canonical_measure(f.target_curve)
        assert report.targets == mu.edge_coeffs

    def test_masses_stay_at_genus(self):
        report = limit_foster(theta_family(), geometric_grid(1, 3))
        assert report.edge_masses == (F(2), F(2), F(2))

    def test_grid_validation(self):
        f = theta_family()
        with pytest.raises(FamilyError):
            limit_foster(f, [])
        with pytest.raises(FamilyError):
            limit_foster(f, [F(1, 10), F(1, 10)])
        with pytest.raises(FamilyError):
            limit_foster(f, [F(-1, 10)])

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_random_families_approach_their_targets(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=5, max_edges=7)
        if not g.edge_ids:
            return
        f = random_family(rng, g)
        report = limit_foster(f, geometric_grid(1, 5))
        assert report.max_deviations[-1] <= report.max_deviations[0]
        assert report.max_deviations[-1] < F(1, 1000)


    def test_fibres_match_the_matrix_route_point_by_point(self):
        # limit_foster builds the cycle space once per family and keeps its
        # bookkeeping in integers; at each point it must equal the matrix
        # route on the fibre, and the Fraction arithmetic of that measure.
        # 2/3 makes length pairs that need reducing.
        grid = (F(2, 3), F(1, 10), F(1, 1000))
        checked = 0
        for seed in range(120):
            rng = Random(seed)
            g = random_graph(rng, max_vertices=6, max_edges=9)
            if not g.edge_ids:
                continue
            f = random_family(rng, g)
            report = limit_foster(f, grid)
            target = tropical_canonical_measure(f.target_curve).edge_coeffs
            assert report.targets == target
            for i, t in enumerate(grid):
                lengths = {e: F(*fn.evaluate_pair(t)) for e, fn in f.param_lengths.items()}
                assert f.integer_lengths_at(t) == {
                    e: (x.numerator, x.denominator) for e, x in lengths.items()
                }
                mu = foster_by_matrix(f.metric_at(t)).edge_coeffs
                assert {e: v[i] for e, v in report.trajectories.items()} == mu
                deviations = [abs(mu[e] - target[e]) for e in g.edge_ids]
                assert report.max_deviations[i] == max(deviations)
                assert report.edge_masses[i] == sum(mu.values(), F(0))
            checked += 1
        assert checked >= 100

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_fibres_match_the_tree_route(self, seed):
        from canmeas.corpus import random_test_function

        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        if not g.edge_ids:
            return
        f = random_family(rng, g)
        fn = random_test_function(rng, g)
        grid = geometric_grid(1, 4)
        report = limit_foster(f, grid)
        probe = continuity_probe(f, fn, grid)
        for i, t in enumerate(grid):
            m = f.metric_at(t)
            mu = foster_by_trees(m)
            assert {e: v[i] for e, v in report.trajectories.items()} == mu.edge_coeffs
            assert report.edge_masses[i] == mu.edge_mass
            assert probe.values[i] == integrate(mu, fn)


class TestContinuityProbe:
    def test_tent_on_surviving_edge(self):
        f = theta_family()
        tent = NormalizedTestFunction(
            vertex_values={"u": F(0), "v": F(0)},
            normalized_breaks={"e1": ((F(1, 2), F(1)),)},
        )
        report = continuity_probe(f, tent, geometric_grid(1, 4))
        assert report.limit == F(1, 2)
        # The probe integral is half the canonical mass of the long edge.
        foster = limit_foster(f, geometric_grid(1, 4))
        for val, mass in zip(report.values, foster.trajectories["e1"]):
            assert val == mass / 2
        assert report.final_deviation == report.deviations[-1]

    def test_linear_ramps_are_exactly_constant(self):
        # Vertex-linear functions integrate to (sum of masses) / 2, which
        # the mass identity pins to the genus at every t.
        f = theta_family()
        ramp = NormalizedTestFunction(vertex_values={"u": F(0), "v": F(1)})
        report = continuity_probe(f, ramp, geometric_grid(1, 3))
        assert report.limit == F(1)
        assert all(v == F(1) for v in report.values)
        assert all(d == 0 for d in report.deviations)

    def test_breaks_must_be_interior(self):
        with pytest.raises(FamilyError):
            NormalizedTestFunction(
                vertex_values={"u": F(0)},
                normalized_breaks={"e1": ((F(1), F(2)),)},
            )

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_random_probes_converge(self, seed):
        from canmeas.corpus import random_test_function

        rng = Random(seed)
        g = random_graph(rng, max_vertices=5, max_edges=7)
        if not g.edge_ids:
            return
        f = random_family(rng, g)
        fn = random_test_function(rng, g)
        report = continuity_probe(f, fn, geometric_grid(2, 5))
        assert report.deviations[-1] < F(1, 100)
