from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import (
    BasisError,
    DisconnectedGraph,
    EdgeMeasure,
    InvalidGraph,
    LayeringError,
    MetricGraph,
    NormalizedTestFunction,
    OrderedPartition,
    InvalidTestFunction,
    TropicalCurve,
    UnknownEdge,
    continuity_probe,
    cycle_basis,
    effective_resistance,
    foster_by_matrix,
    foster_by_projection,
    foster_by_trees,
    geometric_grid,
    gram_matrices,
    graph_genus,
    integrate,
    mass_digits,
    total_genus,
    tropical_canonical_measure,
)
from canmeas import linalg
from canmeas.cli import _foster_mass
from canmeas.corpus import (
    layered_family,
    normalized_coordinates,
    random_family,
    random_graph,
    random_layering,
    random_metric,
    random_rational,
    random_test_function,
)
from canmeas.degeneration import limit_foster
from canmeas.gallery import theta_graph, triangle_graph
from canmeas.graphs import AugmentedGraph, CycleVector, spanning_trees
from canmeas.layerings import graded_minors

seeds = st.integers(min_value=0, max_value=10**9)

F = Fraction


def theta_metric():
    return MetricGraph(theta_graph(), {"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)})


def rename_e0_to_empty(g):
    edges = tuple(("" if eid == "e0" else eid, uv) for eid, uv in g.edges)
    return AugmentedGraph(vertices=g.vertices, edges=edges, genus=g.genus)


class TestMetricGraph:
    def test_lengths_must_cover_edges(self):
        with pytest.raises(InvalidGraph):
            MetricGraph(theta_graph(), {"e1": F(1)})
        with pytest.raises(UnknownEdge, match="^length given for unknown edge 'x'$"):
            MetricGraph(theta_graph(), {"e1": F(1), "e2": F(1), "e3": F(1), "x": F(1)})

    def test_lengths_must_be_positive(self):
        for bad in (F(0), F(-1, 3), -2):
            with pytest.raises(InvalidGraph, match="^edge 'e2' has nonpositive length$"):
                MetricGraph(theta_graph(), {"e1": F(1), "e2": bad, "e3": F(1)})
        assert MetricGraph(theta_graph(), {"e1": 1, "e2": F(1, 10**9), "e3": 1})

    def test_scaled(self):
        m = theta_metric().scaled(F(2))
        assert m.length("e2") == F(1)
        with pytest.raises(InvalidGraph):
            theta_metric().scaled(F(-1))


class TestCanonicalMeasure:
    def test_theta_by_all_routes(self):
        m = theta_metric()
        want = {"e1": F(4, 5), "e2": F(3, 5), "e3": F(3, 5)}
        for route in (foster_by_trees, foster_by_projection, foster_by_matrix):
            assert route(m).edge_coeffs == want

    def test_triangle(self):
        m = MetricGraph(triangle_graph(), {"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)})
        # A cycle's edge masses are proportional to the lengths.
        assert foster_by_trees(m).edge_coeffs == {
            "e1": F(1, 2),
            "e2": F(1, 4),
            "e3": F(1, 4),
        }

    def test_bridge_carries_no_mass(self):
        g = AugmentedGraph(
            vertices=("a", "b"),
            edges=(("l", ("a", "a")), ("m", ("a", "b"))),
        )
        mu = foster_by_trees(MetricGraph(g, {"l": F(3), "m": F(7)}))
        assert mu.edge_coeffs == {"l": F(1), "m": F(0)}

    def test_tree_graph_measure_vanishes(self):
        g = AugmentedGraph(vertices=("a", "b"), edges=(("m", ("a", "b")),))
        m = MetricGraph(g, {"m": F(5)})
        for route in (foster_by_trees, foster_by_projection, foster_by_matrix):
            assert route(m).edge_coeffs == {"m": F(0)}

    def test_disconnected_rejected(self):
        g = AugmentedGraph(
            vertices=("a", "b", "c"), edges=(("e", ("a", "b")),)
        )
        for route in (foster_by_trees, foster_by_projection, foster_by_matrix):
            with pytest.raises(DisconnectedGraph):
                route(MetricGraph(g, {"e": F(1)}))
        curve = TropicalCurve(g, {"e": F(1)}, OrderedPartition((frozenset({"e"}),)))
        with pytest.raises(DisconnectedGraph):
            tropical_canonical_measure(curve)

    def test_atoms_come_from_vertex_genus(self):
        m = MetricGraph(
            theta_graph(genus=(2, 0)), {"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)}
        )
        mu = foster_by_trees(m)
        assert mu.vertex_atoms == {"u": 2, "v": 0}
        assert mu.total_mass == mu.edge_mass + 2

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_three_routes_agree(self, seed):
        rng = Random(seed)
        m = random_metric(rng, random_graph(rng, max_vertices=6, max_edges=9))
        a = foster_by_trees(m).edge_coeffs
        assert foster_by_projection(m).edge_coeffs == a
        assert foster_by_matrix(m).edge_coeffs == a

    def test_empty_edge_id_on_all_routes(self):
        g = AugmentedGraph(
            vertices=("u", "v"),
            edges=(("", ("u", "v")), ("e2", ("u", "v")), ("e3", ("u", "v"))),
        )
        m = MetricGraph(g, {"": F(1), "e2": F(1, 2), "e3": F(1, 2)})
        want = {"": F(4, 5), "e2": F(3, 5), "e3": F(3, 5)}
        for route in (foster_by_trees, foster_by_projection, foster_by_matrix):
            assert route(m).edge_coeffs == want

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_three_routes_agree_with_an_empty_edge_id(self, seed):
        rng = Random(seed)
        g = rename_e0_to_empty(random_graph(rng, max_vertices=6, max_edges=9))
        m = random_metric(rng, g)
        a = foster_by_trees(m).edge_coeffs
        assert foster_by_projection(m).edge_coeffs == a
        assert foster_by_matrix(m).edge_coeffs == a

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_total_edge_mass_is_genus(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        m = random_metric(rng, g)
        assert foster_by_trees(m).edge_mass == graph_genus(g)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_resistance_identity(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        m = random_metric(rng, g)
        mu = foster_by_trees(m)
        resistance = effective_resistance(g, m.lengths)
        for e in g.edge_ids:
            drop = resistance[e] / m.lengths[e]
            assert mu.edge_coeffs[e] == 1 - drop
            # The command line builds 1 - R/l as one Fraction.
            assert _foster_mass(resistance[e], m.lengths[e]) == 1 - drop

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_rescaling_lengths_changes_nothing(self, seed):
        rng = Random(seed)
        m = random_metric(rng, random_graph(rng, max_vertices=6, max_edges=9))
        factor = random_rational(rng, 30, 30)
        assert foster_by_trees(m.scaled(factor)).edge_coeffs == foster_by_trees(m).edge_coeffs


def looped_multigraph(rng):
    """A random connected multigraph with a loop and a doubled edge."""
    g = random_graph(rng, max_vertices=6, max_edges=8)
    loop = ("loop", (rng.choice(g.vertices),) * 2)
    double = ("double", rng.choice(g.edges)[1]) if g.edges else ("double", loop[1])
    return AugmentedGraph(vertices=g.vertices, edges=g.edges + (loop, double), genus=g.genus)


def small_lengths(rng, g):
    return {e: random_rational(rng, 12, 12) for e in g.edge_ids}


def long_lengths(rng, g):
    # Numerators 10^30 +- 10^6 over distinct denominators, so the lcm L
    # of the denominators differs from each one of them.
    denominators = rng.sample(range(2, 10**6), len(g.edge_ids))
    return {
        e: F(10**30 + rng.randint(-(10**6), 10**6), q)
        for e, q in zip(g.edge_ids, denominators)
    }


class TestTreeRoute:
    """foster_by_trees sums in integers; forest_masses is the same sum in
    Fractions, term by term."""

    @pytest.mark.parametrize("lengths", [small_lengths, long_lengths])
    def test_matches_the_fraction_sum(self, lengths):
        for seed in range(40):
            rng = Random(seed)
            g = looped_multigraph(rng)
            m = MetricGraph(g, lengths(rng, g))
            mu = foster_by_trees(m)
            assert mu.edge_coeffs == forest_masses(g, m.lengths), seed
            assert mu.edge_coeffs["loop"] == 1
            factor = random_rational(rng, 10**9, 10**9)
            assert foster_by_trees(m.scaled(factor)).edge_coeffs == mu.edge_coeffs, seed


class TestMassDigits:
    """mass_digits bounds the digits of every mass from the lengths alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        max_part=st.sampled_from([1, 12, 10**6, 10**40]),
        scale=st.sampled_from([F(1), F(10**30 + 7, 3), F(2, 10**25 + 9)]),
    )
    def test_bounds_every_mass(self, seed, max_part, scale):
        rng = Random(seed)
        m = random_metric(rng, looped_multigraph(rng), max_part).scaled(scale)
        bound = mass_digits(m.graph, m.integer_lengths)
        for e, x in foster_by_matrix(m).edge_coeffs.items():
            assert len(str(x.numerator)) + len(str(x.denominator)) <= bound, e

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, closed=st.booleans(), digits=st.sampled_from([1, 40, 600]))
    def test_bounds_every_mass_of_cycles_and_trees(self, seed, closed, digits):
        # Integer lengths of up to `digits` digits on a cycle or a tree of at
        # most 11 vertices: each tree weight is a product of h <= 1 lengths
        # and tau(G) <= 2^10, so the bound stays near twice one length.
        rng = Random(seed)
        if closed:
            n = rng.randint(1, 11)
            edges = tuple((f"e{i}", (f"v{i}", f"v{(i + 1) % n}")) for i in range(n))
            g = AugmentedGraph(vertices=tuple(f"v{i}" for i in range(n)), edges=edges)
        else:
            g = random_graph(rng, max_vertices=11, max_edges=0)
        m = MetricGraph(g, {e: F(rng.randint(1, 10**digits)) for e in g.edge_ids})
        bound = mass_digits(m.graph, m.integer_lengths)
        for e, x in foster_by_matrix(m).edge_coeffs.items():
            assert len(str(x.numerator)) + len(str(x.denominator)) <= bound, e
        assert bound <= 2 * (digits + 5) if closed else bound <= 8

    def test_is_read_off_the_lengths_over_their_gcd(self):
        # Masses do not change with a common scale, and neither does the
        # bound once it is the one on the lengths over their gcd.
        g = grid_graph(3)
        rng = Random(3)
        m = MetricGraph(g, {e: F(rng.randint(1, 9)) for e in g.edge_ids} | {g.edge_ids[0]: F(1)})
        unit = mass_digits(m.graph, m.integer_lengths)
        for scale in (F(10**50 + 3, 7), F(11, 10**60 + 1)):
            scaled = m.scaled(scale)
            assert mass_digits(scaled.graph, scaled.integer_lengths) == unit


class TestEdgeMeasureValidation:
    def test_coefficients_must_lie_in_unit_interval(self):
        m = theta_metric()
        for bad in (F(2), F(4, 3), F(-1, 3), 2):
            with pytest.raises(InvalidGraph, match=f"^edge mass {bad} on 'e1' is outside"):
                EdgeMeasure(metric=m, edge_coeffs={"e1": bad, "e2": F(0), "e3": F(0)})
        mu = EdgeMeasure(metric=m, edge_coeffs={"e1": 1, "e2": F(0), "e3": F(1, 3)})
        assert mu.edge_coeffs == {"e1": 1, "e2": 0, "e3": F(1, 3)}

    def test_coefficients_must_cover_exactly_the_edges(self):
        m = theta_metric()
        for coeffs in ({"e1": F(0), "e2": F(0)}, {"e1": F(0), "e2": F(0), "e3": F(0), "x": F(0)}):
            with pytest.raises(InvalidGraph, match="cover exactly the edges"):
                EdgeMeasure(metric=m, edge_coeffs=coeffs)


class TestGramMatrix:
    def test_theta_matrix(self):
        m = theta_metric()
        gram = gram_matrices(m, cycle_basis(m.graph))
        # Cycles e2 - e1 and e3 - e1 share the edge e1.
        assert gram == [
            [F(3, 2), F(1)],
            [F(1), F(3, 2)],
        ]

    def test_edge_matrices_assemble_the_gram_matrix(self):
        m = theta_metric()
        basis = cycle_basis(m.graph)
        gram = gram_matrices(m, basis)
        h = len(basis)
        assembled = [[F(0)] * h for _ in range(h)]
        for eid in m.graph.edge_ids:
            c = [gamma[eid] for gamma in basis]
            for i in range(h):
                for j in range(h):
                    assembled[i][j] += m.lengths[eid] * c[i] * c[j]
        assert assembled == gram

    def test_dependent_cycles_rejected(self):
        m = theta_metric()
        gamma = cycle_basis(m.graph)[0]
        doubled = CycleVector({e: 2 * c for e, c in gamma.coeffs.items()})
        with pytest.raises(BasisError):
            gram_matrices(m, [gamma, doubled])

    def test_non_cycle_rejected(self):
        m = theta_metric()
        chain = CycleVector({"e1": 1})
        with pytest.raises(BasisError):
            gram_matrices(m, [chain, cycle_basis(m.graph)[0]])
        with pytest.raises(UnknownEdge, match="^cycle uses unknown edge 'x'$"):
            gram_matrices(m, [CycleVector({"x": 1})])


class TestTropical:
    def curve(self, graph=None):
        return TropicalCurve(
            graph=graph or theta_graph(),
            lengths={"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)},
            layering=OrderedPartition(
                parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
            ),
        )

    def test_layer_sums_must_be_one(self):
        with pytest.raises(LayeringError):
            TropicalCurve(
                graph=theta_graph(),
                lengths={"e1": F(1), "e2": F(1, 2), "e3": F(1, 3)},
                layering=OrderedPartition(
                    parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
                ),
            )
        with pytest.raises(LayeringError, match="cover exactly"):
            TropicalCurve(
                graph=theta_graph(),
                lengths={"e1": F(1), "e2": F(1), "e3": F(1)},
                layering=OrderedPartition(parts=(frozenset({"e1"}), frozenset({"e2"}))),
            )

    def test_theta_measure(self):
        curve = self.curve()
        mu = tropical_canonical_measure(curve)
        assert mu.edge_coeffs == {"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)}
        # The curve's metric graph is built once and shared.
        assert mu.metric is curve.metric

    def test_triangle_measure_concentrates_on_loop(self):
        curve = TropicalCurve(
            graph=triangle_graph(),
            lengths={"e1": F(1), "e2": F(1, 2), "e3": F(1, 2)},
            layering=OrderedPartition(
                parts=(frozenset({"e1"}), frozenset({"e2", "e3"}))
            ),
        )
        mu = tropical_canonical_measure(curve)
        assert mu.edge_coeffs == {"e1": F(1), "e2": F(0), "e3": F(0)}

    def test_hybrid_total_is_total_genus(self):
        curve = self.curve(theta_graph(genus=(1, 1)))
        assert tropical_canonical_measure(curve).total_mass == total_genus(curve.graph) == 4

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_tropical_mass_decomposes(self, seed):
        rng = Random(seed)
        g = random_graph(rng, max_vertices=6, max_edges=9)
        if not g.edge_ids:
            return
        q = random_layering(rng, g)
        curve = TropicalCurve(
            graph=g, lengths=normalized_coordinates(rng, q), layering=q
        )
        mu = tropical_canonical_measure(curve)
        assert mu.edge_mass == graph_genus(g)
        assert tropical_canonical_measure(curve).total_mass == total_genus(g)


def random_curve(seed, empty_id=False):
    """A seeded random tropical curve; with empty_id, edge e0 is renamed ""."""
    rng = Random(seed)
    g = random_graph(rng, max_vertices=6, max_edges=9)
    if empty_id:
        g = rename_e0_to_empty(g)
    q = random_layering(rng, g)
    return TropicalCurve(graph=g, lengths=normalized_coordinates(rng, q), layering=q)


def forest_masses(minor, lengths):
    # 1 - (weight of the spanning forests through e) / (total weight), the
    # weight of a forest being the product of the lengths it leaves out.
    total = F(0)
    inside = {e: F(0) for e in minor.edge_ids}
    for forest in spanning_trees(minor):
        weight = F(1)
        for e in minor.edge_ids:
            if e not in forest:
                weight *= lengths[e]
        total += weight
        for e in forest:
            inside[e] += weight
    return {e: 1 - inside[e] / total for e in minor.edge_ids}


def resistance_masses(minor, lengths):
    resistance = effective_resistance(minor, lengths)
    return {e: 1 - resistance[e] / lengths[e] for e in minor.edge_ids}


def minor_wise(curve, masses):
    """The tropical measure taken minor by minor with a reference formula."""
    out = {}
    for minor in graded_minors(curve.graph, curve.layering).minors:
        out.update(masses(minor, {e: curve.lengths[e] for e in minor.edge_ids}))
    return out


def grid_graph(n):
    name = lambda r, c: f"v{r}_{c}"
    vertices = tuple(name(r, c) for r in range(n) for c in range(n))
    edges = [(f"h{r}_{c}", (name(r, c), name(r, c + 1))) for r in range(n) for c in range(n - 1)]
    edges += [(f"w{r}_{c}", (name(r, c), name(r + 1, c))) for r in range(n - 1) for c in range(n)]
    return AugmentedGraph(vertices=vertices, edges=tuple(edges))


def complete_graph(n):
    vertices = tuple(f"v{i}" for i in range(n))
    edges = [(f"e{i}_{j}", (f"v{i}", f"v{j}")) for i in range(n) for j in range(i + 1, n)]
    return AugmentedGraph(vertices=vertices, edges=tuple(edges))


def multigraph_with_loops(rng):
    g = random_graph(rng, max_vertices=12, max_edges=30)
    loops = tuple((f"loop{k}", (rng.choice(g.vertices),) * 2) for k in range(2))
    return AugmentedGraph(vertices=g.vertices, edges=g.edges + loops, genus=g.genus)


def grid_family(n):
    """corpus.layered_family on the n x n grid, two thirds of it in layer 0."""
    g = grid_graph(n)
    rng = Random(0)
    ids = list(g.edge_ids)
    rng.shuffle(ids)
    cut = 2 * len(ids) // 3
    q = OrderedPartition(parts=(frozenset(ids[:cut]), frozenset(ids[cut:])))
    return layered_family(g, q, normalized_coordinates(rng, q))


class TestTropicalRoute:
    @pytest.mark.parametrize("empty_id", [False, True])
    def test_matches_forests_and_the_laplacian_oracle(self, empty_id):
        for seed in range(200):
            curve = random_curve(seed, empty_id)
            got = tropical_canonical_measure(curve).edge_coeffs
            assert got == minor_wise(curve, forest_masses), seed
            assert got == minor_wise(curve, resistance_masses), seed

    def test_target_enumerates_no_trees(self, monkeypatch):
        # Minor 0 of the 5x5 grid family has 116,975 spanning forests.
        def refuse(*args):
            raise AssertionError("the tropical target must not enumerate trees")

        # Every enumeration of forests goes through graphs._forests.
        monkeypatch.setattr("canmeas.graphs._forests", refuse)
        family = grid_family(5)
        curve = family.target_curve
        mu = tropical_canonical_measure(curve)
        assert mu.edge_coeffs == minor_wise(curve, resistance_masses)
        assert mu.edge_mass == graph_genus(family.graph) == 16
        targets = limit_foster(family, [F(1, 10), F(1, 100)]).targets
        assert targets == mu.edge_coeffs


class TestLargerGraphs:
    """The two cycle-space routes and the Laplacian oracle on graphs too
    large for tree enumeration, with lengths p/q up to 10^6, or up to 12
    on the 8x8 grid, where 10^6 costs a second or more per route.  On the
    10x10 grid (p/q up to 100) all three meet too: the matrix route and
    the oracle invert selectively, and the projection route runs one
    forward elimination, about a second there.  That grid's matrix
    masses and resistances are computed once, for both tests on it."""

    @pytest.fixture(scope="class")
    def grid10(self):
        m = random_metric(Random(0), grid_graph(10), 100)
        return m, foster_by_matrix(m).edge_coeffs, effective_resistance(m.graph, m.lengths)

    SHAPES = {
        "grid6x6": lambda rng: grid_graph(6),
        "grid8x8": lambda rng: grid_graph(8),
        "K9": lambda rng: complete_graph(9),
        "multigraph": multigraph_with_loops,
    }

    @pytest.mark.parametrize(
        "shape, seed",
        [("grid6x6", 0), ("grid8x8", 0), ("K9", 0), ("K9", 1)] + [("multigraph", seed) for seed in range(20)],
    )
    def test_routes_agree_with_the_resistance_oracle(self, shape, seed):
        rng = Random(seed)
        m = random_metric(rng, self.SHAPES[shape](rng), 12 if shape == "grid8x8" else 10**6)
        mu = foster_by_matrix(m).edge_coeffs
        assert foster_by_projection(m).edge_coeffs == mu
        resistance = effective_resistance(m.graph, m.lengths)
        for e in m.graph.edge_ids:
            assert mu[e] == 1 - resistance[e] / m.lengths[e], e
        assert sum(mu.values()) == graph_genus(m.graph)

    def test_matrix_route_agrees_with_the_oracle_on_a_10x10_grid(self, grid10):
        m, mu, resistance = grid10
        for e in m.graph.edge_ids:
            assert mu[e] == 1 - resistance[e] / m.lengths[e], e
        assert sum(mu.values()) == graph_genus(m.graph) == 81

    def test_projection_route_agrees_on_a_10x10_grid(self, grid10):
        m, mu, resistance = grid10
        projected = foster_by_projection(m).edge_coeffs
        assert projected == mu
        for e in m.graph.edge_ids:
            assert projected[e] == 1 - resistance[e] / m.lengths[e], e


class TestRouteIndependence:
    """The projection route and the matrix route share no linear algebra:
    each still runs, and they still agree exactly, when the other's
    kernel raises."""

    def test_each_route_runs_without_the_others_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a route called the other route's kernel")

        loops = 0
        for seed in range(40):
            rng = Random(seed)
            g = multigraph_with_loops(rng)
            m = random_metric(rng, g, 10**6 if seed % 2 else 12)
            mu = foster_by_matrix(m).edge_coeffs
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "selected_inverse", refuse)
                patch.setattr(linalg, "solve", refuse)
                assert foster_by_projection(m).edge_coeffs == mu, seed
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "projection_norms", refuse)
                assert foster_by_matrix(m).edge_coeffs == mu, seed
            loops += any(u == v for _, (u, v) in g.edges)
        assert loops


class TestIntegration:
    def test_constant_function_integrates_to_total_mass(self):
        m = theta_metric()
        mu = foster_by_trees(m)
        f = NormalizedTestFunction(vertex_values={"u": F(3), "v": F(3)})
        assert integrate(mu, f) == 3 * mu.total_mass

    def test_linear_ramp_uses_edge_means(self):
        g = AugmentedGraph(
            vertices=("a", "b"), edges=(("e1", ("a", "b")), ("e2", ("a", "b")))
        )
        m = MetricGraph(g, {"e1": F(1), "e2": F(1)})
        mu = foster_by_trees(m)
        f = NormalizedTestFunction(vertex_values={"a": F(0), "b": F(1)})
        # Both edges carry mass 1/2 and the average value along each is 1/2.
        assert integrate(mu, f) == F(1, 2)

    def test_breakpoints_shift_the_average(self):
        g = AugmentedGraph(vertices=("a",), edges=(("l", ("a", "a")),))
        m = MetricGraph(g, {"l": F(1)})
        mu = foster_by_trees(m)
        tent = NormalizedTestFunction(
            vertex_values={"a": F(0)},
            normalized_breaks={"l": ((F(1, 2), F(1)),)},
        )
        assert integrate(mu, tent) == F(1, 2)

    def test_atoms_sample_vertex_values(self):
        g = AugmentedGraph(vertices=("a",), edges=(("l", ("a", "a")),), genus={"a": 2})
        m = MetricGraph(g, {"l": F(1)})
        mu = foster_by_trees(m)
        f = NormalizedTestFunction(vertex_values={"a": F(5)})
        assert integrate(mu, f) == 5 * 1 + 5 * 2

    def test_breakpoints_must_increase(self):
        # Caught when the function is built, before any measure is taken.
        for breaks in (((F(1, 2), F(1)), (F(1, 4), F(2))), ((F(1, 2), F(1)), (F(1, 2), F(2)))):
            with pytest.raises(InvalidTestFunction):
                NormalizedTestFunction(vertex_values={"a": F(0)}, normalized_breaks={"l": breaks})

    def test_missing_vertex_values_fail_when_integrated(self):
        g = AugmentedGraph(
            vertices=("a", "b"), edges=(("e", ("a", "b")),), genus={"b": 1}
        )
        mu = foster_by_trees(MetricGraph(g, {"e": F(2)}))
        for values in ({"a": F(1)}, {"b": F(1)}):
            with pytest.raises(InvalidTestFunction):
                integrate(mu, NormalizedTestFunction(vertex_values=values))

    def test_breakpoints_off_the_graph_are_unknown_edges(self):
        mu = foster_by_trees(theta_metric())
        f = NormalizedTestFunction(
            vertex_values={"u": F(0), "v": F(0)}, normalized_breaks={"x": ((F(1, 2), F(1)),)}
        )
        with pytest.raises(UnknownEdge):
            integrate(mu, f)

    def test_matches_the_trapezoid_rule_at_absolute_positions(self):
        # Reference: breakpoints placed at u * length(e), trapezoid areas
        # summed and divided by length(e), plus the vertex atoms.  This is
        # the integral in absolute edge coordinates; normalized positions
        # must give it exactly, on fibres and on the tropical target.
        for seed in range(240):
            rng = Random(seed)
            g = random_graph(rng, max_vertices=6, max_edges=9)
            if not g.edge_ids:
                continue
            family = random_family(rng, g)
            fn = random_test_function(rng, g)
            grid = geometric_grid(1, 3)
            probe = continuity_probe(family, fn, grid)
            target = tropical_canonical_measure(family.target_curve)
            want_limit = _trapezoid_integral(target, fn)
            assert integrate(target, fn) == want_limit == probe.limit, seed
            for t, value in zip(grid, probe.values):
                mu = foster_by_matrix(family.metric_at(t))
                assert integrate(mu, fn) == _trapezoid_integral(mu, fn) == value, seed
            m = random_metric(rng, g)
            mu = foster_by_matrix(m)
            assert integrate(mu, fn) == _trapezoid_integral(mu, fn), seed


def _trapezoid_integral(mu, fn):
    m = mu.metric
    total = F(0)
    for eid in m.graph.edge_ids:
        u, v = m.graph.ends(eid)
        le = m.lengths[eid]
        pts = [(F(0), fn.vertex_values[u])]
        pts += [(x * le, y) for x, y in fn.normalized_breaks.get(eid, ())]
        pts.append((le, fn.vertex_values[v]))
        area = sum(((x1 - x0) * (y0 + y1) / 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:])), F(0))
        total += mu.edge_coeffs[eid] * area / le
    return total + sum(atom * fn.vertex_values[v] for v, atom in mu.vertex_atoms.items())
