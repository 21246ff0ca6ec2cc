"""End-to-end verification gate.

Each test here checks one advertised guarantee of the package at its
stated tolerance, over seeded random corpora large enough to be
convincing.  Run with ``pytest tests/test_acceptance.py -v`` to get one
pass or fail line per guarantee.
"""

import json
import time
from fractions import Fraction
from random import Random

import numpy as np

from canmeas import (
    NoiseSpec,
    TropicalCurve,
    all_tree_limits,
    continuity_probe,
    foster_by_matrix,
    foster_by_projection,
    foster_by_trees,
    geometric_grid,
    graded_inverse_limits,
    graded_minors,
    graph_genus,
    layered_spanning_trees,
    layered_tree_weight,
    limit_foster,
    spanning_trees,
    total_genus,
    tropical_canonical_measure,
    verify_inverse_lemma,
)
from canmeas import corpus, gallery
from canmeas.cli import main
from canmeas.kirchhoff import effective_resistance
from canmeas.periods import ModelPeriodFamily, assemble_base

F = Fraction

CORPUS_SEED = 20260818

_cache: dict = {}


def measure_corpus():
    """200 random metric graphs with their tree-formulation measures.

    Built once; the build and the three-formulation comparison are timed
    so the agreement test can enforce its runtime budget.
    """
    if "measures" not in _cache:
        rng = Random(CORPUS_SEED)
        cases = []
        start = time.perf_counter()
        while len(cases) < 200:
            g = corpus.random_graph(rng, max_vertices=8, max_edges=12)
            m = corpus.random_metric(rng, g)
            by_trees = foster_by_trees(m)
            agree = (
                by_trees.edge_coeffs == foster_by_projection(m).edge_coeffs
                and by_trees.edge_coeffs == foster_by_matrix(m).edge_coeffs
            )
            cases.append((g, m, by_trees, agree))
        elapsed = time.perf_counter() - start
        _cache["measures"] = (cases, elapsed)
    return _cache["measures"]


def test_01_three_formulations_agree_exactly():
    cases, elapsed = measure_corpus()
    assert len(cases) >= 200
    assert all(agree for _, _, _, agree in cases)
    assert elapsed <= 60.0
    print(f"PASS three formulations agree on {len(cases)} graphs in {elapsed:.1f}s")


def test_02_mass_identities():
    cases, _ = measure_corpus()
    for g, _, mu, _ in cases:
        assert mu.edge_mass == graph_genus(g)
        assert mu.total_mass == total_genus(g)
    rng = Random(CORPUS_SEED + 2)
    checked = 0
    while checked < 100:
        g = corpus.random_graph(rng, max_vertices=6, max_edges=8)
        if not g.edge_ids:
            continue
        layering = corpus.random_layering(rng, g)
        tc = TropicalCurve(
            graph=g,
            lengths=corpus.normalized_coordinates(rng, layering),
            layering=layering,
        )
        assert tropical_canonical_measure(tc).total_mass == total_genus(g)
        checked += 1
    print(f"PASS edge mass equals genus on {len(cases)} graphs, "
          f"hybrid mass equals total genus on {checked} curves")


def test_03_effective_resistance_oracle():
    cases, _ = measure_corpus()
    for g, m, mu, _ in cases:
        resistance = effective_resistance(g, m.lengths)
        for e in g.edge_ids:
            want = 1 - resistance[e] / m.lengths[e]
            assert mu.edge_coeffs[e] == want
    print(f"PASS resistance oracle matches exactly on {len(cases)} graphs")


def test_04_genus_decomposition_and_layered_trees():
    rng = Random(CORPUS_SEED + 4)
    pairs = 0
    while pairs < 500:
        g = corpus.random_graph(rng, max_vertices=6, max_edges=8)
        if not g.edge_ids:
            continue
        layering = corpus.random_layering(rng, g)
        report = graded_minors(g, layering)
        assert sum(report.genus_vector) == graph_genus(g)
        layered = layered_spanning_trees(graded_minors(g, layering))
        product = 1
        for minor in report.minors:
            product *= len(spanning_trees(minor))
        assert len(layered) == product
        for tree in layered:
            for j, part in enumerate(layering.parts):
                assert len(part - tree.edge_ids) == report.genus_vector[j]
        pairs += 1
    print(f"PASS genus decomposition and layered tree counts on {pairs} pairs")


def test_05_measure_limits_of_the_stock_families():
    grid = geometric_grid(1, 6)
    for family in (
        gallery.theta_family(),
        gallery.theta_family(x2=F(1, 3), x3=F(2, 3)),
        gallery.triangle_family(),
    ):
        report = limit_foster(family, grid)
        assert report.monotone
        assert report.final_deviation <= 1e-5
        tropical = tropical_canonical_measure(family.target_curve)
        assert dict(report.targets) == dict(tropical.edge_coeffs)
    for t in grid:
        triangle = foster_by_trees(gallery.triangle_family().metric_at(t))
        assert triangle.edge_coeffs["e1"] == 1 / (1 + t)
        skew = foster_by_trees(
            gallery.theta_family(x2=F(1, 3), x3=F(2, 3)).metric_at(t)
        )
        x2, x3 = F(1, 3), F(2, 3)
        assert skew.edge_coeffs["e2"] == x2 * (1 + x3 * t) / (1 + x2 * x3 * t)
    assert limit_foster(gallery.theta_family(x2=F(1, 3), x3=F(2, 3)), grid).targets[
        "e2"
    ] == F(1, 3)
    print("PASS stock family limits: monotone, final deviation <= 1e-5, exact targets")


def test_06_tree_weight_limits_split_by_layer():
    rng = Random(CORPUS_SEED + 6)
    checked = 0
    while checked < 150:
        g = corpus.random_graph(rng, max_vertices=5, max_edges=8)
        if not g.edge_ids:
            continue
        family = corpus.random_family(rng, g)
        layering = family.target_layering
        layered = {t.edge_ids for t in layered_spanning_trees(graded_minors(g, layering))}
        limits = all_tree_limits(family)
        for tree in spanning_trees(g):
            want = layered_tree_weight(family, tree)
            assert limits[tree.edge_ids] == want
            if tree.edge_ids in layered:
                assert limits[tree.edge_ids] > 0
            else:
                assert limits[tree.edge_ids] == 0
        checked += 1
    print(f"PASS tree weight limits match the layered dichotomy on {checked} families")


def test_07_integrals_converge_for_random_test_functions():
    grid = geometric_grid(1, 6)
    for family in (gallery.theta_family(), gallery.triangle_family()):
        rng = Random(CORPUS_SEED + 7)
        for _ in range(20):
            fn = corpus.random_test_function(rng, family.graph)
            probe = continuity_probe(family, fn, grid)
            assert probe.final_deviation <= 1e-4
    print("PASS 20 random piecewise-linear integrals per family within 1e-4 at 1e-6")


def test_08_block_inverse_asymptotics_on_random_profiles():
    gen = np.random.default_rng(CORPUS_SEED + 8)
    grid = geometric_grid(1, 4)
    for case in range(50):
        profile = corpus.random_block_profile(gen)
        report = verify_inverse_lemma(profile, NoiseSpec(), grid)
        assert all(d <= 1e-6 for d in report.final_diag_deviations), case
        assert report.max_oracle_gap <= 1e-9, case
    print("PASS 50 random block profiles: diagonal limits within 1e-6 at 1e-4, "
          "Schur oracle within 1e-9")


def test_09_graded_period_limits_for_the_theta_model():
    report = graded_inverse_limits(gallery.theta_period_family())
    assert report.layer_targets_exact == (((F(1),),), ((F(1),),))
    assert all(d <= 1e-6 for d in report.final_deviations)

    padded = graded_inverse_limits(gallery.theta_period_family(genus=(1, 1)))
    assert padded.final_deviations[-1] <= 1e-9
    assert all(d <= 1e-6 for d in padded.final_deviations[:-1])

    fam = gallery.theta_period_family(exponents=(4, 2), genus=(1, 1))
    base = assemble_base(
        fam.monodromy,
        fam.lengths.graph,
        {"u": [[2.0]], "v": [[1.5]]},
        cross=[[0.1, 0.0], [0.0, 0.2]],
    )
    crossed = ModelPeriodFamily(
        monodromy=fam.monodromy, lengths=fam.lengths, base_im=base
    )
    crossed_report = graded_inverse_limits(crossed, geometric_grid(1, 5))
    assert np.allclose(crossed_report.pad_target, np.diag([0.5, 1 / 1.5]))
    assert crossed_report.final_deviations[-1] <= 1e-9
    assert all(d <= 1e-6 for d in crossed_report.final_deviations[:-1])
    print("PASS theta period model: rescaled diagonals within 1e-6, pad within 1e-9")


def test_10_measures_ignore_global_rescaling():
    cases, _ = measure_corpus()
    rng = Random(CORPUS_SEED + 10)
    for g, m, mu, _ in cases:
        for _ in range(10):
            factor = corpus.random_rational(rng, 50, 50)
            assert foster_by_trees(m.scaled(factor)).edge_coeffs == mu.edge_coeffs
    print(f"PASS measures invariant under 10 random rescalings on {len(cases)} graphs")


def test_11_selftest_reports_are_deterministic(capsys):
    code1 = main(["selftest", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = main(["selftest", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True
    print("PASS selftest output is byte-identical across runs")
