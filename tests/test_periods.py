from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import (
    AdmissibleBasis,
    AugmentedGraph,
    BasisError,
    BlockScaleProfile,
    CycleVector,
    FamilyError,
    LengthFamily,
    ModelPeriodFamily,
    NoiseSpec,
    NotPositiveDefinite,
    OrderedPartition,
    ScaleFunction,
    admissible_cycle_basis,
    assemble_base,
    cycle_basis,
    geometric_grid,
    graded_inverse_limits,
    graded_minors,
    model_period,
    monodromy_from_basis,
    schur_block_inverse,
    total_genus,
    verify_inverse_lemma,
)
from canmeas import periods
from canmeas.corpus import (
    layered_family,
    normalized_coordinates,
    random_block_profile,
    random_graph,
    random_layering,
)
from canmeas.gallery import (
    theta_graph,
    theta_monodromy,
    theta_period_family,
)
from canmeas.periods import BlockSample

seeds = st.integers(min_value=0, max_value=10**6)

F = Fraction


def one_block_basis(g):
    # The admissible basis of the trivial partition: on a connected graph
    # it is cycle_basis(g) as a single block.
    return admissible_cycle_basis(graded_minors(g, OrderedPartition.trivial(g.edge_ids)))


def rank_one_sum(terms, size):
    # The exact sum of w r r^T over (weight w, integer row r) pairs.
    out = [[F(0)] * size for _ in range(size)]
    for weight, row in terms:
        for i in range(size):
            for j in range(size):
                out[i][j] += weight * row[i] * row[j]
    return out


def layered_model(g, p, point, basis=None):
    # The period model of the straight-line family at the default scales
    # t^-2(r-j), on the canonical admissible basis unless one is given.
    r = len(p.parts)
    family = layered_family(g, p, point, [-2 * (r - j) for j in range(r)])
    if basis is None:
        basis = admissible_cycle_basis(family.target_curve.minors)
    mono = monodromy_from_basis(g, basis)
    return ModelPeriodFamily(monodromy=mono, lengths=family, base_im=assemble_base(mono, g))


def assert_targets_invert_layer_matrices(model, targets):
    # Target k times the layer matrix, the sum over layer-k edges of
    # x_e r_e r_e^T with r_e the edge's block-k row, is exactly the
    # identity.  The product is exact, so no inverse code is involved.
    point = model.lengths.target_point
    start = 0
    for k, (part, size) in enumerate(
        zip(model.lengths.target_layering.parts, model.monodromy.block_sizes)
    ):
        rows = model.monodromy.edge_rows
        m = rank_one_sum(((point[e], rows[e][start : start + size]) for e in sorted(part)), size)
        t = targets[k]
        product = [
            [sum(t[i][l] * m[l][j] for l in range(size)) for j in range(size)]
            for i in range(size)
        ]
        assert product == [[int(i == j) for j in range(size)] for i in range(size)], k
        start += size


THETA_SPLIT = OrderedPartition(parts=(frozenset({"e1"}), frozenset({"e2", "e3"})))


def per_point_samples(pts, sizes, targets, point):
    # The sampler as one round per grid point: np.linalg.cond,
    # np.linalg.inv and the Schur recursion on each 2-D matrix.
    offsets = []
    pos = 0
    for size in sizes:
        offsets.append(slice(pos, pos + size))
        pos += size
    samples = []
    for t in pts:
        m, y = point(t)
        condition = float(np.linalg.cond(m))
        direct = np.linalg.inv(m)
        oracle = schur_block_inverse(m, sizes)
        gap = float(np.max(np.abs(direct - oracle))) if m.size else 0.0
        diag, off = [], {}
        for k, sk in enumerate(offsets):
            diag.append(float(np.linalg.norm(y[k] * direct[sk, sk] - targets[k])))
            for l, sl in enumerate(offsets):
                if l != k:
                    off[(k, l)] = float(np.linalg.norm(y[min(k, l)] * direct[sk, sl]))
        samples.append(BlockSample(t, tuple(diag), off, gap, condition, condition > 1e12))
    return samples


def sample_bits(samples):
    # Every float of every sample as its exact binary64 text.
    return [
        (
            s.t,
            [d.hex() for d in s.diag_deviations],
            {kl: v.hex() for kl, v in s.offdiag_norms.items()},
            s.oracle_gap.hex(),
            s.condition.hex(),
            s.flagged,
        )
        for s in samples
    ]


def sampler_calls(monkeypatch):
    """Record the arguments and the result of every sampler call."""
    calls = []
    real = periods._block_samples

    def recorded(pts, sizes, targets, point):
        samples = real(pts, sizes, targets, point)
        calls.append(((pts, sizes, targets, point), samples))
        return samples

    monkeypatch.setattr(periods, "_block_samples", recorded)
    return calls


def bouquet(loops):
    # One vertex with the given number of loops, one per layer.
    ids = [f"l{i:02d}" for i in range(loops)]
    g = AugmentedGraph(vertices=("v",), edges=tuple((e, ("v", "v")) for e in ids))
    p = OrderedPartition(parts=tuple(frozenset({e}) for e in ids))
    return g, p, {e: F(1) for e in ids}


class TestMonodromySet:
    def test_theta_edge_rows(self):
        mono = theta_monodromy()
        assert mono.edge_rows == {
            "e1": (1, 0),
            "e2": (-1, -1),
            "e3": (0, 1),
        }
        assert mono.block_sizes == (1, 1)
        assert mono.rank == 2
        assert mono.pad == 0
        assert mono.total_size == 2

    def test_edge_matrix_is_rank_one(self):
        mono = theta_monodromy()
        m = rank_one_sum([(F(1), mono.edge_rows["e2"])], mono.rank)
        assert m == [[1, 1], [1, 1]]

    def test_edge_rows_give_the_hand_formula(self):
        mono = theta_monodromy()
        a, b, c = F(3), F(5, 2), F(7)
        lengths = {"e1": a, "e2": b, "e3": c}
        gram = rank_one_sum(
            ((lengths[e], row) for e, row in mono.edge_rows.items()), mono.rank
        )
        assert gram == [[a + b, b], [b, b + c]]

    def test_edge_rows_match_the_measure_route(self):
        from canmeas import MetricGraph, gram_matrices

        mono = theta_monodromy()
        lengths = {"e1": F(2), "e2": F(1, 3), "e3": F(5)}
        direct = gram_matrices(MetricGraph(theta_graph(), lengths), list(mono.basis))
        gram = rank_one_sum(
            ((lengths[e], row) for e, row in mono.edge_rows.items()), mono.rank
        )
        assert gram == direct

    def test_wrong_cycle_count_rejected(self):
        g = theta_graph()
        basis = one_block_basis(g)
        with pytest.raises(BasisError):
            monodromy_from_basis(g, AdmissibleBasis((basis.blocks[0][:1],)))

    def test_flat_basis_is_one_block(self):
        g = theta_graph()
        mono = monodromy_from_basis(g, one_block_basis(g))
        assert mono.block_sizes == (2,)
        assert mono.basis == tuple(cycle_basis(g))

    def test_pad_defaults_to_vertex_genus(self):
        mono = theta_monodromy(genus=(1, 2))
        assert mono.pad == 3
        assert mono.total_size == 5


class TestBaseMatrix:
    def test_default_blocks(self):
        g = theta_graph(genus=(1, 1))
        mono = monodromy_from_basis(g, admissible_cycle_basis(graded_minors(g, THETA_SPLIT)))
        base = assemble_base(mono, g, {"u": [[2.0]], "v": [[3.0]]})
        assert base.shape == (4, 4)
        assert base[2, 2] == 2.0 and base[3, 3] == 3.0
        assert np.all(base[:2, :] == 0)

    def test_missing_vertex_block_rejected(self):
        g = theta_graph(genus=(1, 0))
        mono = monodromy_from_basis(g, admissible_cycle_basis(graded_minors(g, THETA_SPLIT)))
        with pytest.raises(FamilyError, match="no base block"):
            assemble_base(mono, g, {})

    def test_rank_and_cross_blocks_are_placed(self):
        g = theta_graph(genus=(1, 0))
        mono = monodromy_from_basis(g, admissible_cycle_basis(graded_minors(g, THETA_SPLIT)))
        base = assemble_base(
            mono,
            g,
            {"u": [[4.0]]},
            rank_block=[[1.0, 0.5], [0.5, 1.0]],
            cross=[[0.25], [0.125]],
        )
        assert base[0, 1] == 0.5
        assert base[0, 2] == 0.25 and base[2, 1] == 0.125
        assert np.array_equal(base, base.T)

    def test_wrong_shapes_rejected(self):
        g = theta_graph(genus=(1, 0))
        mono = monodromy_from_basis(g, admissible_cycle_basis(graded_minors(g, THETA_SPLIT)))
        with pytest.raises(FamilyError):
            assemble_base(mono, g, {"u": [[1.0, 0.0]]})
        with pytest.raises(FamilyError):
            assemble_base(mono, g, {"u": [[1.0]]}, rank_block=[[1.0]])
        with pytest.raises(FamilyError):
            assemble_base(mono, g, {"u": [[1.0]]}, cross=[[1.0, 2.0]])


class TestModelPeriodFamily:
    def test_asymmetric_base_rejected(self):
        fam = theta_period_family()
        base = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(FamilyError, match="symmetric"):
            ModelPeriodFamily(
                monodromy=fam.monodromy, lengths=fam.lengths, base_im=base
            )

    def test_cross_coupled_vertex_blocks_rejected(self):
        fam = theta_period_family(genus=(1, 1))
        bad = fam.base_im.copy()
        bad[2, 3] = bad[3, 2] = 0.5
        with pytest.raises(FamilyError, match="vertex blocks"):
            ModelPeriodFamily(
                monodromy=fam.monodromy, lengths=fam.lengths, base_im=bad
            )

    def test_pad_block_must_be_positive_definite(self):
        fam = theta_period_family(genus=(1, 1))
        bad = fam.base_im.copy()
        bad[2, 2] = -1.0
        with pytest.raises(NotPositiveDefinite):
            ModelPeriodFamily(
                monodromy=fam.monodromy, lengths=fam.lengths, base_im=bad
            )

    def test_pad_block_must_be_well_conditioned(self):
        fam = theta_period_family(genus=(1, 1))
        bad = fam.base_im.copy()
        bad[3, 3] = 1e-13
        with pytest.raises(FamilyError, match="pad block .* condition number 1e\\+13"):
            ModelPeriodFamily(
                monodromy=fam.monodromy, lengths=fam.lengths, base_im=bad
            )

    def test_pad_block_inverse_must_be_finite(self):
        # Cholesky and the condition number pass the subnormal 5e-324.
        fam = theta_period_family(genus=(1, 0))
        bad = fam.base_im.copy()
        bad[2, 2] = 5e-324
        with pytest.raises(FamilyError, match="pad block overflows binary64"):
            ModelPeriodFamily(monodromy=fam.monodromy, lengths=fam.lengths, base_im=bad)

    def test_pad_target_inverts_the_pad_block(self):
        fam = theta_period_family(
            genus=(1, 1), vertex_blocks={"u": [[2.0]], "v": [[4.0]]}
        )
        assert np.allclose(fam.pad_target, np.diag([0.5, 0.25]))
        assert theta_period_family().pad_target is None

    def test_model_period_value(self):
        fam = theta_period_family(exponents=(2, 1))
        t = F(1, 10)
        im = model_period(fam, t)
        l1, l2 = 100.0, 5.0
        want = np.array([[l1 + l2, l2], [l2, l2 + l2]])
        assert np.allclose(im, want, rtol=0, atol=1e-12)

    def test_indefinite_model_raises_and_names_t(self):
        fam = theta_period_family()
        sunk = ModelPeriodFamily(
            monodromy=fam.monodromy,
            lengths=LengthFamily(
                graph=fam.lengths.graph,
                param_lengths={
                    "e1": ScaleFunction.power(2),
                    "e2": ScaleFunction.power(3, F(1, 2)),
                    "e3": ScaleFunction.power(3, F(1, 2)),
                },
                target_layering=fam.lengths.target_layering,
                target_point=fam.lengths.target_point,
            ),
            base_im=np.array([[-1.0, 0.0], [0.0, -1.0]]),
        )
        with pytest.raises(NotPositiveDefinite, match="1/10"):
            model_period(sunk, F(1, 10))


class TestBatchedSampler:
    def test_layered_families_match_a_per_point_loop(self, monkeypatch):
        calls = sampler_calls(monkeypatch)
        padded = with_empty_blocks = 0
        for seed in range(60):
            rng = Random(seed)
            g = random_graph(rng, max_vertices=6, max_edges=9)
            p = random_layering(rng, g)
            if total_genus(g) == 0:
                continue
            model = layered_model(g, p, normalized_coordinates(rng, p))
            graded_inverse_limits(model, grid=geometric_grid(1, 5))
            padded += model.monodromy.pad > 0
            with_empty_blocks += 0 in model.monodromy.block_sizes
        graded_inverse_limits(layered_model(*bouquet(30)), grid=geometric_grid(1, 5))
        assert padded >= 20 and with_empty_blocks >= 10, (padded, with_empty_blocks)
        assert len(calls) >= 40
        for args, samples in calls:
            assert sample_bits(samples) == sample_bits(per_point_samples(*args))

    def test_inverse_lemma_profiles_match_a_per_point_loop(self, monkeypatch):
        calls = sampler_calls(monkeypatch)
        for seed in range(30):
            profile = random_block_profile(np.random.default_rng(seed))
            verify_inverse_lemma(profile, NoiseSpec(seed=seed), geometric_grid(1, 4))
        assert len(calls) == 30
        for args, samples in calls:
            assert sample_bits(samples) == sample_bits(per_point_samples(*args))

    @staticmethod
    def sunk_theta(exponents):
        # A rank block of -1e6: the model is indefinite wherever its
        # lengths are small.
        g = theta_graph()
        family = layered_family(g, THETA_SPLIT, {"e1": 1, "e2": F(1, 2), "e3": F(1, 2)}, exponents)
        mono = theta_monodromy()
        base = assemble_base(mono, g, rank_block=[[-1e6, 0.0], [0.0, -1e6]])
        return ModelPeriodFamily(monodromy=mono, lengths=family, base_im=base)

    def test_the_first_failing_point_raises_its_own_error(self):
        # Lengths t^-4, t^-2: indefinite at 1/10, beyond binary64 at 1e-400.
        growing = self.sunk_theta((-4, -2))
        with pytest.raises(NotPositiveDefinite, match="at t = 1/10$"):
            graded_inverse_limits(growing, grid=(F(1, 10), F(1, 10**400)))
        # Lengths t^2, t^4: beyond binary64 at 1e200, indefinite at 1e-200.
        shrinking = self.sunk_theta((2, 4))
        with pytest.raises(FamilyError, match=f"t = {10**200} overflows binary64"):
            graded_inverse_limits(shrinking, grid=(F(10**200), F(1, 10**200)))
        with pytest.raises(NotPositiveDefinite, match=f"at t = 1/{10**200}$"):
            graded_inverse_limits(shrinking, grid=(F(1, 10**200),))


class TestSchurInverse:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_inverse(self, seed):
        # Nonsymmetric and diagonally dominant, as verify_inverse_lemma builds
        # them, in 1 to 12 blocks of 0 to 3 rows: empty blocks fall between
        # nonempty ones.
        gen = np.random.default_rng(seed)
        sizes = [int(s) for s in gen.integers(0, 4, size=gen.integers(1, 13))]
        n = sum(sizes)
        m = gen.uniform(-1, 1, size=(n, n)) + n * np.eye(n)
        got = schur_block_inverse(m, sizes)
        assert np.allclose(got, np.linalg.inv(m), atol=1e-10)

    def test_single_block_is_plain_inverse(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(schur_block_inverse(m, [2]), np.linalg.inv(m))

    def test_size_mismatch_rejected(self):
        with pytest.raises(FamilyError):
            schur_block_inverse(np.eye(3), [2, 2])


class TestBlockScaleProfile:
    def make(self, exps=(-2, 0)):
        return BlockScaleProfile(
            block_sizes=(1, 1),
            scales=tuple(ScaleFunction.power(k) for k in exps),
            limits=(
                (np.array([[1.0]]), np.array([[0.0]])),
                (np.array([[0.0]]), np.array([[1.0]])),
            ),
        )

    def test_scales_must_separate(self):
        with pytest.raises(FamilyError, match="vanish"):
            self.make(exps=(0, 0))
        with pytest.raises(FamilyError, match="vanish"):
            self.make(exps=(0, -2))

    def test_shapes_checked(self):
        with pytest.raises(FamilyError, match="shape"):
            BlockScaleProfile(
                block_sizes=(1, 2),
                scales=(ScaleFunction.power(-2), ScaleFunction.power(0)),
                limits=(
                    (np.eye(1), np.zeros((1, 2))),
                    (np.zeros((2, 1)), np.eye(3)),
                ),
            )

    def test_singular_diagonal_rejected(self):
        with pytest.raises(FamilyError, match="singular"):
            BlockScaleProfile(
                block_sizes=(1, 1),
                scales=(ScaleFunction.power(-2), ScaleFunction.power(0)),
                limits=(
                    (np.array([[0.0]]), np.array([[1.0]])),
                    (np.array([[1.0]]), np.array([[1.0]])),
                ),
            )


class TestInverseLemma:
    def clean_profile(self):
        # Adjacent scales one power of t apart, identity limits, no
        # off-diagonal limit mass; all coupling comes from the noise.
        sizes = (2, 2, 1)
        return BlockScaleProfile(
            block_sizes=sizes,
            scales=(
                ScaleFunction.power(-2),
                ScaleFunction.power(-1),
                ScaleFunction.power(0),
            ),
            limits=tuple(
                tuple(
                    np.eye(sizes[k]) if k == l else np.zeros((sizes[k], sizes[l]))
                    for l in range(3)
                )
                for k in range(3)
            ),
        )

    def test_identity_profile_converges(self):
        report = verify_inverse_lemma(
            self.clean_profile(), NoiseSpec(), geometric_grid(1, 4)
        )
        assert all(d <= 1e-6 for d in report.final_diag_deviations)
        assert report.max_oracle_gap <= 1e-9
        devs = [max(s.diag_deviations) for s in report.samples]
        assert all(b <= a for a, b in zip(devs, devs[1:]))
        assert not report.samples[-1].flagged

    def test_noise_decay_drives_the_rate(self):
        slow = verify_inverse_lemma(
            self.clean_profile(),
            NoiseSpec(amplitude=1e-2, exponent=0.5),
            geometric_grid(1, 4),
        )
        fast = verify_inverse_lemma(
            self.clean_profile(),
            NoiseSpec(amplitude=1e-2, exponent=2.0),
            geometric_grid(1, 4),
        )
        assert max(fast.final_diag_deviations) < max(slow.final_diag_deviations)

    def test_targets_are_limit_inverses(self):
        profile = random_block_profile(np.random.default_rng(5), n_blocks=2)
        report = verify_inverse_lemma(profile, grid=geometric_grid(1, 3))
        for k, target in enumerate(report.targets):
            assert np.allclose(
                target @ profile.limits[k][k], np.eye(profile.block_sizes[k])
            )

    def test_huge_dynamic_range_is_flagged(self):
        profile = BlockScaleProfile(
            block_sizes=(1, 1),
            scales=(ScaleFunction.power(-14), ScaleFunction.power(0)),
            limits=(
                (np.array([[1.0]]), np.array([[0.0]])),
                (np.array([[0.0]]), np.array([[1.0]])),
            ),
        )
        report = verify_inverse_lemma(profile, grid=(F(1, 10),))
        assert report.samples[0].flagged

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_random_profiles_converge(self, seed):
        gen = np.random.default_rng(seed)
        profile = random_block_profile(gen)
        report = verify_inverse_lemma(
            profile, NoiseSpec(seed=seed), geometric_grid(1, 4)
        )
        assert all(d <= 1e-6 for d in report.final_diag_deviations)
        assert report.max_oracle_gap <= 1e-9
        assert max(norm for s in report.samples for norm in s.offdiag_norms.values()) < 1e3


class TestGradedInverseLimits:
    def test_theta_limits(self):
        report = graded_inverse_limits(theta_period_family())
        assert report.block_sizes == (1, 1)
        assert report.layer_targets_exact == (((F(1),),), ((F(1),),))
        assert report.pad_target is None
        # The rescaled diagonal deviation of this family is exactly
        # (t/4) / (1 + t/4) in both blocks.
        for t, s in zip(report.grid, report.samples):
            want = float((t / 4) / (1 + t / 4))
            assert s.diag_deviations[0] == pytest.approx(want, rel=1e-6)
            assert s.diag_deviations[1] == pytest.approx(want, rel=1e-6)
        assert all(d <= 1e-6 for d in report.final_deviations)
        assert max(s.oracle_gap for s in report.samples) <= 1e-9

    def test_random_targets_invert_the_layer_matrices(self):
        checked = 0
        for seed in range(250):
            rng = Random(seed)
            g = random_graph(rng)
            p = random_layering(rng, g)
            point = normalized_coordinates(rng, p)
            if total_genus(g) == 0:
                continue  # an empty period matrix has no model
            model = layered_model(g, p, point)
            report = graded_inverse_limits(model, grid=(F(1, 10),))
            assert_targets_invert_layer_matrices(model, report.layer_targets_exact)
            checked += 1
        assert checked >= 200

    def test_targets_follow_a_non_canonical_basis(self):
        # Four parallel edges; minor 0 is the loop e1 and minor 1 the
        # banana e2, e3, e4.  The sheared basis holds (g1, g1 + g2) in
        # place of the canonical block (g1, g2).
        g = AugmentedGraph(
            vertices=("u", "v"), edges=tuple((f"e{i}", ("u", "v")) for i in range(1, 5))
        )
        p = OrderedPartition(parts=(frozenset({"e1"}), frozenset({"e2", "e3", "e4"})))
        point = {"e1": F(1), "e2": F(1, 2), "e3": F(1, 3), "e4": F(1, 6)}
        canonical = admissible_cycle_basis(graded_minors(g, p))
        g1, g2 = canonical.blocks[1]
        sheared = AdmissibleBasis(
            (canonical.blocks[0], (g1, CycleVector({e: g1[e] + g2[e] for e in g.edge_ids})))
        )
        model = layered_model(g, p, point, sheared)
        want = graded_inverse_limits(layered_model(g, p, point)).layer_targets_exact
        got = graded_inverse_limits(model).layer_targets_exact
        assert got[0] == want[0]
        assert got[1] != want[1]
        assert_targets_invert_layer_matrices(model, got)

    def test_padded_theta_limits(self):
        report = graded_inverse_limits(
            theta_period_family(exponents=(4, 2), genus=(1, 1)),
            grid=geometric_grid(1, 5),
        )
        assert report.block_sizes == (1, 1, 2)
        assert np.allclose(report.pad_target, np.eye(2))
        assert report.final_deviations[-1] <= 1e-9
        assert all(d <= 1e-6 for d in report.final_deviations[:-1])

    def test_singular_layer_matrix_raises(self):
        # The basis (e2 - e3, e1 - e2) is independent, but its block-0
        # cycle misses layer 0 = {e1}, so layer 0's Gram matrix is [[0]].
        fam = theta_period_family()
        g = fam.lengths.graph
        assert fam.lengths.target_layering == THETA_SPLIT
        basis = AdmissibleBasis(
            ((CycleVector({"e2": 1, "e3": -1}),), (CycleVector({"e1": 1, "e2": -1}),))
        )
        mono = monodromy_from_basis(g, basis)
        base = assemble_base(mono, g)
        model = ModelPeriodFamily(monodromy=mono, lengths=fam.lengths, base_im=base)
        with pytest.raises(BasisError, match="singular"):
            graded_inverse_limits(model)

    def test_block_count_must_match_layers(self):
        fam = theta_period_family()
        flat = monodromy_from_basis(fam.lengths.graph, one_block_basis(fam.lengths.graph))
        model = ModelPeriodFamily(
            monodromy=flat, lengths=fam.lengths, base_im=np.zeros((2, 2))
        )
        with pytest.raises(FamilyError, match="block per layer"):
            graded_inverse_limits(model)

    def test_lengths_must_factor_over_layers(self):
        fam = theta_period_family()
        warped = ModelPeriodFamily(
            monodromy=fam.monodromy,
            lengths=LengthFamily(
                graph=fam.lengths.graph,
                param_lengths={
                    "e1": ScaleFunction.power(-2),
                    "e2": ScaleFunction.power(-1, F(1, 2)),
                    "e3": ScaleFunction(terms=((-1, F(1, 2)), (0, F(1)))),
                },
                target_layering=fam.lengths.target_layering,
                target_point=fam.lengths.target_point,
            ),
            base_im=np.zeros((2, 2)),
        )
        with pytest.raises(FamilyError, match="factor"):
            graded_inverse_limits(warped)
