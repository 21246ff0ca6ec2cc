from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canmeas import (
    AdmissibleBasis,
    BasisError,
    BlockScaleProfile,
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
    layer_matrix,
    model_period,
    monodromy_from_basis,
    schur_block_inverse,
    verify_inverse_lemma,
)
from canmeas.corpus import random_block_profile
from canmeas.linalg import rank_one_sum
from canmeas.gallery import (
    theta_graph,
    theta_monodromy,
    theta_period_family,
)

seeds = st.integers(min_value=0, max_value=10**6)

F = Fraction


def one_block_basis(g):
    # The admissible basis of the trivial partition: on a connected graph
    # it is cycle_basis(g) as a single block.
    return admissible_cycle_basis(graded_minors(g, OrderedPartition.trivial(g.edge_ids)))


THETA_SPLIT = OrderedPartition(parts=(frozenset({"e1"}), frozenset({"e2", "e3"})))


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
    def test_theta_layer_matrices(self):
        fam = theta_period_family()
        assert layer_matrix(fam, 0) == [[F(1)]]
        assert layer_matrix(fam, 1) == [[F(1)]]

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

    def test_padded_theta_limits(self):
        report = graded_inverse_limits(
            theta_period_family(exponents=(4, 2), genus=(1, 1)),
            grid=geometric_grid(1, 5),
        )
        assert report.block_sizes == (1, 1, 2)
        assert np.allclose(report.pad_target, np.eye(2))
        assert report.final_deviations[-1] <= 1e-9
        assert all(d <= 1e-6 for d in report.final_deviations[:-1])

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
