"""Importance sampling: draws, weights, estimators, and their scaling."""

import numpy as np
import pytest

from mcmclab.diagnostics import kish_ess
from mcmclab.errors import CoverageError
from mcmclab.harness import exercise_2d_target, noisy_mean_model
from mcmclab.importance import (
    DiagonalGaussianProposal,
    UniformBoxProposal,
    WeightedSamples,
    draw_iid,
    importance_weights,
    is_evidence,
    is_expectation,
    prior_proposal,
)
from mcmclab.seeding import derive_rng
from mcmclab.targets import _LOG_2PI, IsotropicGaussianTarget


class TestDrawIid:
    def test_uniform_box_mean(self):
        proposal = UniformBoxProposal((0.0, 0.0), (1.0, 1.0))
        pts = draw_iid(proposal, 100_000, np.random.default_rng(0))
        np.testing.assert_allclose(pts.mean(axis=0), [0.5, 0.5], atol=5e-3)

    def test_gaussian_covariance(self):
        proposal = DiagonalGaussianProposal((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        pts = draw_iid(proposal, 100_000, np.random.default_rng(1))
        cov = np.cov(pts, rowvar=False)
        np.testing.assert_allclose(cov, np.eye(3), atol=0.02)

    def test_seed_determinism(self):
        proposal = DiagonalGaussianProposal((1.0,), (2.0,))
        a = draw_iid(proposal, 50, np.random.default_rng(42))
        b = draw_iid(proposal, 50, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_n_validation(self):
        proposal = UniformBoxProposal((0.0,), (1.0,))
        with pytest.raises(ValueError):
            draw_iid(proposal, 0, np.random.default_rng(0))


class TestDiagonalGaussianProposal:
    # sample and log_pdf pass over the transposed view in C order; every
    # element must come out as the (d,) broadcast formula has it
    @pytest.mark.parametrize("n", [1, 3, 10_000])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_sample_equals_the_broadcast_formula_bit_for_bit(self, dim, n):
        rng = np.random.default_rng(300 + dim)
        mu, sig = rng.normal(0.0, 5.0, dim), 10.0 ** rng.uniform(-2, 2, dim)
        proposal = DiagonalGaussianProposal(tuple(mu), tuple(sig))
        draws, ref_rng = proposal.sample(np.random.default_rng(n), n), np.random.default_rng(n)
        ref = mu + ref_rng.standard_normal((n, dim)) * sig
        assert draws.shape == (n, dim) and draws.flags.c_contiguous
        assert draws.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 10_000])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_log_pdf_equals_the_broadcast_formula_bit_for_bit(self, dim, n):
        rng = np.random.default_rng(400 + dim)
        mu, sig = rng.normal(0.0, 5.0, dim), 10.0 ** rng.uniform(-2, 2, dim)
        proposal = DiagonalGaussianProposal(tuple(mu), tuple(sig))
        pts = mu + rng.standard_normal((n, dim)) * sig * 3.0
        log_norm = float(np.log(sig).sum() + 0.5 * dim * _LOG_2PI)
        ref = -0.5 * (((pts - mu) / sig) ** 2).sum(axis=1) - log_norm
        assert proposal.log_pdf(pts).tobytes() == ref.tobytes()
        # the value does not hang on memory order: the broadcast's z took a
        # Fortran-ordered input's order, and its row sums differed at d >= 10
        assert proposal.log_pdf(np.asfortranarray(pts)).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(4, 1), (4, 3), (4,), (2,), (4, 2, 1)])
    def test_log_pdf_of_points_with_another_dim_raises(self, shape):
        proposal = DiagonalGaussianProposal((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            proposal.log_pdf(np.zeros(shape))


class TestImportanceWeights:
    def test_posterior_shaped_proposal_gives_constant_weights(self):
        # proposal matching the normalized target: every weight equals the
        # evidence (2 pi sigma^2)^(d/2)
        target = IsotropicGaussianTarget(2, 1.0)
        proposal = DiagonalGaussianProposal((0.0, 0.0), (1.0, 1.0))
        pts = draw_iid(proposal, 500, np.random.default_rng(2))
        ws = importance_weights(target, proposal, pts)
        np.testing.assert_allclose(
            ws.log_weights, np.log(2.0 * np.pi), rtol=1e-12
        )

    def test_uniform_box_weights_are_volume_times_density(self):
        target = exercise_2d_target()
        proposal = UniformBoxProposal((-3.0, -3.0), (3.0, 3.0))
        pts = draw_iid(proposal, 200, np.random.default_rng(3))
        ws = importance_weights(target, proposal, pts)
        expected = np.log(proposal.volume) + target.log_density_many(pts)
        np.testing.assert_allclose(ws.log_weights, expected, rtol=1e-12)

    def test_prior_proposal_weights_equal_likelihood(self):
        model = noisy_mean_model()
        proposal = prior_proposal(model)
        pts = draw_iid(proposal, 300, np.random.default_rng(4))
        ws = importance_weights(model, proposal, pts)
        expected = np.array([model.log_likelihood(t) for t in pts[:, 0]])
        np.testing.assert_allclose(ws.log_weights, expected, atol=1e-10)

    def test_coverage_violation_is_fatal(self):
        target = IsotropicGaussianTarget(1, 1.0)
        proposal = UniformBoxProposal((0.0,), (1.0,))
        with pytest.raises(CoverageError):
            importance_weights(target, proposal, np.array([[2.0]]))

    def test_zero_target_density_gives_zero_weight(self):
        class HalfLine(IsotropicGaussianTarget):
            def log_density_many(self, points):
                base = super().log_density_many(points)
                return np.where(points[:, 0] < 0, -np.inf, base)

        target = HalfLine(1, 1.0)
        proposal = DiagonalGaussianProposal((0.0,), (1.0,))
        ws = importance_weights(target, proposal, np.array([[-1.0], [1.0]]))
        assert ws.log_weights[0] == -np.inf
        assert np.isfinite(ws.log_weights[1])


class TestEvidence:
    def test_constant_weights(self):
        ws = WeightedSamples(np.zeros((4, 1)), np.full(4, np.log(3.0)))
        assert is_evidence(ws) == pytest.approx(3.0, rel=1e-12)

    def test_proposal_equal_to_target_is_exact_for_any_n(self):
        target = IsotropicGaussianTarget(3, 1.0)
        proposal = DiagonalGaussianProposal((0.0,) * 3, (1.0,) * 3)
        pts = draw_iid(proposal, 7, np.random.default_rng(5))
        ws = importance_weights(target, proposal, pts)
        assert is_evidence(ws) == pytest.approx((2 * np.pi) ** 1.5, rel=1e-12)

    def test_replicate_mean_recovers_2d_evidence(self):
        # 100 replicates at n=10^4 from a unit Gaussian proposal: the mean
        # estimate should sit within 3 standard errors of 2 pi
        target = exercise_2d_target()
        proposal = DiagonalGaussianProposal((0.0, 0.0), (1.0, 1.0))
        estimates = []
        for rep in range(100):
            rng = derive_rng(99, "is-2d", rep)
            ws = importance_weights(target, proposal, draw_iid(proposal, 10_000, rng))
            estimates.append(is_evidence(ws))
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / np.sqrt(estimates.size)
        assert abs(estimates.mean() - 2.0 * np.pi) < 3.0 * se

    def test_all_zero_weights_warn(self):
        ws = WeightedSamples(np.zeros((3, 1)), np.full(3, -np.inf))
        with pytest.warns(RuntimeWarning):
            assert is_evidence(ws) == 0.0


class TestExpectation:
    def test_constant_function(self):
        ws = WeightedSamples(np.zeros((5, 2)), np.linspace(-1, 1, 5))
        val = is_expectation(ws, lambda p: np.full(len(p), 7.5))
        assert val == pytest.approx(7.5, rel=1e-12)

    def test_identity_recovers_means_within_3_se(self):
        target = exercise_2d_target()
        proposal = DiagonalGaussianProposal((0.0, 0.0), (2.0, 2.0))
        means = []
        for rep in range(30):
            rng = derive_rng(7, "is-mean", rep)
            ws = importance_weights(target, proposal, draw_iid(proposal, 10_000, rng))
            means.append(is_expectation(ws, lambda p: p))
        means = np.asarray(means)
        se = means.std(axis=0, ddof=1) / np.sqrt(means.shape[0])
        assert abs(means[:, 0].mean() - (-0.3)) < 3.0 * se[0]
        assert abs(means[:, 1].mean() - 0.8) < 3.0 * se[1]

    def test_weight_rescaling_leaves_result_bit_identical(self):
        # shift log weights by an exactly representable constant: the
        # normalized weights, and hence the estimate, are unchanged bitwise
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((64, 2))
        lw = np.round(rng.standard_normal(64) * 4) / 4  # exact quarters
        ws = WeightedSamples(pts, lw)
        ws_scaled = WeightedSamples(pts, lw + 3.0)
        f = lambda p: p[:, 0] ** 2
        assert is_expectation(ws, f) == is_expectation(ws_scaled, f)

    @pytest.mark.parametrize("f", [lambda p: 1.0, lambda p: p[:-1, 0]],
                             ids=["scalar", "short"])
    def test_f_without_one_row_per_sample_raises(self, f):
        ws = WeightedSamples(np.zeros((5, 2)), np.zeros(5))
        with pytest.raises(ValueError, match="f must return one row per sample"):
            is_expectation(ws, f)

    def test_zero_total_weight_raises(self):
        ws = WeightedSamples(np.zeros((3, 1)), np.full(3, -np.inf))
        from mcmclab.errors import NumericalError

        with pytest.raises(NumericalError):
            is_expectation(ws, lambda p: p[:, 0])


class TestKishBehavior:
    def test_matched_proposal_gives_full_ess(self):
        target = IsotropicGaussianTarget(2, 1.0)
        proposal = DiagonalGaussianProposal((0.0, 0.0), (1.0, 1.0))
        pts = draw_iid(proposal, 1000, np.random.default_rng(8))
        ws = importance_weights(target, proposal, pts)
        assert kish_ess(log_weights=ws.log_weights) == pytest.approx(1000, rel=1e-12)

    def test_ess_decreases_with_proposal_mismatch(self):
        target = IsotropicGaussianTarget(1, 1.0)
        pts_rng = np.random.default_rng(9)
        esses = []
        for sigma_q in (1.0, 2.0, 4.0, 8.0):
            proposal = DiagonalGaussianProposal((0.0,), (sigma_q,))
            pts = draw_iid(proposal, 20_000, pts_rng)
            ws = importance_weights(target, proposal, pts)
            esses.append(kish_ess(log_weights=ws.log_weights))
        assert all(a > b for a, b in zip(esses, esses[1:]))

    def test_wider_proposal_remains_consistent(self):
        # evidence estimates converge to 2 pi for proposal widths 1 and 2,
        # with replicate RMSE shrinking like n^(-1/2)
        target = exercise_2d_target()
        for sigma_q in (1.0, 2.0):
            proposal = DiagonalGaussianProposal((0.0, 0.0), (sigma_q, sigma_q))
            rmses = []
            for n in (100, 1000, 10_000):
                errs = []
                for rep in range(40):
                    rng = derive_rng(13, "is-consistency", sigma_q, n, rep)
                    ws = importance_weights(
                        target, proposal, draw_iid(proposal, n, rng)
                    )
                    errs.append(is_evidence(ws) - 2.0 * np.pi)
                rmses.append(np.sqrt(np.mean(np.square(errs))))
            slope = np.polyfit(np.log([100, 1000, 10_000]), np.log(rmses), 1)[0]
            assert slope == pytest.approx(-0.5, abs=0.2)
            assert rmses[-1] < rmses[0] / 3.0


class TestInputChecks:
    @pytest.mark.parametrize("log_weights, message", [
        (np.zeros(2), "one entry per point"),
        (np.zeros((3, 1)), "one entry per point"),
        (np.array([0.0, np.nan, 0.0]), "finite or -inf"),
        (np.array([0.0, np.inf, 0.0]), "finite or -inf"),
    ], ids=["short", "column", "nan", "+inf"])
    def test_weighted_samples_rejects(self, log_weights, message):
        with pytest.raises(ValueError, match=message):
            WeightedSamples(np.zeros((3, 1)), log_weights)

    @pytest.mark.parametrize("mean, sigmas, message", [
        ((0.0, 0.0), (1.0, np.inf), "sigmas must be positive and finite"),
        ((-np.inf,), (1.0,), "mean must be finite"),
    ], ids=["inf sigma", "inf mean"])
    def test_gaussian_proposal_parameters_must_be_finite(self, mean, sigmas, message):
        # either once gave all -inf weights, with numpy RuntimeWarnings
        with pytest.raises(ValueError, match=message):
            DiagonalGaussianProposal(mean, sigmas)

    @pytest.mark.parametrize("lower, upper, message", [
        ((0.0, 0.0), (1.0,), "same length"),
        (((0.0, 0.0),), ((1.0, 1.0),), "1-D"),
        ((0.0, 1.0), (1.0, 1.0), "upper must exceed lower"),
        ((0.0, 2.0), (1.0, 1.0), "upper must exceed lower"),
        ((-np.inf,), (np.inf,), "bounds must be finite"),
        ((0.0, 0.0), (1.0, np.inf), "bounds must be finite"),
        ((0.0, np.nan), (1.0, 1.0), "upper must exceed lower"),
    ], ids=["lengths", "2-D", "equal", "reversed", "infinite", "infinite upper", "nan"])
    def test_uniform_box_rejects(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            UniformBoxProposal(lower, upper)
