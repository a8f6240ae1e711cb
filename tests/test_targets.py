"""Target densities and shell geometry against closed-form oracles."""

import math
import re
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp
from scipy.stats import norm

from mcmclab.diagnostics import evidence_from_chain, histogram_density
from mcmclab.errors import NumericalError
from mcmclab.grid import GridSpec, build_grid, grid_evidence, grid_expectation
from mcmclab.importance import DiagonalGaussianProposal, importance_weights
from mcmclab.summaries import DiscretizedPosterior, posterior_predictive_noisy_mean
from mcmclab.targets import (
    DiagonalGaussianTarget,
    IsotropicGaussianTarget,
    NoisyMeanModel,
    TargetDensity,
    _log_density_rows,
    _log_sum_exp,
    _rows_agree,
    half_volume_length_fraction,
    log_unnorm_density,
    radial_log_mass,
    shell_stats,
)
from mcmclab.harness import (
    NOISY_MEAN_OBSERVATIONS,
    NOISY_MEAN_PRIOR,
    noisy_mean_model,
)


def conjugate_posterior(observations, prior_mean, prior_sd):
    """Precision-weighted normal-normal posterior (independent oracle)."""
    precision = 1.0 / prior_sd**2
    weighted = prior_mean / prior_sd**2
    for value, sigma in observations:
        precision += 1.0 / sigma**2
        weighted += value / sigma**2
    return weighted / precision, 1.0 / np.sqrt(precision)


class TestLogUnnormDensity:
    def test_isotropic_at_mean_is_zero(self):
        target = IsotropicGaussianTarget(3, 1.0)
        assert log_unnorm_density(target, [0.0, 0.0, 0.0]) == 0.0

    def test_isotropic_1d_kernel_value(self):
        target = IsotropicGaussianTarget(1, 1.0)
        assert log_unnorm_density(target, [2.0]) == pytest.approx(-2.0, abs=1e-15)

    def test_noisy_mean_matches_conjugate_up_to_constant(self):
        model = noisy_mean_model()
        mean, sd = conjugate_posterior(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_PRIOR)
        grid = np.array([27.0, 28.5, 29.44, 30.0, 31.5])
        ours = np.array([log_unnorm_density(model, [t]) for t in grid])
        oracle = norm.logpdf(grid, mean, sd)
        offsets = ours - oracle
        assert np.allclose(offsets, offsets[0], atol=1e-9)

    def test_dimension_mismatch_raises(self):
        target = IsotropicGaussianTarget(3, 1.0)
        with pytest.raises(ValueError):
            log_unnorm_density(target, [0.0, 0.0])

    def test_deterministic(self):
        target = DiagonalGaussianTarget((0.5, -1.0), (1.0, 2.0))
        theta = [0.3, 0.4]
        assert log_unnorm_density(target, theta) == log_unnorm_density(target, theta)

    def test_rotation_invariance(self):
        target = IsotropicGaussianTarget(4, 1.3)
        rng = np.random.default_rng(11)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            theta = rng.standard_normal(4)
            assert log_unnorm_density(target, q @ theta) == pytest.approx(
                log_unnorm_density(target, theta), rel=1e-12
            )

    def test_vectorized_matches_scalar(self):
        model = noisy_mean_model()
        pts = np.linspace(20, 35, 7).reshape(-1, 1)
        many = model.log_density_many(pts)
        each = [model.log_density(p) for p in pts]
        np.testing.assert_allclose(many, each, rtol=1e-13)

    def test_noisy_mean_without_observations_is_prior(self):
        model = NoisyMeanModel((), 25.0, 1.5)
        for t in (22.0, 25.0, 28.0):
            assert model.log_density([t]) == pytest.approx(
                norm.logpdf(t, 25.0, 1.5), rel=1e-12
            )


def random_target(kind, dim, rng):
    """A target of ``kind`` with random parameters; noisy-mean is 1-D."""
    if kind == "isotropic":
        return IsotropicGaussianTarget(dim, float(10.0 ** rng.uniform(-2, 2)))
    if kind == "diagonal":
        return DiagonalGaussianTarget(
            tuple(rng.normal(0.0, 10.0, dim)), tuple(10.0 ** rng.uniform(-2, 2, dim))
        )
    observations = tuple(
        (float(v), float(s))
        for v, s in zip(rng.normal(25.0, 5.0, dim - 1), 10.0 ** rng.uniform(-1, 1, dim - 1))
    )
    return NoisyMeanModel(observations, float(rng.normal(25.0, 5.0)), 1.5)


class TestBatchedEvaluation:
    # the ensemble driver's streams rely on each row of log_density_many
    # equalling the single-point log_density bit for bit
    @pytest.mark.parametrize("kind", ["isotropic", "diagonal", "noisy-mean"])
    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 40),
        n=st.integers(1, 50),
        log_scale=st.floats(-3.0, 3.0),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_single_point_evaluation(self, kind, dim, n, log_scale, offset, seed):
        rng = np.random.default_rng(seed)
        target = random_target(kind, dim, rng)
        points = offset + 10.0 ** log_scale * rng.standard_normal((n, target.dim))
        many = target.log_density_many(points)
        each = np.array([target.log_density(p) for p in points])
        assert many.shape == (n,)
        assert many.tobytes() == each.tobytes()


    @pytest.mark.parametrize("n", [1, 3, 10_000])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_diagonal_rows_equal_the_broadcast_formula_bit_for_bit(self, dim, n):
        rng = np.random.default_rng(500 + dim)
        target = random_target("diagonal", dim, rng)
        mu, sig = np.array(target.mean), np.array(target.sigmas)
        pts = mu + rng.standard_normal((n, dim)) * sig * 3.0
        z = (pts - mu) / sig
        ref = np.vecdot(-0.5 * z, z)
        assert target.log_density_many(pts).tobytes() == ref.tobytes()

class TestNoisyMeanShape:
    def test_log_density_is_exactly_quadratic(self):
        # second finite difference of a quadratic is constant
        model = noisy_mean_model()
        ts = np.linspace(24.0, 34.0, 41)
        vals = model.log_density_many(ts.reshape(-1, 1))
        second = np.diff(vals, n=2)
        assert np.allclose(second, second[0], atol=1e-9)


class TestLogSumExp:
    @pytest.mark.parametrize("case", ["ties", "neg-inf", "one", "ten-thousand"])
    def test_matches_scipy(self, case):
        rng = np.random.default_rng(41)
        a = {
            "ties": np.array([3.0, -1.0, 3.0, 2.5, 3.0, -7.0]),
            "neg-inf": np.array([-np.inf, 0.3, -np.inf, -2.0, 0.3]),
            "one": np.array([-812.5]),
            "ten-thousand": 200.0 * rng.standard_normal(10_000),
        }[case]
        expected = float(logsumexp(a))
        assert _log_sum_exp(a) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_keeps_the_precision_of_a_small_rest(self):
        # log(sum(exp(a))) loses the rest, 1000 e^-40, in the 1 it is added to
        a = [0.0] + [-40.0] * 1000
        expected = math.log1p(1000 * math.exp(-40))
        assert _log_sum_exp(a) == pytest.approx(expected, rel=1e-15, abs=0.0)


class SpikedGaussian(IsotropicGaussianTarget):
    """Unit Gaussian in 2-D whose log density is ``bad`` where ``x_0 > 1``."""

    def __init__(self, bad):
        super().__init__(2, 1.0)
        object.__setattr__(self, "bad", bad)

    def log_density_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.where(pts[:, 0] > 1.0, self.bad, super().log_density_many(pts))


def _point_pattern(point):
    return re.escape(np.array2string(np.asarray(point, float), precision=6, separator=", "))


class TestEstimatorTargetContract:
    # a NaN or +inf log density from the target raises, naming the first
    # offending point, instead of a silent nan or inf estimate

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grid_log_weights(self, bad):
        target = SpikedGaussian(bad)
        cells = build_grid(GridSpec.regular([(-2.0, 2.0), (-2.0, 2.0)], 4))
        first = cells.midpoints[cells.midpoints[:, 0] > 1.0][0]
        for estimate in (
            lambda: grid_evidence(target, cells),
            lambda: grid_expectation(target, cells, lambda x: x[:, 0]),
            lambda: DiscretizedPosterior.from_grid(target, cells),
        ):
            with pytest.raises(NumericalError, match=_point_pattern(first)):
                estimate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_importance_weights(self, bad):
        points = np.array([[0.5, 0.0], [-1.0, 1.0], [1.25, -0.5], [2.0, 2.0]])
        proposal = DiagonalGaussianProposal((0.0, 0.0), (2.0, 2.0))
        with pytest.raises(NumericalError, match=_point_pattern(points[2])):
            importance_weights(SpikedGaussian(bad), proposal, points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evidence_from_chain(self, bad):
        samples = np.random.default_rng(43).standard_normal((500, 2))
        first = samples[samples[:, 0] > 1.0][0]
        density = histogram_density(samples, bins=5)
        with pytest.raises(NumericalError, match=_point_pattern(first)):
            evidence_from_chain(SpikedGaussian(bad), samples, density)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_posterior_predictive_noisy_mean(self, bad):
        class SpikedNoisyMean(NoisyMeanModel):
            """``bad`` at the point of each batch nearest 30; records the batches."""

            def log_density_many(self, points):
                self.batches.append(np.array(points, dtype=float))
                lp = super().log_density_many(points)
                lp[np.argmin(np.abs(points[:, 0] - 30.0))] = bad
                return lp

        base = noisy_mean_model()
        model = SpikedNoisyMean(base.observations, base.prior_mean, base.prior_sd)
        object.__setattr__(model, "batches", [])
        with pytest.raises(NumericalError) as raised:
            posterior_predictive_noisy_mean(model, 0.5, np.array([29.0, 30.0]))
        (support,) = model.batches
        spike = support[np.argmin(np.abs(support[:, 0] - 30.0))]
        assert re.search(_point_pattern(spike), str(raised.value))

    def test_evidence_from_chain_all_zero_density_warns_and_returns_zero(self):
        samples = np.random.default_rng(44).random((50, 2)) + 2.0
        density = histogram_density(samples, bins=3)
        with pytest.warns(RuntimeWarning, match="zero target density"):
            assert evidence_from_chain(SpikedGaussian(-np.inf), samples, density) == 0.0


class ShiftedGaussian(IsotropicGaussianTarget):
    """Overrides ``log_density`` alone: ``shift`` plus the unit Gaussian kernel.

    The ``log_density_many`` it inherits lacks the shift.
    """

    def __init__(self, dim, shift):
        super().__init__(dim, 1.0)
        object.__setattr__(self, "shift", shift)

    def log_density(self, theta):
        return super().log_density(theta) + self.shift


class TestRowsAgree:
    def test_which_targets_may_be_evaluated_in_batches(self):
        class OnlyScalar(TargetDensity):
            dim = 1

            def log_density(self, theta):
                return 0.0

        class DuckTyped:
            dim = 1

            def log_density(self, theta):
                return 0.0

        assert _rows_agree(IsotropicGaussianTarget(2))
        assert _rows_agree(NoisyMeanModel(((1.0, 1.0),), 0.0, 1.0))
        # a vectorized method defined below log_density is written for it
        assert _rows_agree(SpikedGaussian(np.nan))
        assert not _rows_agree(ShiftedGaussian(2, 1.0))
        assert not _rows_agree(OnlyScalar())
        assert not _rows_agree(DuckTyped())
        points = np.array([[0.0], [2.0]])
        np.testing.assert_array_equal(_log_density_rows(DuckTyped())(points), [0.0, 0.0])

    def test_rows_of_a_shifted_target_keep_the_shift(self):
        points = np.random.default_rng(45).standard_normal((7, 3))
        rows = _log_density_rows(ShiftedGaussian(3, 1.0))(points)
        np.testing.assert_array_equal(rows, [ShiftedGaussian(3, 1.0).log_density(p) for p in points])

    def test_a_result_of_the_wrong_shape_raises(self):
        class Flat(IsotropicGaussianTarget):
            def log_density_many(self, points):
                return np.zeros(1)

        with pytest.raises(ValueError, match=r"returned shape \(1,\) for 3 points"):
            _log_density_rows(Flat(2))(np.zeros((3, 2)))

    def test_estimators_see_a_shift_of_log_density_alone(self):
        # each once read the inherited, unshifted log_density_many: a +1
        # shift gave a grid evidence of sqrt(2 pi) = 2.507, not e sqrt(2 pi)
        shifted, base = ShiftedGaussian(1, 1.0), IsotropicGaussianTarget(1)
        cells = build_grid(GridSpec.regular([(-10.0, 10.0)], 400))
        assert grid_evidence(shifted, cells) == pytest.approx(
            math.e * math.sqrt(2 * math.pi), rel=1e-12)
        points = np.random.default_rng(46).standard_normal((200, 1))
        proposal = DiagonalGaussianProposal((0.0,), (2.0,))
        np.testing.assert_allclose(importance_weights(shifted, proposal, points).log_weights,
                                   importance_weights(base, proposal, points).log_weights + 1.0,
                                   rtol=1e-14)
        density = histogram_density(points, bins=5)
        assert evidence_from_chain(shifted, points, density) == pytest.approx(
            math.e * evidence_from_chain(base, points, density), rel=1e-12)


# pi to 50 significant digits
_PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def exact_shell_moments(d):
    """Mean radius ``sqrt(2) G`` and radial sd ``sqrt(d - 2 G^2)`` of N(0, I_d),
    ``G = Gamma((d+1)/2) / Gamma(d/2)``, to about 50 digits, from the exact
    factorial form of the Gamma ratio:
    ``Gamma(k+1/2)/Gamma(k) = (2k)! sqrt(pi) / (4^k k! (k-1)!)`` for d = 2k
    and ``Gamma(k+1)/Gamma(k+1/2) = 4^k k!^2 / ((2k)! sqrt(pi))`` for
    d = 2k+1."""
    k = d // 2
    with localcontext() as ctx:
        ctx.prec = 60
        if d % 2 == 0:
            q = Fraction(math.factorial(2 * k),
                         4**k * math.factorial(k) * math.factorial(k - 1))
            ratio_sq = _PI_50 * Decimal(q.numerator) ** 2 / Decimal(q.denominator) ** 2
        else:
            q = Fraction(4**k * math.factorial(k) ** 2, math.factorial(2 * k))
            ratio_sq = Decimal(q.numerator) ** 2 / Decimal(q.denominator) ** 2 / _PI_50
        return float((2 * ratio_sq).sqrt()), float((d - 2 * ratio_sq).sqrt())


class TestShellStats:
    @pytest.mark.parametrize(
        "d", [1, 2, 3, 10, 22, 23, 24, 25, 99, 100, 999, 1000, 4001, 7777, 9999, 10_000]
    )
    def test_radial_moments_match_exact_gamma_ratio(self, d):
        mean, sd = exact_shell_moments(d)
        stats = shell_stats(d, 1.0)
        assert abs(stats.dr_mean - sd) <= 1e-12 * sd
        assert abs(stats.r_mean - mean) <= 1e-12 * mean

    def test_peak_radius_values(self):
        assert shell_stats(10, 1.0).r_peak == pytest.approx(3.0, abs=1e-12)
        assert shell_stats(1, 1.0).r_peak == 0.0
        assert shell_stats(26, 1.0).r_peak == pytest.approx(5.0, abs=1e-12)

    def test_mean_radius_large_d(self):
        stats = shell_stats(100, 1.0)
        assert stats.r_mean == pytest.approx(10.0, rel=5e-3)

    def test_shell_width_limit(self):
        stats = shell_stats(200, 1.0)
        assert stats.dr_mean == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-2)

    def test_separation_scale(self):
        stats = shell_stats(8, 2.0)
        assert stats.dr_sep == pytest.approx(np.sqrt(16.0) * 2.0 / np.sqrt(2.0) * np.sqrt(2.0))
        assert stats.dr_sep == pytest.approx(np.sqrt(2.0 * 8) * 2.0)

    def test_mean_radius_exact_low_d(self):
        # d=2: sqrt(2) * Gamma(1.5)/Gamma(1) = sqrt(2) * sqrt(pi)/2 = sqrt(pi/2)
        assert shell_stats(2, 1.0).r_mean == pytest.approx(np.sqrt(np.pi / 2), rel=1e-12)

    def test_large_d_does_not_overflow(self):
        stats = shell_stats(10_000, 1.0)
        assert np.isfinite(stats.r_mean)
        assert stats.r_mean == pytest.approx(100.0, rel=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shell_stats(0, 1.0)
        with pytest.raises(ValueError):
            shell_stats(3, -1.0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan, 0.0])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        # shell_stats(2, inf) once gave every statistic as inf
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            shell_stats(2, sigma)

    @pytest.mark.parametrize("d", [2.5, 3.0, np.nan, "3"])
    def test_non_integer_d_rejected(self, d):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            shell_stats(d, 1.0)

    def test_numpy_integer_d_accepted(self):
        assert shell_stats(np.int64(10), 1.0) == shell_stats(10, 1.0)


class TestRadialLogMass:
    def test_monotone_decreasing_in_1d(self):
        rs = np.linspace(0.0, 5.0, 200)
        vals = radial_log_mass(1, 1.0, rs)
        assert np.all(np.diff(vals) < 0)

    def test_argmax_matches_peak_radius(self):
        rs = np.arange(0.0, 6.0, 1e-3)
        vals = radial_log_mass(10, 1.0, rs)
        assert rs[np.argmax(vals)] == pytest.approx(3.0, abs=1e-3)

    def test_matches_3d_shell_integral_oracle(self):
        # direct shell mass: log(4 pi r^2 exp(-r^2/2)); equal up to a constant
        rs = np.linspace(0.4, 4.0, 25)
        ours = radial_log_mass(3, 1.0, rs)
        oracle = np.log(4.0 * np.pi * rs**2 * np.exp(-0.5 * rs**2))
        offsets = ours - oracle
        assert np.allclose(offsets, offsets[0], atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 30])
    def test_infinite_radius_has_zero_mass(self, d):
        # (d - 1) log r - r^2 / 2 once read inf - inf: NaN and an
        # invalid-value warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert radial_log_mass(d, 1.0, np.inf) == -np.inf
            got = radial_log_mass(d, 2.0, [0.5, np.inf])
        np.testing.assert_array_equal(got, [radial_log_mass(d, 2.0, 0.5), -np.inf])

    def test_zero_radius(self):
        assert radial_log_mass(5, 1.0, 0.0) == -np.inf
        assert radial_log_mass(1, 1.0, 0.0) == 0.0

    def test_unique_maximum_for_d_at_least_2(self):
        rs = np.arange(1e-4, 8.0, 1e-3)
        for d in (2, 4, 9):
            vals = radial_log_mass(d, 1.0, rs)
            peak = np.argmax(vals)
            assert rs[peak] == pytest.approx(np.sqrt(d - 1.0), abs=2e-3)
            # strictly unimodal: increasing before, decreasing after
            assert np.all(np.diff(vals[:peak]) > 0)
            assert np.all(np.diff(vals[peak + 1:]) < 0)

    @pytest.mark.parametrize("d, sigma, r, message", [
        (0, 1.0, 1.0, "d must be a positive integer"),
        (2.5, 1.0, 1.0, "d must be a positive integer"),
        (2.0, 1.0, 1.0, "d must be a positive integer"),
        (2, 0.0, 1.0, "sigma must be positive"),
        (2, -1.0, 1.0, "sigma must be positive"),
        (2, np.nan, 1.0, "sigma must be positive"),
        (2, 1.0, -0.5, "radius must be nonnegative"),
        (2, 1.0, [1.0, -1e-9], "radius must be nonnegative"),
        (2, 1.0, np.nan, "radius must be nonnegative, not NaN"),
        (1, 1.0, [1.0, np.nan], "radius must be nonnegative, not NaN"),
        (2, np.inf, 1.0, "sigma must be positive and finite"),
    ])
    def test_input_validation(self, d, sigma, r, message):
        with pytest.raises(ValueError, match=message):
            radial_log_mass(d, sigma, r)


class TestHalfVolumeFraction:
    def test_values(self):
        assert half_volume_length_fraction(1) == 0.5
        assert half_volume_length_fraction(2) == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert half_volume_length_fraction(2) == pytest.approx(0.707, abs=5e-4)
        assert half_volume_length_fraction(15) == pytest.approx(0.955, abs=1e-3)

    @pytest.mark.parametrize("d", [0, -1, 2.5, 2.0])
    def test_d_must_be_a_positive_integer(self, d):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            half_volume_length_fraction(d)

    def test_monotone_to_one(self):
        vals = [half_volume_length_fraction(d) for d in range(1, 60)]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0


class TestConstruction:
    def test_isotropic_validation(self):
        with pytest.raises(ValueError):
            IsotropicGaussianTarget(0, 1.0)
        with pytest.raises(ValueError):
            IsotropicGaussianTarget(2, 0.0)

    @pytest.mark.parametrize("dim", [2.5, 2.0, 0, -1])
    def test_isotropic_dim_is_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="d must be a positive integer"):
            IsotropicGaussianTarget(dim)

    def test_isotropic_dim_may_be_a_numpy_integer(self):
        target = IsotropicGaussianTarget(np.int64(3))
        assert target.dim == 3
        assert target.log_density(np.ones(3)) == -1.5

    def test_diagonal_validation(self):
        with pytest.raises(ValueError):
            DiagonalGaussianTarget((0.0,), (1.0, 2.0))
        with pytest.raises(ValueError):
            DiagonalGaussianTarget((0.0, 0.0), (1.0, -1.0))

    @pytest.mark.parametrize("make, message", [
        (lambda: IsotropicGaussianTarget(2, math.inf), "sigma must be positive and finite"),
        (lambda: DiagonalGaussianTarget((0.0,), (math.inf,)), "sigmas must be positive and finite"),
        (lambda: DiagonalGaussianTarget((0.0, 0.0), (1.0, np.nan)),
         "sigmas must be positive and finite"),
        (lambda: DiagonalGaussianTarget((math.inf,), (1.0,)), "mean must be finite"),
        (lambda: DiagonalGaussianTarget((0.0, np.nan), (1.0, 1.0)), "mean must be finite"),
    ], ids=["isotropic inf sigma", "diagonal inf sigma", "diagonal nan sigma",
            "diagonal inf mean", "diagonal nan mean"])
    def test_gaussian_parameters_must_be_finite(self, make, message):
        # DiagonalGaussianTarget((0.,), (inf,)) once built a flat target, 0 everywhere
        with pytest.raises(ValueError, match=message):
            make()

    def test_noisy_mean_validation(self):
        with pytest.raises(ValueError):
            NoisyMeanModel(((1.0, 0.0),), 0.0, 1.0)
        with pytest.raises(ValueError):
            NoisyMeanModel((), 0.0, -2.0)

    @pytest.mark.parametrize("observations, prior_mean, prior_sd, message", [
        (((math.nan, 1.0),), 0.0, 1.0, "observations need finite values"),
        (((math.inf, 1.0),), 0.0, 1.0, "observations need finite values"),
        (((1.0, math.nan),), 0.0, 1.0, "positive, finite sigmas"),
        (((1.0, math.inf),), 0.0, 1.0, "positive, finite sigmas"),
        ((), math.nan, 1.0, "prior_mean must be finite"),
        ((), -math.inf, 1.0, "prior_mean must be finite"),
        ((), 0.0, math.inf, "prior_sd must be positive and finite"),
        ((), 0.0, math.nan, "prior_sd must be positive and finite"),
    ])
    def test_noisy_mean_parameters_must_be_finite(self, observations, prior_mean, prior_sd,
                                                  message):
        # ((nan, 1.0),) once gave a log density of NaN everywhere, and an
        # infinite sigma or prior_sd -inf everywhere
        with pytest.raises(ValueError, match=message):
            NoisyMeanModel(observations, prior_mean, prior_sd)

    def test_out_of_support_returns_neg_inf_not_error(self):
        # contract: zero density is -inf, never an exception
        class HalfLine(IsotropicGaussianTarget):
            def log_density(self, theta):
                if theta[0] < 0:
                    return -np.inf
                return super().log_density(theta)

        target = HalfLine(1, 1.0)
        assert log_unnorm_density(target, [-1.0]) == -np.inf


class TestNoisyMeanEvidenceOracle:
    def test_quadrature_matches_conjugate_marginal(self):
        # the normalized likelihood x prior integrates to the closed-form
        # marginal likelihood of the normal-normal model
        model = noisy_mean_model()
        z_quad, _ = quad(lambda t: np.exp(model.log_density([t])), 15.0, 45.0)
        values = np.array([v for v, _ in NOISY_MEAN_OBSERVATIONS])
        sigmas = np.array([s for _, s in NOISY_MEAN_OBSERVATIONS])
        mu0, sd0 = NOISY_MEAN_PRIOR
        # sequential 1-D marginals: each observation is Normal(mu_k, s_k^2 + sd_k^2)
        z_closed = 1.0
        mean_k, var_k = mu0, sd0**2
        for v, s in zip(values, sigmas):
            z_closed *= norm.pdf(v, mean_k, np.sqrt(var_k + s**2))
            post_prec = 1.0 / var_k + 1.0 / s**2
            mean_k = (mean_k / var_k + v / s**2) / post_prec
            var_k = 1.0 / post_prec
        assert z_quad == pytest.approx(z_closed, rel=1e-10)
