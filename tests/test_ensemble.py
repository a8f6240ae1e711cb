"""Ensemble proposals: covariance shaping, difference moves, stretch moves."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import mcmclab.ensemble as ens
from mcmclab.diagnostics import per_coordinate_tau
from mcmclab.ensemble import (
    DEFAULT_DELTA,
    ENSEMBLE_METHODS,
    MIN_CHAINS,
    StretchLaw,
    _partner_pairs,
    _walk_weights,
    de_step,
    de_trajectory_count,
    ensemble_covariance,
    ensemble_gaussian_step,
    run_ensemble,
    sample_stretch_factor,
    stretch_step,
)
from mcmclab.errors import NumericalError
from mcmclab.mh import GaussianRandomWalk, _batch_size, run_chain
from mcmclab.targets import IsotropicGaussianTarget, TargetDensity


class FixedUniform:
    """Duck-typed generator returning preprogrammed uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(size)])


class Ball(TargetDensity):
    """N(0, I) inside radius 10; ``outside`` as the log density beyond it."""

    def __init__(self, dim, outside):
        self.dim = dim
        self.outside = outside

    def log_density(self, theta):
        r2 = float(theta @ theta)
        return -0.5 * r2 if r2 < 100.0 else self.outside


class VectorBall(Ball):
    """``Ball`` with a vectorised ``log_density_many`` that logs each batch.

    ``batches`` holds each call's row count and ``outside_rows`` counts the rows
    evaluated beyond radius 10.
    """

    def __init__(self, dim, outside):
        super().__init__(dim, outside)
        self.batches = []
        self.outside_rows = 0

    def log_density_many(self, points):
        r2 = np.vecdot(points, points)
        self.batches.append(len(points))
        self.outside_rows += int(np.sum(r2 >= 100.0))
        return np.where(r2 < 100.0, -0.5 * r2, self.outside)


class CountingTarget(TargetDensity):
    """N(0, I) that counts its single-point evaluations."""

    def __init__(self, dim):
        self.dim = dim
        self.calls = 0

    def log_density(self, theta):
        self.calls += 1
        return -0.5 * float(theta @ theta)


class CorrelatedGaussian2D(TargetDensity):
    """N(0, Sigma) in 2-D with marginal scales ``scales`` and correlation ``rho``."""

    def __init__(self, rho, scales):
        self.dim = 2
        cov = np.outer(scales, scales) * np.array([[1.0, rho], [rho, 1.0]])
        self.chol = np.linalg.cholesky(cov)
        self.precision = np.linalg.inv(cov)

    def log_density(self, theta):
        return -0.5 * float(theta @ self.precision @ theta)


def assert_close_in_norm(got, want, rtol):
    """Largest entrywise error within ``rtol`` of the largest entry of ``want``."""
    err = np.max(np.abs(got - want))
    assert err <= rtol * np.max(np.abs(want)), (err, np.max(np.abs(want)))


# moves that fling the candidate far outside the unit ball
FAR_MOVES = {
    "gaussian": lambda pos, j, rng, target: ensemble_gaussian_step(
        target, pos, j, 100.0, rng),
    "de": lambda pos, j, rng, target: de_step(target, pos, j, 100.0, rng),
    "stretch": lambda pos, j, rng, target: stretch_step(
        target, pos, j, StretchLaw(a=1000.0), rng),
}


def far_moves(method):
    """The ``run_ensemble`` arguments of the same far moves."""
    return {"law": StretchLaw(a=1000.0)} if method == "stretch" else {"gamma": 100.0}


class TestLooCovariance:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 60),
        d=st.integers(1, 12),
        kind=st.sampled_from(["offset", "collapsed", "rank-deficient"]),
        offset=st.floats(-50.0, 50.0),
        log_scale=st.floats(-2.0, 2.0),
    )
    def test_matches_np_cov_bit_for_bit(self, seed, m, d, kind, offset, log_scale):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        if kind == "offset":
            positions = offset + scale * rng.standard_normal((m, d))
        elif kind == "collapsed":
            positions = offset + 1e-9 * scale * rng.standard_normal((m, d))
        else:
            rank = max(1, min(d, m - 1) - 1)
            basis = rng.standard_normal((rank, d))
            positions = offset + scale * rng.standard_normal((m, rank)) @ basis
        j = int(rng.integers(m))
        expected = np.atleast_2d(
            np.cov(np.delete(positions, j, axis=0), rowvar=False, ddof=1)
        )
        got = ensemble_covariance(positions, j)
        np.testing.assert_array_equal(got, expected)


def row_weights(z, j, scale):
    """Chain ``j``'s walk weights from its standard normal row ``z``, spelled out.

    Zero the own entry, subtract the mean of the others, zero the own entry
    again and scale by ``scale / sqrt(m - 2)``: what ``_walk_weights`` does
    to each row of a block.
    """
    m = z.size
    w = z.copy()
    w[j] = 0.0
    w -= w.sum() / (m - 1)
    w[j] = 0.0
    w *= scale / math.sqrt(m - 2)
    return w


def walk_rounding(positions):
    """Bound on the rounding of each entry of a walk step ``w @ positions``.

    Each entry is a dot product of m weights, of 1-norm below
    ``2/sqrt(m-2)``, with the positions, so it rounds by at most
    ``(m + 2) eps`` times that norm times the largest position: the scale of
    the positions, not of their spread.
    """
    m = positions.shape[0]
    return (m + 2) * np.finfo(float).eps * 2.0 / np.sqrt(m - 2) * np.max(np.abs(positions))


class TestWalkWeights:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 130),
        r=st.integers(1, 40),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_block_equals_one_row_at_a_time(self, seed, m, r, log_scale):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((r, m))
        rows = rng.integers(m, size=r)
        scale = 10.0 ** log_scale
        got = _walk_weights(z.copy(), rows, scale)
        want = np.array([row_weights(z[i], j, scale) for i, j in enumerate(rows)])
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 30),
        d=st.integers(1, 8),
        log_offset=st.one_of(st.none(), st.floats(-2.0, 6.0)),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_unit_weights_sum_to_the_covariance(self, seed, m, d, log_offset, log_scale):
        # sum_i step(e_i) step(e_i)^T is C exactly, also below d + 2 chains
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        offset = 0.0 if log_offset is None else 10.0 ** log_offset
        positions = scale * (offset * rng.standard_normal(d) + rng.standard_normal((m, d)))
        j = int(rng.integers(m))
        w = _walk_weights(np.eye(m), np.full(m, j), 1.0)
        steps = np.array([wi @ positions for wi in w])
        np.testing.assert_array_equal(steps[j], 0.0)
        want = ensemble_covariance(positions, j)
        err = np.max(np.abs(steps.T @ steps - want))
        # 1e-12 of C's largest entry, plus what the positions' own rounding
        # does to m outer products; that dominates only for offsets far
        # larger than the spread
        r = walk_rounding(positions)
        assert err <= 1e-12 * np.max(np.abs(want)) + m * (2.0 * np.max(np.abs(steps)) * r + r**2)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 30),
        d=st.integers(1, 8),
        log_offset=st.floats(-2.0, 6.0),
    )
    def test_step_is_odd_in_the_weights(self, seed, m, d, log_offset):
        rng = np.random.default_rng(seed)
        positions = 10.0 ** log_offset + rng.standard_normal((m, d))
        rows = rng.integers(m, size=5)
        z = rng.standard_normal((5, m))
        w = _walk_weights(z.copy(), rows, 1.0)
        w_neg = _walk_weights(-z, rows, 1.0)
        for i in range(5):
            np.testing.assert_array_equal(w_neg[i] @ positions, -(w[i] @ positions))

    @pytest.mark.parametrize("point", [0.0, 1.0, -3e5])
    @pytest.mark.parametrize("m, d", [(3, 1), (5, 3), (4, 8), (100, 20)])
    def test_collapsed_ensemble_steps_nowhere(self, point, m, d):
        positions = np.full((m, d), point)
        rng = np.random.default_rng(m + d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = _walk_weights(rng.standard_normal((m, m)), np.arange(m), 1.0)
            steps = np.array([wi @ positions for wi in w])
        assert np.all(np.isfinite(steps))
        # zero up to the rounding of the positions themselves
        assert np.max(np.abs(steps)) <= walk_rounding(positions)
        if point == 0.0:
            np.testing.assert_array_equal(steps, 0.0)


class TestEnsembleCovariance:
    def test_collapsed_ensemble_has_exactly_zero_covariance(self):
        positions = np.vstack([np.ones((4, 3)), [[2.0, 2.0, 2.0]]])
        cov = ensemble_covariance(positions, exclude=4)  # others identical
        np.testing.assert_array_equal(cov, np.zeros((3, 3)))

    def test_four_point_cross_is_isotropic(self):
        positions = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [9.0, 9.0]]
        )
        cov = ensemble_covariance(positions, exclude=4)
        np.testing.assert_allclose(cov, np.eye(2) * (2.0 / 3.0), atol=1e-12)

    def test_excluded_chain_does_not_affect_covariance(self):
        rng = np.random.default_rng(0)
        positions = rng.standard_normal((8, 3))
        cov_a = ensemble_covariance(positions, exclude=2)
        moved = positions.copy()
        moved[2] += 100.0
        cov_b = ensemble_covariance(moved, exclude=2)
        np.testing.assert_array_equal(cov_a, cov_b)

    def test_needs_three_chains(self):
        with pytest.raises(ValueError):
            ensemble_covariance(np.zeros((2, 2)), exclude=0)

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_flat_positions_are_one_dimensional_chains(self, j):
        # a flat (m,) array was read as one m-dimensional chain: "gaussian
        # moves need at least 3 chains, got 1" for an ensemble of five
        x = np.array([0.1, 0.2, 0.3, 0.4, 1.7])
        want = np.array([[np.cov(np.delete(x, j), ddof=1)]])
        np.testing.assert_array_equal(ensemble_covariance(x, j), want)
        # the shape is named before the chain count
        shape = r"positions must have shape \(m, d\), got \(2, 2, 1\)"
        with pytest.raises(ValueError, match=shape):
            ensemble_covariance(np.zeros((2, 2, 1)), 0)


class TestEnsembleGaussianStep:
    def test_tiny_gamma_always_accepts(self):
        target = IsotropicGaussianTarget(3, 1.0)
        rng = np.random.default_rng(1)
        positions = rng.standard_normal((20, 3))
        accepts = [
            ensemble_gaussian_step(target, positions, j, 1e-8, rng)[1]
            for j in range(20)
            for _ in range(20)
        ]
        assert np.mean(accepts) == 1.0

    def test_acceptance_near_quarter_at_d10(self):
        target = IsotropicGaussianTarget(10, 1.0)
        state = run_ensemble(
            "gaussian", target, m=100, n_sweeps=120,
            rng=np.random.default_rng(2), gamma=2.5 / np.sqrt(10),
        )
        assert state.acceptance_fraction() == pytest.approx(0.25, abs=0.10)

    def test_identity_covariance_matches_plain_random_walk(self):
        # freeze the other chains so their sample covariance is exactly the
        # identity; updating one chain then IS a plain Gaussian random walk
        d, gamma = 3, 0.8
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((40, d))
        centered = raw - raw.mean(axis=0)
        chol = np.linalg.cholesky(np.cov(centered, rowvar=False, ddof=1))
        whitened = centered @ np.linalg.inv(chol).T
        target = IsotropicGaussianTarget(d, 1.0)

        ens_accepts = []
        positions = np.vstack([whitened, np.zeros(d)])
        j = len(positions) - 1
        cov = ensemble_covariance(positions, j)
        np.testing.assert_allclose(cov, np.eye(d), atol=1e-10)
        rng_a = np.random.default_rng(4)
        current = np.zeros(d)
        for _ in range(10_000):
            positions[j] = current
            current, acc = ensemble_gaussian_step(target, positions, j, gamma, rng_a)
            ens_accepts.append(acc)

        walk = run_chain(
            target, GaussianRandomWalk(gamma), np.zeros(d), 10_000,
            np.random.default_rng(5),
        )
        # same acceptance statistics within Monte Carlo error
        p = walk.accepted.mean()
        se = np.sqrt(2.0 * p * (1 - p) / 10_000)
        assert abs(np.mean(ens_accepts) - p) < 4.0 * se


class TestDeStep:
    def test_degenerate_gamma_stalls(self):
        target = IsotropicGaussianTarget(2, 1.0)
        rng = np.random.default_rng(6)
        positions = rng.standard_normal((5, 2))
        current = positions[1].copy()
        new, accepted = de_step(target, positions, 1, 0.0, rng, jitter_sd=0.0)
        assert accepted
        np.testing.assert_array_equal(new, current)

    def test_trajectory_counts(self):
        assert de_trajectory_count(5) == 6
        assert de_trajectory_count(100) == 4851

    def test_acceptance_near_quarter_at_d10(self):
        target = IsotropicGaussianTarget(10, 1.0)
        state = run_ensemble(
            "de", target, m=100, n_sweeps=120,
            rng=np.random.default_rng(7), gamma=1.7 / np.sqrt(10),
        )
        assert state.acceptance_fraction() == pytest.approx(0.25, abs=0.10)

    def test_difference_vector_covariance_is_twice_target(self):
        # particles iid Normal(mu, C): differences have covariance 2C
        rng = np.random.default_rng(8)
        chol = np.array([[1.0, 0.0], [0.7, 0.5]])
        cov = chol @ chol.T
        particles = rng.standard_normal((10_000, 2)) @ chol.T + np.array([3.0, -1.0])
        k = rng.integers(0, 10_000, size=10_000)
        l = (k + 1 + rng.integers(0, 9_999, size=10_000)) % 10_000
        diffs = particles[k] - particles[l]
        sample_cov = np.cov(diffs, rowvar=False)
        np.testing.assert_allclose(sample_cov, 2.0 * cov, rtol=0.05, atol=0.02)

    def test_needs_three_chains(self):
        target = IsotropicGaussianTarget(2, 1.0)
        with pytest.raises(ValueError):
            de_step(target, np.zeros((2, 2)), 0, 1.0, np.random.default_rng(9))

    def test_zero_sd_coordinate_gets_exactly_no_jitter(self):
        # every chain shares the third coordinate, so the difference vector
        # is zero there and only jitter could move it
        target = IsotropicGaussianTarget(3, 1.0)
        rng = np.random.default_rng(35)
        positions = rng.standard_normal((12, 3))
        positions[:, 2] = 0.3
        accepts = 0
        for _ in range(20):
            for j in range(12):
                positions[j], acc = de_step(
                    target, positions, j, 0.5, rng, jitter_sd=np.sqrt([0.2, 0.1, 0.0])
                )
                accepts += acc
        assert accepts > 0
        np.testing.assert_array_equal(positions[:, 2], 0.3)

    @pytest.mark.parametrize("jitter_sd, match", [
        (np.full((3, 1), 0.1), r"shape \(3, 1\)"),
        (np.full(2, 0.1), r"shape \(2,\)"),
        (np.full(4, 0.1), r"shape \(4,\)"),
        (-0.1, ">= 0"),
        (np.array([0.1, np.nan, 0.1]), "finite"),
        (np.inf, "finite"),
    ], ids=["column", "short", "long", "negative", "nan", "inf"])
    def test_jitter_sd_is_a_finite_scalar_or_one_per_coordinate(self, jitter_sd, match):
        # a (d, 1) array would broadcast eps to (d, d)
        target = IsotropicGaussianTarget(3, 1.0)
        positions = np.random.default_rng(36).standard_normal((6, 3))
        with pytest.raises(ValueError, match=match):
            de_step(target, positions, 0, 0.5, np.random.default_rng(37), jitter_sd=jitter_sd)
        with pytest.raises(ValueError, match=match):
            run_ensemble("de", target, m=6, n_sweeps=1, rng=np.random.default_rng(37),
                         jitter_sd=jitter_sd)


class TestStretchFactor:
    def test_inverse_cdf_endpoints(self):
        law = StretchLaw(a=2.0)
        assert sample_stretch_factor(law, FixedUniform([0.0])) == pytest.approx(0.5)
        assert sample_stretch_factor(law, FixedUniform([1.0])) == pytest.approx(2.0)

    def test_probability_below_one(self):
        # P(gamma <= 1) = (sqrt(2) - 1) / (2 - 1) for a = 2
        law = StretchLaw(a=2.0)
        draws = sample_stretch_factor(law, np.random.default_rng(10), size=1_000_000)
        expected = np.sqrt(2.0) - 1.0
        assert np.mean(draws <= 1.0) == pytest.approx(expected, abs=2e-3)

    def test_support_is_always_inside_window(self):
        law = StretchLaw(a=3.0)
        draws = sample_stretch_factor(law, np.random.default_rng(11), size=10_000)
        assert draws.min() >= 1.0 / 3.0
        assert draws.max() <= 3.0

    def test_density_symmetry_identity(self):
        # g(1/gamma) = gamma * g(gamma) on the whole support
        law = StretchLaw(a=2.0)
        gammas = np.linspace(0.5, 2.0, 101)
        np.testing.assert_allclose(
            law.density(1.0 / gammas), gammas * law.density(gammas), rtol=1e-12
        )

    def test_invalid_range_parameter(self):
        with pytest.raises(ValueError):
            StretchLaw(a=1.0)

    @pytest.mark.parametrize("a", [np.nan, np.inf])
    def test_range_parameter_must_be_finite(self, a):
        with pytest.raises(ValueError, match="finite"):
            StretchLaw(a=a)

    def test_density_outside_window_is_zero_without_warnings(self):
        law = StretchLaw(a=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert law.density(-1.0) == 0.0
            assert law.density(0.0) == 0.0
            assert law.density(3.0) == 0.0
            np.testing.assert_array_equal(
                law.density(np.array([-4.0, -0.5, 0.0, 0.25, 2.5, np.nan])), 0.0
            )
            assert law.density(1.0) == pytest.approx(1.0 / (2.0 * (np.sqrt(2.0) - np.sqrt(0.5))))


class TestPartnerPairs:
    @pytest.mark.parametrize("m", [3, 4, 5, 12, 99, 100])
    def test_one_row_matches_rng_choice(self, m):
        # the spelled-out draws must track numpy's own choice exactly; a
        # numpy that samples differently fails here, not in a stream drift
        spelled, reference = np.random.default_rng(m), np.random.default_rng(m)
        got, want = [], []
        for t in range(4000):
            j = t % m
            k, l = _partner_pairs(m, np.array([j]), spelled)
            got.append((int(k[0]), int(l[0])))
            a, b = (int(i) for i in reference.choice(m - 1, size=2, replace=False))
            want.append((a + (a >= j), b + (b >= j)))
            # other draws in between, as in a de update
            spelled.standard_normal(3)
            reference.standard_normal(3)
            spelled.random()
            reference.random()
        assert got == want
        assert spelled.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 30), r=st.integers(1, 200))
    def test_partners_are_distinct_and_never_the_chain(self, seed, m, r):
        rng = np.random.default_rng(seed)
        rows = rng.integers(m, size=r)
        k, l = _partner_pairs(m, rows, rng)
        assert np.all(k != l)
        assert np.all((k != rows) & (l != rows))
        assert np.all((0 <= k) & (k < m) & (0 <= l) & (l < m))


class ScriptedStretch:
    """Duck-typed generator for one stretch update: partner index 0, given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def integers(self, high, size):
        return np.zeros(size, dtype=int)

    def random(self, size):
        return np.array([self.uniforms.pop(0) for _ in range(size)])


class TestStretchStep:
    def test_unit_gamma_leaves_state_unchanged(self, monkeypatch):
        # with gamma = 1 the candidate coincides with the current point and
        # the transition probability is min(1, 1) = 1
        monkeypatch.setattr(ens, "sample_stretch_factor", lambda law, rng, size: np.ones(size))
        target = IsotropicGaussianTarget(2, 1.0)
        positions = np.array([[1.0, 2.0], [3.0, 5.0], [-2.0, 1.0]])
        # u = 0.99 would reject anything with log T < -0.01
        new, accepted = stretch_step(target, positions, 1, StretchLaw(), ScriptedStretch([0.99]))
        assert accepted
        np.testing.assert_array_equal(new, positions[1])

    def test_near_unit_gamma_from_inverse_cdf(self):
        # the u that maps to gamma = 1 reproduces it to the last ulp
        law = StretchLaw(a=2.0)
        u_for_gamma_one = np.sqrt(2.0) - 1.0
        gamma = sample_stretch_factor(law, FixedUniform([u_for_gamma_one]))
        assert gamma == pytest.approx(1.0, rel=1e-15)

    def test_1d_has_no_volume_factor(self):
        # in 1-D the acceptance is the bare density ratio: an uphill move is
        # always accepted no matter the gamma drawn
        target = IsotropicGaussianTarget(1, 1.0)
        positions = np.array([[2.0], [1.0]])
        # partner at 1.0, current 2.0, any gamma in [0.5, 2] moves closer
        # to the origin half the time; force gamma = 0.5 -> candidate 1.5,
        # and u = 0.999999 accepts only if log T >= ~0
        law = StretchLaw(a=2.0)
        new, accepted = stretch_step(target, positions, 0, law, ScriptedStretch([0.0, 0.999999]))
        assert accepted  # density ratio exp(-1.5^2/2 + 2^2/2) > 1
        assert new[0] == pytest.approx(1.5)

    def test_acceptance_decays_with_dimension(self):
        fractions = []
        for d in (2, 5, 10, 20):
            target = IsotropicGaussianTarget(d, 1.0)
            state = run_ensemble(
                "stretch", target, m=100, n_sweeps=60,
                rng=np.random.default_rng(12 + d),
            )
            fractions.append(state.acceptance_fraction())
        assert all(a > b for a, b in zip(fractions, fractions[1:]))

    def test_needs_two_chains(self):
        target = IsotropicGaussianTarget(2, 1.0)
        with pytest.raises(ValueError):
            stretch_step(target, np.zeros((1, 2)), 0, StretchLaw(), np.random.default_rng(13))


@pytest.mark.parametrize("method, step", [
    ("gaussian", lambda target, positions, rng:
        ensemble_gaussian_step(target, positions, 0, 1.0, rng)),
    ("de", lambda target, positions, rng: de_step(target, positions, 0, 1.0, rng)),
    ("stretch", lambda target, positions, rng:
        stretch_step(target, positions, 0, StretchLaw(), rng)),
], ids=["gaussian", "de", "stretch"])
def test_step_needs_min_chains(method, step):
    target = IsotropicGaussianTarget(2, 1.0)
    fewest = MIN_CHAINS[method]
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError, match=f"at least {fewest} chains, got {fewest - 1}"):
        step(target, rng.standard_normal((fewest - 1, 2)), rng)
    step(target, rng.standard_normal((fewest, 2)), rng)


@pytest.mark.parametrize("call", [
    lambda target, positions, j, rng: ensemble_gaussian_step(target, positions, j, 1.0, rng),
    lambda target, positions, j, rng: de_step(target, positions, j, 1.0, rng),
    lambda target, positions, j, rng: stretch_step(target, positions, j, StretchLaw(), rng),
    lambda target, positions, j, rng: ensemble_covariance(positions, j),
], ids=["gaussian", "de", "stretch", "covariance"])
@pytest.mark.parametrize("j", [-1, -3, 3, 4])
def test_chain_index_outside_the_ensemble_is_rejected(call, j):
    # a negative j let `k += k >= j` pick chain j as its own partner
    target = IsotropicGaussianTarget(2, 1.0)
    positions = np.random.default_rng(38).standard_normal((3, 2))
    with pytest.raises(ValueError, match=rf"chain index {j} outside \[0, 3\)"):
        call(target, positions, j, np.random.default_rng(39))
    call(target, positions, 2, np.random.default_rng(39))


@pytest.mark.parametrize("call", [
    lambda target, positions, rng: ensemble_gaussian_step(target, positions, 0, 1.0, rng),
    lambda target, positions, rng: de_step(target, positions, 0, 1.0, rng),
    lambda target, positions, rng: stretch_step(target, positions, 0, StretchLaw(), rng),
], ids=["gaussian", "de", "stretch"])
@pytest.mark.parametrize("shape", [(5, 2), (5, 4), (5, 3, 1)])
def test_step_positions_must_match_the_target_dimension(call, shape):
    # (5, 2) positions on a 3-D target once gave a 2-vector and a flag
    target = IsotropicGaussianTarget(3, 1.0)
    rng = np.random.default_rng(42)
    with pytest.raises(ValueError, match=r"positions must have shape \(m, 3\)"):
        call(target, rng.standard_normal(shape), rng)
    call(target, rng.standard_normal((5, 3)), rng)


@pytest.mark.parametrize("call", [
    lambda target, positions, rng: ensemble_gaussian_step(target, positions, 0, 1.0, rng),
    lambda target, positions, rng: de_step(target, positions, 0, 1.0, rng),
    lambda target, positions, rng: stretch_step(target, positions, 0, StretchLaw(), rng),
], ids=["gaussian", "de", "stretch"])
def test_flat_positions_are_one_dimensional_chains(call):
    # a flat (m,) array once read as one m-dimensional chain: "de moves need
    # at least 3 chains, got 1" for an ensemble of four
    flat = np.array([0.1, 0.2, 0.3, 0.4])
    got = call(IsotropicGaussianTarget(1), flat, np.random.default_rng(44))
    want = call(IsotropicGaussianTarget(1), flat[:, None], np.random.default_rng(44))
    np.testing.assert_array_equal(got[0], want[0])
    assert got[0].shape == (1,) and got[1] == want[1]
    # on a 3-D target the shape is named before the chain count
    with pytest.raises(ValueError, match=r"positions must have shape \(m, 3\), got \(3,\)"):
        call(IsotropicGaussianTarget(3), np.zeros(3), np.random.default_rng(44))


def test_stretch_levels_use_the_row_loop_when_only_log_density_is_overridden():
    # Shifted inherits log_density_many without its shift: a level call
    # through it once compared unshifted candidates with shifted chains
    class Shifted(IsotropicGaussianTarget):
        def log_density(self, theta):
            return super().log_density(theta) + 123.456

    shifted = run_ensemble("stretch", Shifted(3), m=10, n_sweeps=50, rng=np.random.default_rng(3))
    base = run_ensemble("stretch", IsotropicGaussianTarget(3), m=10, n_sweeps=50,
                        rng=np.random.default_rng(3))
    assert 0.5 < base.acceptance_fraction() < 0.8
    np.testing.assert_array_equal(shifted.accepted, base.accepted)
    np.testing.assert_array_equal(shifted.history, base.history)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda target, gamma, rng: run_ensemble("gaussian", target, m=6, n_sweeps=5, rng=rng,
                                            gamma=gamma),
    lambda target, gamma, rng: run_ensemble("de", target, m=6, n_sweeps=5, rng=rng,
                                            gamma=gamma),
    lambda target, gamma, rng: ensemble_gaussian_step(
        target, rng.standard_normal((6, 3)), 0, gamma, rng),
    lambda target, gamma, rng: de_step(target, rng.standard_normal((6, 3)), 0, gamma, rng),
], ids=["run-gaussian", "run-de", "gaussian-step", "de-step"])
def test_gamma_must_be_finite(call, gamma):
    # a NaN gamma once blamed the target for a NaN candidate, and an
    # infinite one stalled the ensemble without a word
    with pytest.raises(ValueError, match="gamma must be finite"):
        call(IsotropicGaussianTarget(3, 1.0), gamma, np.random.default_rng(43))


def replay(method, target, m, n_sweeps, rng, gamma, law, jitter_sd):
    """``run_ensemble`` in plain numpy, one chain at a time.

    Each sweep makes its draws in the documented block order, then updates
    chains 0, 1, ... in turn through ``target.log_density``.  Returns the
    history and the accept flags.
    """
    d = target.dim
    positions = rng.standard_normal((m, d))
    lp = [target.log_density(x) for x in positions]
    history = np.empty((n_sweeps, m, d))
    accepted = np.empty((n_sweeps, m), dtype=bool)
    for sweep in range(n_sweeps):
        if method == "stretch":
            partners = rng.integers(m - 1, size=m)
            z = ((law.a - 1.0) * rng.random(m) + 1.0) ** 2 / law.a
            log_z = np.log(z)
        if method == "de":
            a = rng.integers(m - 2, size=m)
            b = rng.integers(m - 1, size=m)
            swap = rng.integers(2, size=m)
        if method == "de" and jitter_sd is not None:
            eps = jitter_sd * rng.standard_normal((m, d))
        elif method != "stretch":
            weights = rng.standard_normal((m, m))
        log_u = np.log(rng.random(m))
        for j in range(m):
            log_volume = 0.0
            if method == "stretch":
                k = partners[j] + (partners[j] >= j)
                candidate = positions[k] + z[j] * (positions[j] - positions[k])
                log_volume = (d - 1) * log_z[j]
            else:
                if method == "de" and jitter_sd is not None:
                    step = eps[j]
                else:
                    scale = 1.0 if method == "gaussian" else math.sqrt(0.2)
                    step = row_weights(weights[j], j, scale) @ positions
                if method == "de":
                    k = a[j]
                    l = b[j] if b[j] != a[j] else m - 2
                    if swap[j] == 0:
                        k, l = l, k
                    step = positions[k + (k >= j)] - positions[l + (l >= j)] + step
                candidate = positions[j] + gamma * step
            lp_candidate = target.log_density(candidate)
            take = log_u[j] <= min(0.0, lp_candidate - lp[j] + log_volume)
            if take:
                positions[j] = candidate
                lp[j] = lp_candidate
            accepted[sweep, j] = take
        history[sweep] = positions
    return history, accepted


def assert_run_matches_replay(method, target, m, jitter_sd, seed, law=StretchLaw(2.0),
                              delta=1.2):
    """``run_ensemble`` against ``replay``: same flags, stream and history; the run's state."""
    d = target.dim
    gamma = None if method == "stretch" else delta / np.sqrt(d)
    rng_run, rng_replay = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = run_ensemble(
            method, target, m=m, n_sweeps=40, rng=rng_run,
            gamma=gamma, law=law if method == "stretch" else None, jitter_sd=jitter_sd,
        )
    history, accepted = replay(method, target, m, 40, rng_replay, gamma, law, jitter_sd)
    np.testing.assert_array_equal(state.accepted, accepted)
    assert rng_run.bit_generator.state == rng_replay.bit_generator.state
    np.testing.assert_array_equal(state.history, history)
    return state


# one update's draws before the per-sweep blocks, scalar call by scalar call
ONE_UPDATE_DRAWS = {
    "gaussian": lambda rng, m, d: (rng.standard_normal(m), rng.random()),
    "de": lambda rng, m, d: (rng.integers(m - 2), rng.integers(m - 1), rng.integers(2),
                             rng.standard_normal(m), rng.random()),
    "de-constant": lambda rng, m, d: (rng.integers(m - 2), rng.integers(m - 1),
                                      rng.integers(2), rng.standard_normal(d), rng.random()),
    "stretch": lambda rng, m, d: (rng.integers(m - 1), rng.random(), rng.random()),
}


class TestSingleCodePath:
    @pytest.mark.parametrize(
        "method, m, d, jitter_sd",
        [
            ("gaussian", 12, 3, None),
            ("gaussian", 4, 3, None),
            ("stretch", 12, 3, None),
            ("de", 12, 3, None),
            ("de", 12, 3, 0.0),
            ("de", 12, 3, np.sqrt([0.2, 0.1, 0.05])),
            ("de", 12, 3, np.sqrt([0.2, 0.1, 0.0])),
            ("de", 4, 3, None),
            ("de", 4, 3, 0.0),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_ensemble_equals_step_functions(self, method, m, d, jitter_sd, seed):
        # run_ensemble and the step functions run one sweep code, which
        # must equal the plain one-chain-at-a-time replay
        assert_run_matches_replay(
            method, IsotropicGaussianTarget(d, 1.0), m, jitter_sd, seed
        )

    @pytest.mark.parametrize("m", [2, 3, 40])
    @pytest.mark.parametrize("d", [1, 20])
    @pytest.mark.parametrize("a", [1.1, 5.0])
    @pytest.mark.parametrize("target_cls", [IsotropicGaussianTarget, CountingTarget])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stretch_levels_equal_step_functions(self, m, d, a, target_cls, seed):
        # the dependency-level sweep, through a vectorised log_density_many
        # and through the default per-row one, against one update at a time
        assert_run_matches_replay(
            "stretch", target_cls(d), m, None, seed, law=StretchLaw(a)
        )

    @pytest.mark.parametrize("move", list(ONE_UPDATE_DRAWS))
    def test_step_functions_keep_the_one_update_stream(self, move):
        # a one-row sweep draws what one update drew before the sweep blocks
        m, d = 7, 3
        target = IsotropicGaussianTarget(d, 1.0)
        positions = np.random.default_rng(40).standard_normal((m, d))
        rng, reference = np.random.default_rng(41), np.random.default_rng(41)
        for t in range(50):
            j = t % m
            if move == "gaussian":
                ensemble_gaussian_step(target, positions, j, 0.5, rng)
            elif move == "stretch":
                stretch_step(target, positions, j, StretchLaw(), rng)
            else:
                de_step(target, positions, j, 0.5, rng,
                        jitter_sd=0.1 if move == "de-constant" else None)
            ONE_UPDATE_DRAWS[move](reference, m, d)
            assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "method, m, jitter_sd",
        [
            ("de", 12, 0.0),
            ("de", 12, 0.05),
            ("de", 4, np.sqrt([0.2, 0.1, 0.05])),
            ("de", 12, None),
            ("gaussian", 12, None),
            ("de", 4, None),
            ("gaussian", 4, None),
            ("stretch", 12, None),
        ],
    )
    def test_no_factorization(self, monkeypatch, method, m, jitter_sd):
        # the covariance moves draw their steps from the other chains and a
        # constant jitter is a standard deviation: nothing is factored
        def refuse(a):
            raise AssertionError("no move factors a matrix")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        target = IsotropicGaussianTarget(3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state = run_ensemble(method, target, m=m, n_sweeps=10,
                                 rng=np.random.default_rng(27), jitter_sd=jitter_sd)
        rng = np.random.default_rng(28)
        for j in range(m):
            if method == "gaussian":
                ensemble_gaussian_step(target, state, j, 0.5, rng)
            elif method == "de":
                de_step(target, state, j, 0.5, rng, jitter_sd=jitter_sd)
            else:
                stretch_step(target, state, j, StretchLaw(), rng)

    @pytest.mark.parametrize("method", ["gaussian", "de", "stretch"])
    def test_one_target_evaluation_per_update(self, method):
        m, n_sweeps = 7, 11
        target = CountingTarget(3)
        run_ensemble(method, target, m=m, n_sweeps=n_sweeps,
                     rng=np.random.default_rng(20))
        assert target.calls == m + n_sweeps * m


class Poisoned(VectorBall):
    """``VectorBall`` that keeps each batch and gives ``bad`` at the points ``poison``."""

    def __init__(self, dim, bad=np.nan, poison=()):
        super().__init__(dim, -np.inf)
        self.bad = bad
        self.poison = list(poison)
        self.points = []

    def log_density_many(self, points):
        lp = super().log_density_many(points)
        self.points.append(points.copy())
        for p in self.poison:
            lp[np.all(points == p, axis=1)] = self.bad
        return lp


class CountingMany(CountingTarget):
    """``CountingTarget`` with a ``log_density_many`` of its own that counts its calls."""

    def __init__(self, dim):
        super().__init__(dim)
        self.many_calls = 0

    def log_density_many(self, points):
        self.many_calls += 1
        return np.array([-0.5 * float(p @ p) for p in points])


class Recounted(CountingMany):
    """Overrides ``log_density`` alone, so the inherited ``log_density_many`` is not its own."""

    def log_density(self, theta):
        return super().log_density(theta)


def walk_runs(accepted):
    """Each rejection run of the walk sweeps that made ``accepted``: ``(length, reached)``.

    A sweep's runs take ``_batch_size`` of the previous sweep's acceptance
    (1.0 before the first) rows, capped by the rows left, and end at their
    first accept; the next run starts at the row after it.
    """
    runs, rate = [], 1.0
    for flags in accepted.tolist():
        k, i = _batch_size(rate), 0
        while i < len(flags):
            run = flags[i:i + k]
            reached = run.index(True) + 1 if True in run else len(run)
            runs.append((len(run), reached))
            i += reached
        rate = sum(flags) / len(flags)
    return runs


WALK_MOVES = [("gaussian", None), ("de", None), ("de", 0.1)]


class TestWalkRuns:
    @pytest.mark.parametrize("method, jitter_sd", WALK_MOVES)
    @pytest.mark.parametrize("m, d", [(40, 20), (12, 2)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_runs_equal_one_update_at_a_time(self, method, jitter_sd, m, d, seed):
        # at the default scales, acceptance is about 0.2 at d=20 and 0.35 at
        # d=2: runs of several rows, many of them ended by an accept mid-run
        state = assert_run_matches_replay(
            method, IsotropicGaussianTarget(d, 1.0), m, jitter_sd, seed,
            delta=DEFAULT_DELTA[method],
        )
        runs = walk_runs(state.accepted)
        assert max(length for length, _ in runs) > 2
        assert sum(reached < length for length, reached in runs) > len(runs) // 4

    @pytest.mark.parametrize("method, jitter_sd", WALK_MOVES)
    def test_one_batch_per_run(self, method, jitter_sd):
        m, d = 40, 20
        target = VectorBall(d, -np.inf)
        state = run_ensemble(method, target, m=m, n_sweeps=30,
                             rng=np.random.default_rng(50), jitter_sd=jitter_sd)
        runs = walk_runs(state.accepted)
        assert target.batches == [length for length, _ in runs]
        assert max(target.batches) > 2 and len(target.batches) < m * 30
        # the rows after each run's accept were evaluated, and discarded
        assert sum(target.batches) > sum(reached for _, reached in runs) == m * 30

    @pytest.mark.parametrize("method, jitter_sd", WALK_MOVES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bad_value_at_a_reached_row_raises_for_its_point(self, method, jitter_sd, bad):
        # the draws never depend on the target: a clean run shows every
        # row, and a reached one past the start of its run is poisoned
        kwargs = dict(m=12, n_sweeps=20, jitter_sd=jitter_sd)
        clean = Poisoned(2)
        run_ensemble(method, clean, rng=np.random.default_rng(51), **kwargs)
        runs = walk_runs(run_ensemble(method, Poisoned(2), rng=np.random.default_rng(51),
                                      **kwargs).accepted)
        b = next(b for b, (_, reached) in enumerate(runs) if reached > 1)
        point = clean.points[b][runs[b][1] - 1]
        shown = np.array2string(point, precision=6, separator=", ")
        with pytest.raises(NumericalError, match=f"{bad} at {re.escape(shown)}"):
            run_ensemble(method, Poisoned(2, bad, [point]), rng=np.random.default_rng(51),
                         **kwargs)

    @pytest.mark.parametrize("method, jitter_sd", WALK_MOVES)
    def test_bad_values_after_an_accept_are_never_checked(self, method, jitter_sd):
        kwargs = dict(m=12, n_sweeps=20, jitter_sd=jitter_sd)
        clean = Poisoned(2)
        want = run_ensemble(method, clean, rng=np.random.default_rng(52), **kwargs)
        runs = zip(clean.points, walk_runs(want.accepted))
        reached, unreached = set(), []
        for points, (_, n) in runs:
            reached.update(p.tobytes() for p in points[:n])
            unreached.extend(points[n:])
        # a de step that skips the moved chain is proposed again in the next run
        poison = [p for p in unreached if p.tobytes() not in reached]
        assert len(poison) > 10
        target = Poisoned(2, np.nan, poison)
        got = run_ensemble(method, target, rng=np.random.default_rng(52), **kwargs)
        np.testing.assert_array_equal(got.accepted, want.accepted)
        np.testing.assert_array_equal(got.history, want.history)
        history, _ = replay(method, Ball(2, np.nan), 12, 20, np.random.default_rng(52),
                            DEFAULT_DELTA[method] / np.sqrt(2), None, jitter_sd)
        np.testing.assert_array_equal(got.history, history)

    @pytest.mark.parametrize("method, jitter_sd", WALK_MOVES)
    def test_targets_without_their_own_rows_take_one_update_at_a_time(self, method, jitter_sd):
        m, n_sweeps = 9, 15
        batched, single = CountingMany(3), Recounted(3)
        want = run_ensemble(method, batched, m=m, n_sweeps=n_sweeps,
                            rng=np.random.default_rng(53), jitter_sd=jitter_sd)
        got = run_ensemble(method, single, m=m, n_sweeps=n_sweeps,
                           rng=np.random.default_rng(53), jitter_sd=jitter_sd)
        assert batched.calls == m and batched.many_calls > n_sweeps
        assert single.calls == m + n_sweeps * m and single.many_calls == 0
        np.testing.assert_array_equal(got.accepted, want.accepted)
        np.testing.assert_array_equal(got.history, want.history)


class TestTargetContract:
    @pytest.mark.parametrize("method", ["gaussian", "de", "stretch"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_step_raises_on_nan_or_inf_candidate(self, method, bad):
        target = Ball(2, bad)
        rng = np.random.default_rng(21)
        positions = rng.standard_normal((6, 2))
        with pytest.raises(NumericalError, match=str(bad)):
            for _ in range(50):
                for j in range(6):
                    positions[j] = FAR_MOVES[method](positions, j, rng, target)[0]

    @pytest.mark.parametrize("method", ["gaussian", "de", "stretch"])
    def test_step_rejects_neg_inf_candidate(self, method):
        target = Ball(2, -np.inf)
        rng = np.random.default_rng(22)
        positions = rng.standard_normal((6, 2))
        rejected = 0
        for _ in range(50):
            for j in range(6):
                new, acc = FAR_MOVES[method](positions, j, rng, target)
                rejected += not acc
                positions[j] = new
        assert rejected > 0
        assert np.all(np.einsum("ij,ij->i", positions, positions) < 100.0)

    @pytest.mark.parametrize("method", ["gaussian", "de", "stretch"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_ensemble_raises_on_nan_or_inf_candidate(self, method, bad):
        target = Ball(2, bad)
        with pytest.raises(NumericalError):
            run_ensemble(method, target, m=6, n_sweeps=50,
                         rng=np.random.default_rng(23), **far_moves(method))

    @pytest.mark.parametrize("method", ["gaussian", "de", "stretch"])
    def test_run_ensemble_rejects_neg_inf_candidate(self, method):
        target = Ball(2, -np.inf)
        state = run_ensemble(method, target, m=6, n_sweeps=50,
                             rng=np.random.default_rng(24), **far_moves(method))
        assert not state.accepted.all()
        radii2 = np.einsum("...i,...i->...", state.history, state.history)
        assert np.all(radii2 < 100.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_batched_sweep_raises_in_the_sweep_of_the_bad_value(self, bad):
        # the draws never depend on the target, so a -inf twin of the target
        # shows in which sweep the first candidate leaves the ball
        def run(outside, n_sweeps):
            target = VectorBall(2, outside)
            run_ensemble("stretch", target, m=6, n_sweeps=n_sweeps,
                         rng=np.random.default_rng(33), law=StretchLaw(a=4.0))
            return target

        first = next(s for s in range(1, 200) if run(-np.inf, s).outside_rows)
        assert first > 1
        run(bad, first - 1)
        with pytest.raises(NumericalError, match=str(bad)):
            run(bad, first)

    def test_batched_sweep_rejects_neg_inf_candidate(self):
        target = VectorBall(2, -np.inf)
        state = run_ensemble("stretch", target, m=6, n_sweeps=50,
                             rng=np.random.default_rng(24), law=StretchLaw(a=1000.0))
        assert target.outside_rows > 0
        assert not state.accepted.all()
        radii2 = np.einsum("...i,...i->...", state.history, state.history)
        assert np.all(radii2 < 100.0)

    def test_one_batch_per_dependency_level(self):
        # replay the sweep's draws: chain j sits at level 0 if its partner k
        # comes later in the sweep, else one level above k
        m, d, n_sweeps, seed = 9, 3, 20, 31
        target = VectorBall(d, -np.inf)
        run_ensemble("stretch", target, m=m, n_sweeps=n_sweeps,
                     rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        rng.standard_normal((m, d))
        expected = []
        for _ in range(n_sweeps):
            partners = rng.integers(m - 1, size=m).tolist()
            rng.random(m)
            rng.random(m)
            level = []
            for j, k in enumerate(partners):
                k += k >= j
                level.append(0 if k > j else level[k] + 1)
            expected += np.bincount(level).tolist()
        assert target.batches == expected
        assert len(expected) < m * n_sweeps

    def test_batched_sweep_checks_result_shape(self):
        class Column(VectorBall):
            def log_density_many(self, points):
                return super().log_density_many(points)[:, None]

        with pytest.raises(ValueError, match="shape"):
            run_ensemble("stretch", Column(2, -np.inf), m=4, n_sweeps=1,
                         rng=np.random.default_rng(34))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_ensemble_raises_on_bad_start(self, bad):
        # every start lies outside the radius-10 ball
        target = Ball(2, bad)
        with pytest.raises(NumericalError, match=str(bad)):
            run_ensemble("stretch", target, m=4, n_sweeps=1,
                         rng=np.random.default_rng(25), theta0=np.full(2, 50.0))


class TestRunEnsemble:
    def test_single_chain_covariance_method_errors(self):
        target = IsotropicGaussianTarget(2, 1.0)
        with pytest.raises(ValueError):
            run_ensemble("gaussian", target, m=1, n_sweeps=5, rng=np.random.default_rng(14))

    @pytest.mark.parametrize("method", ["gaussian", "de"])
    def test_covariance_moves_warn_below_d_plus_2_chains(self, method):
        target = IsotropicGaussianTarget(5, 1.0)
        with pytest.warns(RuntimeWarning, match=r"m >= d \+ 2"):
            run_ensemble(method, target, m=4, n_sweeps=1, rng=np.random.default_rng(28))

    def test_de_with_constant_jitter_does_not_warn(self):
        target = IsotropicGaussianTarget(5, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_ensemble("de", target, m=4, n_sweeps=1, rng=np.random.default_rng(29),
                         jitter_sd=0.1)

    @pytest.mark.parametrize("method", ["gaussian", "stretch"])
    def test_jitter_sd_only_for_de(self, method):
        # the gaussian and stretch moves have no constant jitter, so one
        # given to them is an error, never silently unused
        target = IsotropicGaussianTarget(3, 1.0)
        with pytest.raises(ValueError, match=f"the {method} move takes none"):
            run_ensemble(method, target, m=6, n_sweeps=5, rng=np.random.default_rng(1),
                         jitter_sd=5.0)

    def test_gamma_not_for_stretch(self):
        # the stretch move has no scale; its law sets how far it moves
        target = IsotropicGaussianTarget(3, 1.0)
        with pytest.raises(ValueError, match="the stretch move takes none"):
            run_ensemble("stretch", target, m=6, n_sweeps=5, rng=np.random.default_rng(1),
                         gamma=5.0)

    @pytest.mark.parametrize("method", ["gaussian", "de"])
    def test_law_only_for_stretch(self, method):
        target = IsotropicGaussianTarget(3, 1.0)
        with pytest.raises(ValueError, match=f"the {method} move takes none"):
            run_ensemble(method, target, m=6, n_sweeps=5, rng=np.random.default_rng(1),
                         law=StretchLaw(7.0))

    @pytest.mark.parametrize("theta0", [[5.0], 5.0, np.zeros(4), np.zeros((5, 3)),
                                        np.zeros((6, 3, 1))],
                             ids=["short", "scalar", "long", "too-few-rows", "3-d"])
    def test_theta0_is_one_point_or_one_per_chain(self, theta0):
        # theta0=[5.0] on a 3-D target once broadcast to every coordinate
        target = IsotropicGaussianTarget(3, 1.0)
        with pytest.raises(ValueError, match=r"theta0 must have shape \(3,\) or \(6, 3\)"):
            run_ensemble("stretch", target, m=6, n_sweeps=1, rng=np.random.default_rng(44),
                         theta0=theta0)
        for good in (np.ones(3), np.ones((6, 3))):
            state = run_ensemble("stretch", target, m=6, n_sweeps=1,
                                 rng=np.random.default_rng(44), theta0=good)
            np.testing.assert_array_equal(
                state.starts, good + np.random.default_rng(44).standard_normal((6, 3)))

    def test_zero_sweeps_returns_initial_state(self):
        target = IsotropicGaussianTarget(2, 1.0)
        state = run_ensemble(
            "stretch", target, m=4, n_sweeps=0, rng=np.random.default_rng(15)
        )
        assert state.iteration == 0
        np.testing.assert_array_equal(state.positions, state.starts)

    def test_unknown_method(self):
        target = IsotropicGaussianTarget(2, 1.0)
        with pytest.raises(ValueError):
            run_ensemble("leapfrog", target, m=4, n_sweeps=1, rng=np.random.default_rng(16))

    def test_determinism(self):
        target = IsotropicGaussianTarget(3, 1.0)
        a = run_ensemble("de", target, m=8, n_sweeps=20, rng=np.random.default_rng(17))
        b = run_ensemble("de", target, m=8, n_sweeps=20, rng=np.random.default_rng(17))
        np.testing.assert_array_equal(a.history, b.history)
        np.testing.assert_array_equal(a.accepted, b.accepted)

    def test_chain_view_matches_history(self):
        target = IsotropicGaussianTarget(2, 1.0)
        state = run_ensemble("stretch", target, m=5, n_sweeps=30,
                             rng=np.random.default_rng(18))
        chain = state.chain(3)
        np.testing.assert_array_equal(chain.states, state.history[:, 3, :])
        np.testing.assert_array_equal(chain.accepted, state.accepted[:, 3])
        np.testing.assert_array_equal(chain.start, state.starts[3])

    def test_gaussian_and_de_autocorrelation_times_comparable_d10(self):
        # both shrink-as-1/sqrt(d) methods should mix at a similar rate,
        # with per-chain tau no worse than ~6d
        d, m, sweeps = 10, 60, 800
        target = IsotropicGaussianTarget(d, 1.0)
        mean_taus = {}
        for method in ("gaussian", "de"):
            state = run_ensemble(
                method, target, m=m, n_sweeps=sweeps,
                rng=np.random.default_rng(19),
            )
            taus = []
            for j in range(0, m, 6):
                ests = per_coordinate_tau(state.history[200:, j, :])
                taus.append(np.mean([e.tau for e in ests]))
            mean_taus[method] = float(np.mean(taus))
        ratio = mean_taus["gaussian"] / mean_taus["de"]
        assert 0.5 <= ratio <= 2.0
        assert mean_taus["gaussian"] <= 6 * d
        assert mean_taus["de"] <= 6 * d

    def test_label_permutation_statistically_indistinguishable(self):
        # permuting chain labels only relabels streams; over seeds the
        # grand means agree within noise
        target = IsotropicGaussianTarget(2, 1.0)
        means_a, means_b = [], []
        for seed in range(20):
            sa = run_ensemble("stretch", target, m=12, n_sweeps=150,
                              rng=np.random.default_rng(1000 + seed))
            sb = run_ensemble("stretch", target, m=12, n_sweeps=150,
                              rng=np.random.default_rng(2000 + seed))
            means_a.append(sa.history[50:].mean())
            means_b.append(sb.history[50:].mean())
        se = np.sqrt(np.var(means_a, ddof=1) / 20 + np.var(means_b, ddof=1) / 20)
        assert abs(np.mean(means_a) - np.mean(means_b)) < 3.0 * se


class TestInvariance:
    @pytest.mark.parametrize("method", ENSEMBLE_METHODS)
    # no shrinking: each example runs 6,000 updates, so shrinking a failure takes minutes
    @settings(max_examples=5, deadline=None, derandomize=True, phases=(Phase.generate,))
    @given(
        rho=st.floats(-0.95, 0.95),
        log_ratio=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_move_leaves_correlated_gaussian_invariant(self, method, rho, log_ratio, seed):
        m, n_sweeps = 12, 500
        target = CorrelatedGaussian2D(rho, np.array([1.0, 10.0 ** log_ratio]))
        draws = np.random.default_rng([seed, 1]).standard_normal((m, 2)) @ target.chol.T
        # run_ensemble starts at theta0 plus its first standard-normal draw;
        # subtracting that draw starts the walkers at exact target draws
        theta0 = draws - np.random.default_rng(seed).standard_normal((m, 2))
        state = run_ensemble(method, target, m=m, n_sweeps=n_sweeps,
                             rng=np.random.default_rng(seed), theta0=theta0)
        np.testing.assert_allclose(state.starts, draws, atol=1e-12)
        # whitened, every walker is N(0, I) at every sweep if the move is
        # invariant: the per-sweep ensemble averages of w1, w2, w1^2 - 1,
        # w2^2 - 1 and w1 w2 all have mean 0
        w = state.history @ np.linalg.inv(target.chol).T
        stats = np.stack(
            [w[..., 0], w[..., 1], w[..., 0] ** 2 - 1.0, w[..., 1] ** 2 - 1.0,
             w[..., 0] * w[..., 1]],
            axis=-1,
        ).mean(axis=1)
        taus = [t.tau for t in per_coordinate_tau(stats)]
        se = stats.std(axis=0, ddof=1) * np.sqrt(np.maximum(taus, 1.0) / n_sweeps)
        z = stats.mean(axis=0) / se
        assert np.all(np.abs(z) < 5.0), (z, taus)
