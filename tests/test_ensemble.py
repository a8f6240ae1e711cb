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
    _update,
    de_step,
    de_trajectory_count,
    ensemble_covariance,
    ensemble_gaussian_step,
    run_ensemble,
    sample_stretch_factor,
    stretch_step,
)
from mcmclab.errors import NumericalError
from mcmclab.mh import GaussianRandomWalk, run_chain
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


class Recorder(TargetDensity):
    """Log density ``value`` everywhere; ``points`` keeps each batch it evaluates."""

    def __init__(self, dim, value):
        self.dim = dim
        self.value = value
        self.points = []

    def log_density(self, theta):
        return self.value

    def log_density_many(self, points):
        self.points.append(points.copy())
        return np.full(len(points), self.value)


class ScriptedWeights:
    """Duck-typed generator for one gaussian half-update: weights ``z``, uniforms 1/2."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z.copy()

    def random(self, size):
        return np.full(size, 0.5)


def half_update_candidates(method, positions, rows, others, rng, gamma=1.0, jitter_sd=None):
    """The candidates one ``_update`` of ``rows`` against ``others`` forms; none is taken."""
    target = Recorder(positions.shape[1], -np.inf)
    lp = np.zeros(len(positions))
    law = StretchLaw() if method == "stretch" else None
    taken = _update(method, target, positions.copy(), lp, np.asarray(rows), np.asarray(others),
                    gamma, law, jitter_sd, rng)
    assert not taken.any()
    return target.points[0]


def walk_weights(z, scale):
    """The walk weights of the standard normal ``(r, n)`` block ``z``, row by row.

    Subtract the row's mean and scale by ``scale / sqrt(n - 1)``: what
    ``_update`` does to the block.
    """
    n = z.shape[1]
    return np.array([(row - row.sum() / n) * (scale / math.sqrt(n - 1)) for row in z])


def walk_rounding(others):
    """Bound on the rounding of each entry of a walk step from unit weights.

    Each entry is a dot product of n centred unit weights, of 1-norm below
    ``2/sqrt(n-1)``, with the positions, so it rounds by at most
    ``(n + 3) eps`` times that norm times the largest position: the scale of
    the positions, not of their spread.
    """
    n = others.shape[0]
    return (n + 3) * np.finfo(float).eps * 2.0 / np.sqrt(n - 1) * np.max(np.abs(others))


def walk_steps(z, others, scale=1.0):
    """The gaussian steps of weights ``z`` over the chains at ``others``, one chain per row."""
    r, (n, d) = len(z), others.shape
    positions = np.vstack([others, np.zeros((r, d))])
    return half_update_candidates("gaussian", positions, np.arange(n, n + r), np.arange(n),
                                  ScriptedWeights(z), gamma=scale)


class TestWalkWeights:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 130),
        r=st.integers(1, 40),
    )
    def test_weights_are_centred_and_sum_to_zero(self, seed, n, r):
        # over unit positions each step is its row of weights
        z = np.random.default_rng(seed).standard_normal((r, n))
        got = walk_steps(z, np.eye(n))
        np.testing.assert_array_equal(got, walk_weights(z, 1.0))
        eps = np.finfo(float).eps
        bound = 2 * (n + 2) * eps * (np.abs(z).sum(axis=1) + np.abs(got).sum(axis=1))
        assert np.all(np.abs(got.sum(axis=1)) <= bound)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        d=st.integers(1, 8),
        log_offset=st.one_of(st.none(), st.floats(-2.0, 6.0)),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_unit_weights_sum_to_the_covariance(self, seed, n, d, log_offset, log_scale):
        # sum_i step(e_i) step(e_i)^T is C exactly, also below d + 1 others
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        offset = 0.0 if log_offset is None else 10.0 ** log_offset
        others = scale * (offset * rng.standard_normal(d) + rng.standard_normal((n, d)))
        steps = walk_steps(np.eye(n), others)
        want = ensemble_covariance(np.vstack([others, np.zeros(d)]), n)
        err = np.max(np.abs(steps.T @ steps - want))
        # 1e-12 of C's largest entry, plus what the positions' own rounding
        # does to n outer products; that dominates only for offsets far
        # larger than the spread
        r = walk_rounding(others)
        assert err <= 1e-12 * np.max(np.abs(want)) + n * (2.0 * np.max(np.abs(steps)) * r + r**2)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        d=st.integers(1, 8),
        log_offset=st.floats(-2.0, 6.0),
    )
    def test_step_is_odd_in_the_weights(self, seed, n, d, log_offset):
        rng = np.random.default_rng(seed)
        others = 10.0 ** log_offset + rng.standard_normal((n, d))
        z = rng.standard_normal((5, n))
        np.testing.assert_array_equal(walk_steps(-z, others), -walk_steps(z, others))

    @pytest.mark.parametrize("point", [0.0, 1.0, -3e5])
    @pytest.mark.parametrize("n, d", [(2, 1), (4, 3), (3, 8), (99, 20)])
    def test_collapsed_ensemble_steps_nowhere(self, point, n, d):
        others = np.full((n, d), point)
        z = np.random.default_rng(n + d).standard_normal((n + 1, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = walk_steps(z, others)
        assert np.all(np.isfinite(steps))
        # zero up to the rounding of n products with the point and their sum
        w = np.abs(walk_weights(z, 1.0)).sum(axis=1, keepdims=True)
        assert np.all(np.abs(steps) <= 2 * (n + 2) * np.finfo(float).eps * w * abs(point))
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
        # numpy that samples differently fails here, not in a stream drift.
        # Over unit positions and with no jitter, the taken candidate
        # e_j + e_k - e_l names the pair
        spelled, reference = np.random.default_rng(m), np.random.default_rng(m)
        target, positions = Recorder(m, 0.0), np.eye(m)
        got, want = [], []
        for t in range(4000):
            j = t % m
            new, accepted = de_step(target, positions, j, 1.0, spelled, jitter_sd=0.0)
            assert accepted
            step = new - positions[j]
            got.append((int(step.argmax()), int(step.argmin())))
            a, b = (int(i) for i in reference.choice(m - 1, size=2, replace=False))
            want.append((a + (a >= j), b + (b >= j)))
            # the jitter and the uniform, as in a de update
            reference.standard_normal((1, m))
            reference.random(1)
        assert got == want
        assert spelled.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 30),
           method=st.sampled_from(["de", "stretch"]))
    def test_partners_are_distinct_and_from_the_other_half(self, seed, m, method):
        # over unit positions a de candidate is e_j + e_k - e_l and a
        # stretch candidate (1 - z) e_k + z e_j, which name the partners
        rng = np.random.default_rng(seed)
        chains = rng.permutation(m)
        split = int(rng.integers(1, m - 1))
        rows, others = chains[:split], chains[split:]
        positions = np.eye(m)
        candidates = half_update_candidates(method, positions, rows, others, rng,
                                            jitter_sd=0.0 if method == "de" else None)
        for j, candidate in zip(rows, candidates):
            step = candidate - positions[j]
            step[j] = 0.0
            if method == "de":
                k, l = int(step.argmax()), int(step.argmin())
                assert step[k] == 1.0 and step[l] == -1.0
                assert k in others and l in others
            else:
                partners = np.flatnonzero(step)
                assert len(partners) == 1 and partners[0] in others


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
    # a step moves one chain against all m - 1 others
    target = IsotropicGaussianTarget(2, 1.0)
    fewest = {"gaussian": 3, "de": 3, "stretch": 2}[method]
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

    Each half-sweep makes its draws in the documented block order and forms
    its candidates from the other half, then decides its chains in turn
    through ``target.log_density``.  Returns the history and the accept
    flags.
    """
    d = target.dim
    positions = rng.standard_normal((m, d))
    lp = [target.log_density(x) for x in positions]
    history = np.empty((n_sweeps, m, d))
    accepted = np.empty((n_sweeps, m), dtype=bool)
    first, second = list(range(m // 2)), list(range(m // 2, m))
    for sweep in range(n_sweeps):
        for rows, others in ((first, second), (second, first)):
            r, n = len(rows), len(others)
            x, y = positions[rows], positions[others]
            log_volume = np.zeros(r)
            if method == "stretch":
                ends = y[rng.integers(n, size=r)]
                z = ((law.a - 1.0) * rng.random(r) + 1.0) ** 2 / law.a
                candidates = ends + z[:, None] * (x - ends)
                log_volume = (d - 1) * np.log(z)
            else:
                if method == "de":
                    a = rng.integers(n - 1, size=r)
                    b = rng.integers(n, size=r)
                    swap = rng.integers(2, size=r)
                    pairs = []
                    for ai, bi, si in zip(a, b, swap):
                        bi = bi if bi != ai else n - 1
                        pairs.append((bi, ai) if si == 0 else (ai, bi))
                if method == "de" and jitter_sd is not None:
                    step = jitter_sd * rng.standard_normal((r, d))
                else:
                    scale = 1.0 if method == "gaussian" else math.sqrt(0.2)
                    step = walk_weights(rng.standard_normal((r, n)), scale) @ y
                if method == "de":
                    step = np.array([y[k] - y[l] for k, l in pairs]) + step
                candidates = x + gamma * step
            log_u = np.log(rng.random(r))
            for i, j in enumerate(rows):
                lp_candidate = target.log_density(candidates[i])
                take = log_u[i] <= min(0.0, lp_candidate - lp[j] + log_volume[i])
                if take:
                    positions[j] = candidates[i]
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


# one step function's draws, scalar call by scalar call
ONE_UPDATE_DRAWS = {
    "gaussian": lambda rng, m, d: (rng.standard_normal(m - 1), rng.random()),
    "de": lambda rng, m, d: (rng.integers(m - 2), rng.integers(m - 1), rng.integers(2),
                             rng.standard_normal(m - 1), rng.random()),
    "de-constant": lambda rng, m, d: (rng.integers(m - 2), rng.integers(m - 1),
                                      rng.integers(2), rng.standard_normal(d), rng.random()),
    "stretch": lambda rng, m, d: (rng.integers(m - 1), rng.random(), rng.random()),
}


class TestSingleCodePath:
    @pytest.mark.parametrize(
        "method, m, d, jitter_sd",
        [
            ("gaussian", 12, 3, None),
            ("gaussian", 5, 3, None),
            ("gaussian", 4, 3, None),
            ("stretch", 12, 3, None),
            ("stretch", 5, 3, None),
            ("stretch", 2, 3, None),
            ("de", 12, 3, None),
            ("de", 12, 3, 0.0),
            ("de", 12, 3, np.sqrt([0.2, 0.1, 0.05])),
            ("de", 12, 3, np.sqrt([0.2, 0.1, 0.0])),
            ("de", 5, 3, None),
            ("de", 5, 3, 0.1),
            ("de", 4, 3, None),
            ("de", 4, 3, 0.0),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_ensemble_equals_step_functions(self, method, m, d, jitter_sd, seed):
        # run_ensemble and the step functions run one half-update code,
        # whose sweeps must equal the plain one-chain-at-a-time replay
        assert_run_matches_replay(
            method, IsotropicGaussianTarget(d, 1.0), m, jitter_sd, seed
        )

    @pytest.mark.parametrize("method", ENSEMBLE_METHODS)
    @pytest.mark.parametrize("m", [5, 12])
    def test_run_ensemble_equals_replay_through_the_row_loop(self, method, m):
        # a target without its own log_density_many, at the default scales
        target = CountingTarget(3)
        assert_run_matches_replay(method, target, m, None, 2,
                                  delta=DEFAULT_DELTA.get(method, 1.2))
        assert target.calls == 2 * (m + 40 * m)

    @pytest.mark.parametrize("m", [2, 3, 40])
    @pytest.mark.parametrize("d", [1, 20])
    @pytest.mark.parametrize("a", [1.1, 5.0])
    @pytest.mark.parametrize("target_cls", [IsotropicGaussianTarget, CountingTarget])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stretch_half_updates_equal_replay(self, m, d, a, target_cls, seed):
        # one-chain halves and unequal ones, a volume factor of 1 (d = 1) and
        # of z^19, narrow and wide laws, through a vectorised
        # log_density_many and through the default per-row one
        assert_run_matches_replay(
            "stretch", target_cls(d), m, None, seed, law=StretchLaw(a)
        )

    @pytest.mark.parametrize("move", list(ONE_UPDATE_DRAWS))
    def test_step_functions_keep_the_one_update_stream(self, move):
        # a one-row half-update against the m - 1 others draws these blocks,
        # so its stream equals the scalar draws
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

    @pytest.mark.parametrize("method", ENSEMBLE_METHODS)
    @pytest.mark.parametrize("m", [5, 12])
    def test_one_batch_per_half_update(self, method, m):
        target = VectorBall(1, -np.inf)
        run_ensemble(method, target, m=m, n_sweeps=7, rng=np.random.default_rng(31))
        # the m starts go in one batch
        assert target.batches == [m] + [m // 2, m - m // 2] * 7

    @pytest.mark.parametrize("method", ENSEMBLE_METHODS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_first_bad_row_of_a_half_raises_for_its_point(self, method, bad):
        # the draws never depend on the target: a clean run shows every
        # batch, and two rows of one half are poisoned
        clean = Poisoned(2)
        run_ensemble(method, clean, m=12, n_sweeps=3, rng=np.random.default_rng(51))
        batch = clean.points[3]
        shown = np.array2string(batch[1], precision=6, separator=", ")
        target = Poisoned(2, bad, [batch[4], batch[1]])
        with pytest.raises(NumericalError, match=f"{bad} at {re.escape(shown)}"):
            run_ensemble(method, target, m=12, n_sweeps=3, rng=np.random.default_rng(51))
        assert len(target.points) == 4

    def test_batched_sweep_checks_result_shape(self):
        class Column(VectorBall):
            def log_density_many(self, points):
                return super().log_density_many(points)[:, None]

        with pytest.raises(ValueError, match="shape"):
            run_ensemble("stretch", Column(2, -np.inf), m=4, n_sweeps=1,
                         rng=np.random.default_rng(34))

    def test_run_ensemble_raises_on_zero_density_start(self):
        # chain 1 starts outside the radius-10 ball, where the density is 0
        theta0 = np.zeros((6, 2))
        theta0[1] = 50.0
        with pytest.raises(ValueError, match="chain 1 sits at zero density"):
            run_ensemble("stretch", VectorBall(2, -np.inf), m=6, n_sweeps=1,
                         rng=np.random.default_rng(35), theta0=theta0)

    @pytest.mark.parametrize("method", ENSEMBLE_METHODS)
    @pytest.mark.parametrize("bad", [-np.inf, np.nan, np.inf])
    def test_step_raises_on_bad_start(self, method, bad):
        # chain 2 starts outside the radius-10 ball: zero density is a
        # ValueError, NaN or +inf a NumericalError naming the point
        positions = np.random.default_rng(36).standard_normal((6, 2))
        positions[2] = 50.0
        shown = np.array2string(positions[2], precision=6, separator=", ")
        error, match = ((ValueError, "zero density") if bad == -np.inf
                        else (NumericalError, f"{bad} at {re.escape(shown)}"))
        with pytest.raises(error, match=match):
            FAR_MOVES[method](positions, 2, np.random.default_rng(37), Ball(2, bad))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_ensemble_raises_on_bad_start(self, bad):
        # chains 1 and 3 start outside the radius-10 ball, and the first of
        # them is named; the starts add unit jitter to theta0
        theta0 = np.zeros((4, 2))
        theta0[[1, 3]] = 50.0
        starts = theta0 + np.random.default_rng(25).standard_normal((4, 2))
        shown = np.array2string(starts[1], precision=6, separator=", ")
        with pytest.raises(NumericalError, match=f"{bad} at {re.escape(shown)}"):
            run_ensemble("stretch", Ball(2, bad), m=4, n_sweeps=1,
                         rng=np.random.default_rng(25), theta0=theta0)


class TestRunEnsemble:
    def test_single_chain_covariance_method_errors(self):
        target = IsotropicGaussianTarget(2, 1.0)
        with pytest.raises(ValueError):
            run_ensemble("gaussian", target, m=1, n_sweeps=5, rng=np.random.default_rng(14))

    @pytest.mark.parametrize("method, step", [
        ("gaussian", lambda target, positions, rng:
            ensemble_gaussian_step(target, positions, 2, 1.0, rng)),
        ("de", lambda target, positions, rng: de_step(target, positions, 2, 1.0, rng)),
    ], ids=["gaussian", "de"])
    def test_three_chains_step_but_do_not_run(self, method, step):
        # each half of a run needs two other chains; a step has m - 1 = 2
        assert MIN_CHAINS[method] == 4
        target = IsotropicGaussianTarget(1, 1.0)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match=f"'{method}' needs at least 4 chains, got 3"):
            run_ensemble(method, target, m=3, n_sweeps=5, rng=rng)
        step(target, rng.standard_normal((3, 1)), rng)
        run_ensemble(method, target, m=4, n_sweeps=5, rng=rng)

    @pytest.mark.parametrize("method", ["gaussian", "de"])
    def test_covariance_moves_warn_below_2d_plus_2_chains(self, method):
        # a half of m // 2 chains spans R^d only from d + 1 chains on
        target = IsotropicGaussianTarget(5, 1.0)
        for m in (4, 11):
            with pytest.warns(RuntimeWarning, match=r"m >= 2d \+ 2"):
                run_ensemble(method, target, m=m, n_sweeps=1, rng=np.random.default_rng(28))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_ensemble(method, target, m=12, n_sweeps=1, rng=np.random.default_rng(28))

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
