"""Ensemble proposals: covariance shaping, difference moves, stretch moves."""

import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import mcmclab.ensemble as ens
from mcmclab.diagnostics import per_coordinate_tau
from mcmclab.ensemble import (
    ENSEMBLE_METHODS,
    MIN_CHAINS,
    StretchLaw,
    _loo_covariance,
    _others,
    _walk,
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
        keep = np.arange(m) != j
        expected = np.atleast_2d(
            np.cov(np.delete(positions, j, axis=0), rowvar=False, ddof=1)
        )
        got = _loo_covariance(positions, keep)
        np.testing.assert_array_equal(got, expected)


class UnitWeights:
    """Duck-typed generator whose ``standard_normal(m)`` calls return e_0, e_1, ..."""

    def __init__(self):
        self.i = 0

    def standard_normal(self, size):
        e = np.zeros(size)
        e[self.i] = 1.0
        self.i += 1
        return e


class FixedWeights:
    """Duck-typed generator whose ``standard_normal`` returns a copy of ``w``."""

    def __init__(self, w):
        self.w = w

    def standard_normal(self, size):
        return self.w.copy()


def walk_rounding(positions):
    """Bound on the rounding of each entry of a ``_walk`` step.

    Each entry is a dot product of m weights, of 1-norm below
    ``2/sqrt(m-2)``, with the positions, so it rounds by at most
    ``(m + 2) eps`` times that norm times the largest position: the scale of
    the positions, not of their spread.
    """
    m = positions.shape[0]
    return (m + 2) * np.finfo(float).eps * 2.0 / np.sqrt(m - 2) * np.max(np.abs(positions))


class TestWalk:
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
        weights = UnitWeights()
        steps = np.array([_walk(positions, j, weights) for _ in range(m)])
        np.testing.assert_array_equal(steps[j], 0.0)
        want = _loo_covariance(positions, _others(m, j))
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
        j = int(rng.integers(m))
        w = rng.standard_normal(m)
        step = _walk(positions, j, FixedWeights(w))
        np.testing.assert_array_equal(_walk(positions, j, FixedWeights(-w)), -step)

    @pytest.mark.parametrize("point", [0.0, 1.0, -3e5])
    @pytest.mark.parametrize("m, d", [(3, 1), (5, 3), (4, 8), (100, 20)])
    def test_collapsed_ensemble_steps_nowhere(self, point, m, d):
        positions = np.full((m, d), point)
        rng = np.random.default_rng(m + d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps = np.array([_walk(positions, j, rng) for j in range(m)])
        assert np.all(np.isfinite(steps))
        # zero up to the rounding of the positions themselves
        assert np.max(np.abs(steps)) <= walk_rounding(positions)
        if point == 0.0:
            np.testing.assert_array_equal(steps, 0.0)


class TestEnsembleCovariance:
    def test_collapsed_ensemble_gets_tiny_ridge(self):
        positions = np.vstack([np.ones((4, 3)), [[2.0, 2.0, 2.0]]])
        cov = ensemble_covariance(positions, exclude=4)  # others identical
        chol = np.linalg.cholesky(cov)  # must factor
        assert np.all(np.diag(chol) > 0)
        assert np.all(np.diag(cov) < 1e-250)

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
        new, accepted = de_step(target, positions, 1, 0.0, rng, jitter_cov=0.0)
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


class TestDePartners:
    @pytest.mark.parametrize("m", [3, 4, 5, 12, 99, 100])
    def test_matches_rng_choice(self, m):
        # the spelled-out draws must track numpy's own choice exactly; a
        # numpy that samples differently fails here, not in a stream drift
        spelled, reference = np.random.default_rng(m), np.random.default_rng(m)
        got, want = [], []
        for _ in range(4000):
            got.append(ens._de_partners(m, spelled))
            want.append(tuple(int(i) for i in reference.choice(m - 1, size=2, replace=False)))
            # other draws in between, as in a de update
            spelled.standard_normal(3)
            reference.standard_normal(3)
            spelled.random()
            reference.random()
        assert got == want
        assert spelled.bit_generator.state == reference.bit_generator.state


class TestStretchStep:
    def test_unit_gamma_leaves_state_unchanged(self, monkeypatch):
        # with gamma = 1 the candidate coincides with the current point and
        # the transition probability is min(1, 1) = 1
        import mcmclab.ensemble as ens

        monkeypatch.setattr(ens, "sample_stretch_factor", lambda law, rng: 1.0)

        class Scripted:
            def integers(self, high):
                return 0

            def random(self):
                return 0.99  # would reject anything with log T < -0.01

        target = IsotropicGaussianTarget(2, 1.0)
        positions = np.array([[1.0, 2.0], [3.0, 5.0], [-2.0, 1.0]])
        new, accepted = stretch_step(target, positions, 1, StretchLaw(), Scripted())
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

        class Scripted:
            def integers(self, high):
                return 0

            def random(self):
                return 0.999999  # accept only if log T >= ~0

        # partner at 1.0, current 2.0, any gamma in [0.5, 2] moves closer
        # to the origin half the time; force gamma = 0.5 -> candidate 1.5
        law = StretchLaw(a=2.0)
        rng = Scripted()
        rng_draws = [0.0, 0.999999]
        rng.random = lambda: rng_draws.pop(0)
        new, accepted = stretch_step(target, positions, 0, law, rng)
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


def hand_loop(method, target, m, n_sweeps, rng, gamma, law, jitter_cov):
    """``run_ensemble`` spelled out with the public step functions."""
    positions = rng.standard_normal((m, target.dim))
    history = np.empty((n_sweeps, m, target.dim))
    accepted = np.empty((n_sweeps, m), dtype=bool)
    for sweep in range(n_sweeps):
        for j in range(m):
            if method == "gaussian":
                new, acc = ensemble_gaussian_step(target, positions, j, gamma, rng)
            elif method == "de":
                new, acc = de_step(target, positions, j, gamma, rng, jitter_cov=jitter_cov)
            else:
                new, acc = stretch_step(target, positions, j, law, rng)
            positions[j] = new
            accepted[sweep, j] = acc
        history[sweep] = positions
    return history, accepted


def assert_run_matches_hand_loop(method, target, m, jitter_cov, seed, law=StretchLaw(2.0)):
    """``run_ensemble`` against ``hand_loop``: same flags, stream and history."""
    d = target.dim
    gamma = None if method == "stretch" else 1.2 / np.sqrt(d)
    rng_run, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = run_ensemble(
            method, target, m=m, n_sweeps=40, rng=rng_run,
            gamma=gamma, law=law, jitter_cov=jitter_cov,
        )
    history, accepted = hand_loop(
        method, target, m, 40, rng_loop, gamma, law, jitter_cov
    )
    np.testing.assert_array_equal(state.accepted, accepted)
    assert rng_run.bit_generator.state == rng_loop.bit_generator.state
    np.testing.assert_array_equal(state.history, history)


class TestSingleCodePath:
    @pytest.mark.parametrize(
        "method, m, d, jitter_cov",
        [
            ("gaussian", 12, 3, None),
            ("gaussian", 4, 3, None),
            ("stretch", 12, 3, None),
            ("de", 12, 3, None),
            ("de", 12, 3, 0.0),
            ("de", 12, 3, np.diag([0.2, 0.1, 0.05])),
            ("de", 12, 3, np.diag([0.2, 0.1, 0.0])),
            ("de", 4, 3, None),
            ("de", 4, 3, 0.0),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_ensemble_equals_step_functions(self, method, m, d, jitter_cov, seed):
        assert_run_matches_hand_loop(
            method, IsotropicGaussianTarget(d, 1.0), m, jitter_cov, seed
        )

    @pytest.mark.parametrize("m", [2, 3, 40])
    @pytest.mark.parametrize("d", [1, 20])
    @pytest.mark.parametrize("a", [1.1, 5.0])
    @pytest.mark.parametrize("target_cls", [IsotropicGaussianTarget, CountingTarget])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stretch_levels_equal_step_functions(self, m, d, a, target_cls, seed):
        # the dependency-level sweep, through a vectorised log_density_many
        # and through the default per-row one, against one update at a time
        assert_run_matches_hand_loop(
            "stretch", target_cls(d), m, None, seed, law=StretchLaw(a)
        )

    @pytest.mark.parametrize(
        "method, m, jitter_cov, per_run",
        [
            ("de", 12, 0.0, 0),
            ("de", 12, 0.05, 1),
            ("de", 4, np.diag([0.2, 0.1, 0.05]), 1),
            ("de", 12, None, 0),
            ("gaussian", 12, None, 0),
            ("de", 4, None, 0),
            ("gaussian", 4, None, 0),
            ("stretch", 12, None, 0),
        ],
    )
    def test_factorizations(self, monkeypatch, method, m, jitter_cov, per_run):
        # a constant jitter is factored once per run; the covariance moves
        # draw their steps from the other chains and factor nothing
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(1)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        monkeypatch.setattr(ens, "_loo_covariance", None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run_ensemble(method, IsotropicGaussianTarget(3, 1.0), m=m, n_sweeps=10,
                         rng=np.random.default_rng(27), jitter_cov=jitter_cov)
        assert len(calls) == per_run

    @pytest.mark.parametrize("method", ["gaussian", "de", "stretch"])
    def test_one_target_evaluation_per_update(self, method):
        m, n_sweeps = 7, 11
        target = CountingTarget(3)
        run_ensemble(method, target, m=m, n_sweeps=n_sweeps,
                     rng=np.random.default_rng(20))
        assert target.calls == m + n_sweeps * m


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
                         rng=np.random.default_rng(23), gamma=100.0,
                         law=StretchLaw(a=1000.0))

    @pytest.mark.parametrize("method", ["gaussian", "de", "stretch"])
    def test_run_ensemble_rejects_neg_inf_candidate(self, method):
        target = Ball(2, -np.inf)
        state = run_ensemble(method, target, m=6, n_sweeps=50,
                             rng=np.random.default_rng(24), gamma=100.0,
                             law=StretchLaw(a=1000.0))
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
            level = []
            for j in range(m):
                k = int(rng.integers(m - 1))
                k += k >= j
                rng.random()
                rng.random()
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
                         jitter_cov=0.01)

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
