"""Single-chain Metropolis-Hastings: transitions, chains, burn-in."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mcmclab.errors import NumericalError
from mcmclab.harness import exercise_2d_target
from mcmclab.mh import (
    Chain,
    _accepts,
    GaussianRandomWalk,
    MarkovProposal,
    acceptance_fraction,
    drop_burn_in,
    mh_step,
    run_chain,
    transition_probability,
)
from mcmclab.targets import IsotropicGaussianTarget, TargetDensity, _checked, _checked_rows


class ThreeState(TargetDensity):
    """Point masses {0.2, 0.3, 0.5} embedded at positions 0, 1, 2."""

    dim = 1
    probs = (0.2, 0.3, 0.5)

    def log_density(self, theta):
        i = int(round(float(theta[0])))
        if i not in (0, 1, 2) or abs(theta[0] - i) > 1e-9:
            return -np.inf
        return float(np.log(self.probs[i]))


class UniformThreeState(MarkovProposal):
    """Propose one of the three sites uniformly, ignoring the current one."""

    symmetric = True

    def propose(self, current, rng):
        return np.array([float(rng.integers(3))])

    def log_q(self, from_, to):
        return float(np.log(1.0 / 3.0))


def three_state_transition_matrix():
    """Explicit transition matrix of the uniform-proposal Metropolis chain."""
    target = ThreeState()
    proposal = UniformThreeState()
    tm = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            accept = transition_probability(
                target, proposal, np.array([float(a)]), np.array([float(b)])
            )
            tm[a, b] = (1.0 / 3.0) * accept
        tm[a, a] = 1.0 - tm[a].sum()
    return tm


class TestTransitionProbability:
    def test_equal_density_always_accepts(self):
        target = IsotropicGaussianTarget(2, 1.0)
        proposal = GaussianRandomWalk(1.0)
        assert transition_probability(
            target, proposal, np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == 1.0

    def test_half_density_ratio(self):
        target = IsotropicGaussianTarget(1, 1.0)
        proposal = GaussianRandomWalk(1.0)
        current = np.array([0.0])
        candidate = np.array([np.sqrt(2.0 * np.log(2.0))])
        assert transition_probability(target, proposal, current, candidate) == (
            pytest.approx(0.5, rel=1e-12)
        )

    def test_hastings_factor_compensates_density_drop(self):
        # asymmetric proposal with log q(to->from) - log q(from->to) = ln 2
        # against a density ratio of 1/2: the product is exactly 1
        class Drift(MarkovProposal):
            symmetric = False

            def propose(self, current, rng):
                return current + 1.0

            def log_q(self, from_, to):
                return float(np.log(2.0) if to[0] < from_[0] else 0.0)

        class Geometric(TargetDensity):
            dim = 1

            def log_density(self, theta):
                return float(-np.log(2.0) * theta[0])

        prob = transition_probability(
            Geometric(), Drift(), np.array([0.0]), np.array([1.0])
        )
        assert prob == 1.0

    def test_zero_density_candidate(self):
        target = ThreeState()
        prob = transition_probability(
            target, UniformThreeState(), np.array([0.0]), np.array([0.5])
        )
        assert prob == 0.0

    def test_zero_density_current_raises(self):
        target = ThreeState()
        with pytest.raises(ValueError):
            transition_probability(
                target, UniformThreeState(), np.array([0.4]), np.array([1.0])
            )


class TestMhStep:
    def test_certain_acceptance(self):
        # steps downhill in radius are always accepted
        target = IsotropicGaussianTarget(1, 1.0)

        class ToOrigin(MarkovProposal):
            symmetric = True

            def propose(self, current, rng):
                return current * 0.5

        rng = np.random.default_rng(0)
        for _ in range(20):
            nxt, accepted = mh_step(target, ToOrigin(), np.array([3.0]), rng)
            assert accepted
            assert nxt[0] == 1.5

    def test_out_of_support_candidate_always_rejected(self):
        target = ThreeState()

        class OffGrid(MarkovProposal):
            symmetric = True

            def propose(self, current, rng):
                rng.random()  # consume randomness like a real proposal
                return current + 0.5

        rng = np.random.default_rng(1)
        for _ in range(20):
            nxt, accepted = mh_step(target, OffGrid(), np.array([1.0]), rng)
            assert not accepted
            assert nxt[0] == 1.0

    def test_rejection_repeats_state_bit_for_bit(self):
        target = IsotropicGaussianTarget(3, 1.0)
        proposal = GaussianRandomWalk(50.0)  # huge steps, mostly rejected
        chain = run_chain(target, proposal, np.full(3, 0.1), 200, np.random.default_rng(2))
        rejected = ~chain.accepted
        assert rejected.any()
        prev = np.vstack([chain.start, chain.states[:-1]])
        for i in np.flatnonzero(rejected):
            assert np.array_equal(chain.states[i], prev[i])

    def test_accepted_steps_move(self):
        target = IsotropicGaussianTarget(2, 1.0)
        chain = run_chain(
            target, GaussianRandomWalk(0.5), np.zeros(2), 200, np.random.default_rng(3)
        )
        prev = np.vstack([chain.start, chain.states[:-1]])
        moved = np.any(chain.states != prev, axis=1)
        np.testing.assert_array_equal(moved, chain.accepted)

    def test_three_state_occupancy(self):
        target = ThreeState()
        chain = run_chain(
            target, UniformThreeState(), np.array([0.0]), 200_000,
            np.random.default_rng(4),
        )
        occupancy = np.bincount(
            chain.states[:, 0].astype(int), minlength=3
        ) / len(chain)
        assert np.abs(occupancy - np.array([0.2, 0.3, 0.5])).sum() < 0.03


class HalfPlane(TargetDensity):
    """2-D N(0, I) for ``x0 <= 1``; ``beyond`` as the log density elsewhere."""

    dim = 2

    def __init__(self, beyond):
        self.beyond = beyond

    def log_density(self, theta):
        return -0.5 * float(theta @ theta) if theta[0] <= 1.0 else self.beyond


class TestTargetContract:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_chain_raises_on_nan_or_inf_candidate(self, bad):
        # without the check a NaN candidate is always accepted, because
        # min(0, nan) is 0
        with pytest.raises(NumericalError, match=str(bad)):
            run_chain(HalfPlane(bad), GaussianRandomWalk(1.0), np.zeros(2), 2000,
                      np.random.default_rng(11))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mh_step_raises_on_nan_or_inf_candidate(self, bad):
        class Jump(MarkovProposal):
            symmetric = True

            def propose(self, current, rng):
                return current + np.array([5.0, 0.0])

        with pytest.raises(NumericalError, match=r"\[5\., 0\.\]"):
            mh_step(HalfPlane(bad), Jump(), np.zeros(2), np.random.default_rng(12))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_chain_names_the_nan_or_inf_candidate(self, bad):
        # the origin is the only point with a finite density, so the first
        # candidate is the first block-drawn step
        class OnlyOrigin(TargetDensity):
            dim = 2

            def log_density(self, theta):
                return 0.0 if not theta.any() else bad

        first = 0.5 * np.random.default_rng(15).standard_normal((10, 2))[0]
        shown = np.array2string(first, precision=6, separator=", ")
        with pytest.raises(NumericalError, match=re.escape(shown)):
            run_chain(OnlyOrigin(), GaussianRandomWalk(0.5), np.zeros(2), 10,
                      np.random.default_rng(15))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_transition_probability_raises_on_nan_or_inf(self, bad):
        target = HalfPlane(bad)
        proposal = GaussianRandomWalk(1.0)
        inside, outside = np.zeros(2), np.array([2.0, 0.0])
        with pytest.raises(NumericalError):
            transition_probability(target, proposal, inside, outside)
        with pytest.raises(NumericalError):
            transition_probability(target, proposal, outside, inside)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_run_chain_raises_on_nan_or_inf_start(self, bad):
        with pytest.raises(NumericalError):
            run_chain(HalfPlane(bad), GaussianRandomWalk(1.0), np.array([2.0, 0.0]),
                      10, np.random.default_rng(13))

    def test_neg_inf_candidate_is_rejected(self):
        chain = run_chain(HalfPlane(-np.inf), GaussianRandomWalk(1.0), np.zeros(2),
                          2000, np.random.default_rng(14))
        assert not chain.accepted.all()
        assert np.all(chain.states[:, 0] <= 1.0)

    @given(
        lp_current=st.floats(-1e300, 1e300),
        lp_candidate=st.floats(-1e300, 1e300) | st.just(-math.inf),
        log_correction=st.floats(-1e300, 1e300),
        log_u=st.floats(max_value=0.0),
        earlier=st.lists(st.floats(-1e300, 1e300) | st.just(-math.inf), max_size=3),
    )
    # a tie takes the move; a -inf candidate never does, not even for u = 0
    @example(lp_current=0.0, lp_candidate=0.0, log_correction=0.0, log_u=0.0, earlier=[])
    @example(lp_current=0.0, lp_candidate=-math.inf, log_correction=0.0, log_u=-math.inf,
             earlier=[])
    def test_rule_is_min_one_t_on_floats_and_rows(
        self, lp_current, lp_candidate, log_correction, log_u, earlier
    ):
        # the reference is the rule as written with min(0, .) and a -inf branch
        def reference(lp):
            log_a = -math.inf if lp == -math.inf else min(0.0, (lp - lp_current) + log_correction)
            return log_a > -math.inf and log_u <= log_a

        flag = _accepts(lp_current, lp_candidate, log_correction, log_u)
        assert isinstance(flag, bool)
        assert flag == reference(lp_candidate)
        lps = np.array([*earlier, lp_candidate])
        want = [_accepts(lp_current, lp, log_correction, log_u) for lp in lps.tolist()]
        assert _accepts(lp_current, lps, log_correction, log_u).tolist() == want

    @given(
        lps=st.lists(st.floats(-1e300, 1e300) | st.just(-math.inf), min_size=1, max_size=6),
        bad=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([math.nan, math.inf])),
                     min_size=1, max_size=3),
    )
    def test_checked_rows_names_the_first_bad_row(self, lps, bad):
        lps = np.array(lps)
        for i, value in bad:
            lps[i % len(lps)] = value
        points = np.arange(2 * len(lps), dtype=float).reshape(-1, 2) / 3.0
        first = min(i % len(lps) for i, _ in bad)
        with pytest.raises(NumericalError) as scalar:
            _checked(float(lps[first]), points[first])
        with pytest.raises(NumericalError) as rows:
            _checked_rows(lps, points)
        assert str(rows.value) == str(scalar.value)
        good = np.where(np.isfinite(lps) | (lps == -math.inf), lps, 0.0)
        assert _checked_rows(good, points) is good


class TestDetailedBalance:
    def test_three_state_matrix_balance(self):
        tm = three_state_transition_matrix()
        pi = np.array([0.2, 0.3, 0.5])
        for a in range(3):
            for b in range(3):
                assert pi[a] * tm[a, b] == pytest.approx(pi[b] * tm[b, a], abs=1e-12)

    def test_stationary_distribution_is_target(self):
        tm = three_state_transition_matrix()
        pi = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(pi @ tm, pi, atol=1e-15)


class TestRunChain:
    def test_single_step_chain(self):
        target = IsotropicGaussianTarget(1, 1.0)
        chain = run_chain(
            target, GaussianRandomWalk(1.0), np.zeros(1), 1, np.random.default_rng(5)
        )
        assert len(chain) == 1

    def test_bad_start_raises(self):
        with pytest.raises(ValueError):
            run_chain(
                ThreeState(), UniformThreeState(), np.array([0.25]), 10,
                np.random.default_rng(6),
            )

    def test_seed_determinism(self):
        target = exercise_2d_target()
        a = run_chain(target, GaussianRandomWalk(1.0), np.zeros(2), 500,
                      np.random.default_rng(7))
        b = run_chain(target, GaussianRandomWalk(1.0), np.zeros(2), 500,
                      np.random.default_rng(7))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.accepted, b.accepted)

    def test_adaptive_scale_hits_target_band_d10(self):
        d = 10
        target = IsotropicGaussianTarget(d, 1.0)
        proposal = GaussianRandomWalk(2.5 / np.sqrt(d))
        chain = run_chain(target, proposal, np.zeros(d), 20_000,
                          np.random.default_rng(8))
        assert 0.15 <= acceptance_fraction(chain) <= 0.35

    def test_fixed_scale_acceptance_matches_exponential_law_d10(self):
        d = 10
        target = IsotropicGaussianTarget(d, 1.0)
        proposal = GaussianRandomWalk(np.sqrt(2.0))
        rng = np.random.default_rng(9)
        chain = run_chain(target, proposal, rng.standard_normal(d), 20_000, rng)
        predicted = np.exp(-d / 4.0 - 0.5)
        measured = acceptance_fraction(chain)
        assert predicted / 2.0 <= measured <= predicted * 2.0

    def test_target_rescaling_leaves_decisions_identical(self):
        # multiplying the density by a constant shifts every log density by
        # the same amount; same stream, same accept/reject decisions
        class Scaled(IsotropicGaussianTarget):
            def log_density(self, theta):
                return super().log_density(theta) + 123.456

        base = run_chain(
            IsotropicGaussianTarget(3, 1.0), GaussianRandomWalk(1.0),
            np.zeros(3), 1000, np.random.default_rng(10),
        )
        scaled = run_chain(
            Scaled(3, 1.0), GaussianRandomWalk(1.0),
            np.zeros(3), 1000, np.random.default_rng(10),
        )
        np.testing.assert_array_equal(base.accepted, scaled.accepted)
        np.testing.assert_array_equal(base.states, scaled.states)

    def test_scaled_proposal_keeps_acceptance_flat_in_d(self):
        fractions = {}
        for d in (5, 10, 25, 50):
            target = IsotropicGaussianTarget(d, 1.0)
            chain = run_chain(
                target, GaussianRandomWalk(2.5 / np.sqrt(d)), np.zeros(d),
                4000, np.random.default_rng(d),
            )
            fractions[d] = acceptance_fraction(chain)
        spread = max(fractions.values()) - min(fractions.values())
        assert spread < 0.10

    def test_fixed_proposal_acceptance_decays_in_d(self):
        fractions = []
        for d in (2, 5, 10, 20):
            target = IsotropicGaussianTarget(d, 1.0)
            rng = np.random.default_rng(100 + d)
            chain = run_chain(
                target, GaussianRandomWalk(np.sqrt(2.0)), rng.standard_normal(d),
                4000, rng,
            )
            fractions.append(acceptance_fraction(chain))
        assert all(a > b for a, b in zip(fractions, fractions[1:]))


def block_oracle(target, scale, theta0, n, seed):
    """A random-walk chain in plain numpy: all steps drawn, then all uniforms.

    A candidate is taken iff ``log u <= min(0, dlogp)``; ``-inf`` never is.
    """
    rng = np.random.default_rng(seed)
    steps = scale * rng.standard_normal((n, theta0.size))
    log_u = np.log(rng.random(n))
    states, accepted = np.empty((n, theta0.size)), np.zeros(n, dtype=bool)
    x, lp = theta0, target.log_density(theta0)
    for i in range(n):
        y = x + steps[i]
        lp_y = target.log_density(y)
        if lp_y != -np.inf and log_u[i] <= min(0.0, lp_y - lp):
            x, lp, accepted[i] = y, lp_y, True
        states[i] = x
    return states, accepted


class UniformBox(MarkovProposal):
    """Symmetric uniform step on ``[-1, 1]^d``, with no ``steps`` hook."""

    symmetric = True

    def propose(self, current, rng):
        return current + rng.uniform(-1.0, 1.0, current.shape)


class TestDrawOrder:
    @pytest.mark.parametrize("target, scale", [
        (IsotropicGaussianTarget(3, 1.0), 1.2),
        (IsotropicGaussianTarget(20, 1.0), 2.5 / np.sqrt(20)),
        (HalfPlane(-np.inf), 1.0),
    ], ids=["isotropic-d3", "isotropic-d20", "half-plane"])
    def test_random_walk_matches_block_oracle(self, target, scale):
        d = target.dim
        theta0 = np.full(d, 0.1)
        chain = run_chain(target, GaussianRandomWalk(scale), theta0, 3000,
                          np.random.default_rng(21))
        states, accepted = block_oracle(target, scale, theta0, 3000, 21)
        assert 0 < accepted.sum() < 3000
        np.testing.assert_array_equal(chain.states, states)
        np.testing.assert_array_equal(chain.accepted, accepted)

    def test_general_proposal_steps_as_mh_step(self):
        # a proposal without the hook keeps its per-step stream: candidate,
        # then uniform, exactly as n threaded mh_step calls draw them
        target = IsotropicGaussianTarget(2, 1.0)
        rng_run, rng_step = np.random.default_rng(22), np.random.default_rng(22)
        chain = run_chain(target, UniformBox(), np.zeros(2), 500, rng_run)
        x, states, accepted = np.zeros(2), [], []
        for _ in range(500):
            x, acc = mh_step(target, UniformBox(), x, rng_step)
            states.append(x)
            accepted.append(acc)
        assert 0 < sum(accepted) < 500
        np.testing.assert_array_equal(chain.states, np.array(states))
        np.testing.assert_array_equal(chain.accepted, np.array(accepted))
        assert rng_run.bit_generator.state == rng_step.bit_generator.state

    def test_mh_step_draws_step_then_uniform(self):
        # one random-walk step: scale * standard_normal(d), then one uniform
        target = IsotropicGaussianTarget(2, 1.0)
        rng, oracle = np.random.default_rng(23), np.random.default_rng(23)
        x = y = np.zeros(2)
        for _ in range(200):
            x, acc = mh_step(target, GaussianRandomWalk(1.5), x, rng)
            candidate = y + 1.5 * oracle.standard_normal(2)
            log_a = min(0.0, target.log_density(candidate) - target.log_density(y))
            take = np.log(oracle.random()) <= log_a
            y = candidate if take else y
            assert acc == take
            np.testing.assert_array_equal(x, y)


class CountingGaussian(TargetDensity):
    """N(0, I) whose log density is ``bad`` at each point of ``bad_points``.

    Both methods go through one vectorized evaluation, so the rows agree
    with ``log_density`` bit for bit; ``batches`` counts the calls of
    ``log_density_many`` with more than one row.
    """

    def __init__(self, dim, bad=np.nan, bad_points=(), beyond=None):
        self.dim = dim
        self.bad = bad
        self.bad_points = {tuple(p) for p in np.asarray(bad_points, float).reshape(-1, dim)}
        self.beyond = beyond  # log density where x_0 > 1, if given
        self.batches = 0

    def log_density_many(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.batches += len(pts) > 1
        lp = np.vecdot(-0.5 * pts, pts)
        if self.beyond is not None:
            lp = np.where(pts[:, 0] > 1.0, self.beyond, lp)
        hit = [tuple(p) in self.bad_points for p in pts.tolist()]
        return np.where(hit, self.bad, lp)

    def log_density(self, theta):
        return float(self.log_density_many(np.asarray(theta, float)[None, :])[0])


class TestPrefetchedRuns:
    """Pre-fetched batches leave the chain, its flags and its stream as the scalar loop's."""

    @staticmethod
    def assert_matches_oracle(target, scale, theta0, n, seed):
        rng = np.random.default_rng(seed)
        chain = run_chain(target, GaussianRandomWalk(scale), theta0, n, rng)
        states, accepted = block_oracle(target, scale, theta0, n, seed)
        np.testing.assert_array_equal(chain.states, states)
        np.testing.assert_array_equal(chain.accepted, accepted)
        oracle = np.random.default_rng(seed)
        oracle.standard_normal((n, theta0.size))
        oracle.random(n)
        assert rng.bit_generator.state == oracle.bit_generator.state
        return chain

    @pytest.mark.parametrize("d, scale, band", [
        (10, np.sqrt(2.0), (0.02, 0.1)),
        (20, np.sqrt(2.0), (0.0, 0.02)),
        (5, 2.5 / np.sqrt(5), (0.2, 0.35)),
    ], ids=["fixed-d10", "fixed-d20", "adaptive-d5"])
    def test_low_acceptance_chain_equals_scalar_loop(self, d, scale, band):
        target = CountingGaussian(d)
        theta0 = np.random.default_rng(d).standard_normal(d)
        chain = self.assert_matches_oracle(target, scale, theta0, 6000, 31)
        assert band[0] < chain.accepted.mean() < band[1]
        assert target.batches > 0

    def test_high_acceptance_chain_equals_scalar_loop(self):
        # a busy chain (acceptance near 0.55) runs in rejection runs too,
        # here of K = 2 or 3 rows
        target = CountingGaussian(2)
        theta0 = np.random.default_rng(2).standard_normal(2)
        chain = self.assert_matches_oracle(target, 1.0, theta0, 4000, 38)
        assert 0.45 < chain.accepted.mean() < 0.65
        assert target.batches > 0

    def test_neg_inf_region_equals_scalar_loop(self):
        target = CountingGaussian(2, beyond=-np.inf)
        chain = self.assert_matches_oracle(target, 3.0, np.zeros(2), 4000, 32)
        assert 0.0 < chain.accepted.mean() < 0.3
        assert np.all(chain.states[:, 0] <= 1.0)
        assert target.batches > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_inf_at_a_reached_row_raises_naming_it(self, bad):
        d, n, scale = 10, 3000, np.sqrt(2.0)
        theta0 = np.zeros(d)
        states, _ = block_oracle(CountingGaussian(d), scale, theta0, n, 33)
        steps = scale * np.random.default_rng(33).standard_normal((n, d))
        reached = states[1999] + steps[2000]  # step 2000's candidate
        target = CountingGaussian(d, bad, [reached])
        shown = np.array2string(reached, precision=6, separator=", ")
        with pytest.raises(NumericalError, match=re.escape(shown)):
            run_chain(target, GaussianRandomWalk(scale), theta0, n, np.random.default_rng(33))
        assert target.batches > 0

    def test_nan_after_the_first_accept_stays_silent(self):
        # every row a batch may hold past an accept is a point the scalar
        # loop never evaluates: the chain runs on as if they were finite
        d, n, scale = 10, 3000, np.sqrt(2.0)
        theta0 = np.zeros(d)
        states, accepted = block_oracle(CountingGaussian(d), scale, theta0, n, 34)
        steps = scale * np.random.default_rng(34).standard_normal((n, d))
        before = np.vstack([theta0, states[:-1]])
        unreached = [before[a] + steps[a + 1:a + 257] for a in np.flatnonzero(accepted)[:20]]
        target = CountingGaussian(d, np.nan, np.vstack(unreached))
        self.assert_matches_oracle(target, scale, theta0, n, 34)
        assert target.batches > 0

    def test_log_density_alone_overridden_runs_the_scalar_loop(self):
        # Scaled inherits a log_density_many that lacks its shift; batching
        # it would compare shifted and unshifted values and reject every step
        class Scaled(IsotropicGaussianTarget):
            def log_density(self, theta):
                return super().log_density(theta) + 123.456

        d = 10
        theta0 = np.random.default_rng(35).standard_normal(d)
        base = run_chain(IsotropicGaussianTarget(d), GaussianRandomWalk(1.5), theta0, 3000,
                         np.random.default_rng(36))
        scaled = run_chain(Scaled(d), GaussianRandomWalk(1.5), theta0, 3000,
                           np.random.default_rng(36))
        assert 0.0 < base.accepted.mean() < 0.05
        np.testing.assert_array_equal(base.accepted, scaled.accepted)
        np.testing.assert_array_equal(base.states, scaled.states)

    def test_proposals_without_steps_and_mh_step_never_batch(self):
        # a wide uniform box in d=10 rarely accepts, yet its chain keeps the
        # per-step stream of threaded mh_step calls
        class WideBox(MarkovProposal):
            symmetric = True

            def propose(self, current, rng):
                return current + rng.uniform(-3.0, 3.0, current.shape)

        target = CountingGaussian(10)
        rng_run, rng_step = np.random.default_rng(37), np.random.default_rng(37)
        chain = run_chain(target, WideBox(), np.zeros(10), 1000, rng_run)
        x, states = np.zeros(10), []
        for _ in range(1000):
            x, _ = mh_step(target, WideBox(), x, rng_step)
            states.append(x)
        for _ in range(300):
            x, _ = mh_step(target, GaussianRandomWalk(np.sqrt(2.0)), x, rng_step)
        assert chain.accepted.mean() < 0.1
        np.testing.assert_array_equal(chain.states, np.array(states))
        assert target.batches == 0


class TestAcceptanceFraction:
    def test_trivial_values(self):
        states = np.zeros((4, 1))
        start = np.zeros(1)
        all_true = Chain(states, np.array([True] * 4), start)
        none_true = Chain(states, np.array([False] * 4), start)
        three_of_four = Chain(states, np.array([True, True, True, False]), start)
        assert acceptance_fraction(all_true) == 1.0
        assert acceptance_fraction(none_true) == 0.0
        assert acceptance_fraction(three_of_four) == 0.75


class TestDropBurnIn:
    def test_zero_fraction_is_identity(self):
        chain = Chain(np.arange(10.0).reshape(-1, 1), np.ones(10, bool), np.zeros(1))
        assert drop_burn_in(chain, 0.0) is chain

    def test_fraction_removes_leading_states(self):
        chain = Chain(np.arange(10.0).reshape(-1, 1), np.ones(10, bool), np.zeros(1))
        trimmed = drop_burn_in(chain, 0.2)
        assert len(trimmed) == 8
        assert trimmed.states[0, 0] == 2.0
        assert trimmed.start[0] == 1.0

    def test_invalid_fraction(self):
        chain = Chain(np.zeros((4, 1)), np.ones(4, bool), np.zeros(1))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                drop_burn_in(chain, bad)

    def test_far_start_bias_removed_by_trimming(self):
        # started at (10, 10), the raw mean of a short chain is visibly
        # biased; trimming the burn-in brings it back within noise
        target = exercise_2d_target()
        means_raw, means_trim, ses = [], [], []
        for rep in range(16):
            chain = run_chain(
                target, GaussianRandomWalk(1.0), np.array([10.0, 10.0]),
                1000, np.random.default_rng(200 + rep),
            )
            kept = drop_burn_in(chain, 0.2)
            means_raw.append(chain.states[:, 0].mean())
            means_trim.append(kept.states[:, 0].mean())
        bias_raw = np.mean(means_raw) - (-0.3)
        bias_trim = np.mean(means_trim) - (-0.3)
        se_trim = np.std(means_trim, ddof=1) / np.sqrt(len(means_trim))
        assert abs(bias_trim) < 5.0 * se_trim
        assert abs(bias_raw) > abs(bias_trim)
