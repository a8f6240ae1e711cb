"""Diagnostics against analytic oracles: AR(1), iid series, Kish identities."""

import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmclab import diagnostics
from mcmclab.diagnostics import (
    autocorrelation,
    autocovariance,
    binomial_sample_bound,
    chain_ess,
    ess_from_tau,
    evidence_from_chain,
    histogram_density,
    integrated_autocorr_time,
    kish_ess,
    per_coordinate_tau,
    TauEstimate,
)
from mcmclab.errors import CoverageError, NumericalError, ZeroVarianceError
from mcmclab.grid import _cell_volumes
from mcmclab.harness import exercise_2d_target
from mcmclab.importance import WeightedSamples
from mcmclab.mh import Chain, GaussianRandomWalk, drop_burn_in, run_chain
from mcmclab.targets import IsotropicGaussianTarget, TargetDensity


def ar1_series(phi, n, rng):
    """AR(1) with unit innovations; A(t) = phi^t, tau = 2 phi / (1 - phi)."""
    x = np.empty(n)
    x[0] = rng.standard_normal() / np.sqrt(1 - phi**2)
    eps = rng.standard_normal(n - 1)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + eps[i - 1]
    return x


class TestAutocovariance:
    def test_constant_series_is_zero(self):
        series = np.full(100, 3.7)
        for t in (0, 1, 10, 99):
            assert autocovariance(series, t) == 0.0

    def test_alternating_series_lag_one(self):
        n = 1000
        series = np.tile([1.0, -1.0], n // 2)
        assert autocovariance(series, 1) == pytest.approx(-(n - 1) / n, rel=1e-12)

    def test_lag_zero_is_population_variance(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal(500) * 2.0 + 1.0
        assert autocovariance(series, 0) == pytest.approx(series.var(), rel=1e-12)

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            autocovariance(np.zeros(10), 10)

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(1)
        series = rng.standard_normal(200)
        for t in (0, 1, 5, 50):
            assert autocovariance(series, t) == pytest.approx(
                autocovariance(series[::-1], t), rel=1e-12
            )


class TestAutocorrelation:
    def test_lag_zero_is_exactly_one(self):
        rng = np.random.default_rng(2)
        curve = autocorrelation(rng.standard_normal(300))
        assert curve.values[0] == 1.0

    def test_iid_band(self):
        rng = np.random.default_rng(3)
        curve = autocorrelation(rng.standard_normal(100_000), t_max=100)
        assert np.all(np.abs(curve.values[1:]) < 0.02)

    def test_ar1_matches_phi_powers(self):
        rng = np.random.default_rng(4)
        series = ar1_series(0.9, 100_000, rng)
        curve = autocorrelation(series, t_max=20)
        expected = 0.9 ** np.arange(21)
        np.testing.assert_allclose(curve.values, expected, atol=0.05)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        series = ar1_series(0.99, 5000, rng)
        curve = autocorrelation(series, t_max=4000)
        assert np.all(np.abs(curve.values) <= 1.0 + 1e-12)

    def test_zero_variance_raises(self):
        with pytest.raises(ZeroVarianceError):
            autocorrelation(np.ones(200))


class TestIntegratedAutocorrTime:
    def test_iid_tau_near_zero(self):
        rng = np.random.default_rng(6)
        est = integrated_autocorr_time(rng.standard_normal(100_000))
        assert abs(est.tau) < 0.1
        assert not est.truncated

    def test_ar1_tau_matches_analytic(self):
        rng = np.random.default_rng(7)
        est = integrated_autocorr_time(ar1_series(0.9, 100_000, rng))
        assert est.tau == pytest.approx(18.0, rel=0.2)

    def test_window_self_consistency(self):
        rng = np.random.default_rng(8)
        est = integrated_autocorr_time(ar1_series(0.9, 100_000, rng))
        assert est.window >= 5.0 * est.tau
        assert not est.truncated

    def test_truncation_warns(self):
        rng = np.random.default_rng(9)
        series = ar1_series(0.999, 2000, rng)
        with pytest.warns(RuntimeWarning):
            est = integrated_autocorr_time(series, t_max=20)
        assert est.truncated
        assert est.window == 20

    def test_short_series_reports_insufficient_data(self):
        est = integrated_autocorr_time(np.arange(50.0))
        assert est.insufficient_data
        assert np.isnan(est.tau)

    def test_tau_clamped_at_zero(self):
        # strongly negative lag-1 correlation sums to a negative raw tau
        series = np.tile([1.0, -1.0], 500) + 0.001 * np.arange(1000)
        est = integrated_autocorr_time(series)
        assert est.tau >= 0.0

    def test_mh_chain_tau_near_3d_at_d10(self):
        d = 10
        target = IsotropicGaussianTarget(d, 1.0)
        chain = run_chain(
            target, GaussianRandomWalk(2.5 / np.sqrt(d)), np.zeros(d),
            20_000, np.random.default_rng(10),
        )
        kept = drop_burn_in(chain, 0.2)
        taus = [e.tau for e in per_coordinate_tau(kept.states)]
        assert max(taus) == pytest.approx(3 * d, rel=1.0)  # within factor 2


def loop_acf(x, t_max):
    """Reference A(0..t_max): one dot product per lag."""
    n = x.size
    a = x - x.mean()
    c0 = a @ a / n
    return np.array([1.0] + [a[: n - t] @ a[t:] / n / c0 for t in range(1, t_max + 1)])


def loop_tau(x, c=5.0, t_max=None):
    """Reference windowed tau: lags summed one at a time until t >= c * tau."""
    n = x.size
    t_max = min(n - 1, 10_000) if t_max is None else t_max
    a = x - x.mean()
    c0 = a @ a / n
    running = 0.0
    for t in range(1, t_max + 1):
        running += a[: n - t] @ a[t:] / n / c0
        tau = 2.0 * running
        if t >= c * tau:
            return max(tau, 0.0), t, False
    return max(2.0 * running, 0.0), t_max, True


ar1_batches = st.tuples(
    st.floats(-0.5, 0.99),
    st.integers(100, 3000),
    st.integers(1, 5),
    st.one_of(st.none(), st.integers(1, 30)),
    st.integers(0, 2**32 - 1),
)


class TestFftMatchesLagLoop:
    @settings(max_examples=60, deadline=None)
    @given(ar1_batches)
    def test_batch_tau_matches_loop(self, case):
        phi, n, k, t_max, seed = case
        rng = np.random.default_rng(seed)
        x = np.column_stack([ar1_series(phi, n, rng) for _ in range(k)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ests = [integrated_autocorr_time(x[:, j], t_max=t_max) for j in range(k)]
        for j, est in enumerate(ests):
            tau, window, truncated = loop_tau(x[:, j], t_max=t_max)
            assert (est.window, est.truncated, est.insufficient_data) == (
                window, truncated, False
            )
            assert est.tau == pytest.approx(tau, rel=1e-10, abs=1e-12)
        assert sum(e.truncated for e in ests) == len(caught)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batch = per_coordinate_tau(x)
            assert batch == [integrated_autocorr_time(x[:, j]) for j in range(k)]

    @settings(max_examples=30, deadline=None)
    @given(ar1_batches)
    def test_curve_matches_loop(self, case):
        phi, n, _, t_max, seed = case
        x = ar1_series(phi, n, np.random.default_rng(seed))
        t_max = min(n - 1, 1000) if t_max is None else t_max
        np.testing.assert_allclose(
            autocorrelation(x, t_max).values, loop_acf(x, t_max), rtol=1e-10, atol=1e-12
        )

    def test_constant_column_in_batch_raises(self):
        x = np.random.default_rng(20).standard_normal((500, 3))
        x[:, 1] = 2.5
        with pytest.raises(ZeroVarianceError, match="column 1"):
            per_coordinate_tau(x)

    def test_truncated_column_in_batch_warns(self):
        # the default window stops at lag 10,000; a random walk four times
        # that long is still correlated there
        rng = np.random.default_rng(21)
        walk = np.cumsum(rng.standard_normal(40_000))
        x = np.column_stack([rng.standard_normal(40_000), walk])
        with pytest.warns(RuntimeWarning, match="1 of 2 autocorrelation windows hit t_max=10000"):
            fast, slow = per_coordinate_tau(x)
        assert not fast.truncated
        assert slow.truncated and slow.window == 10_000

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_series_raise(self, bad):
        x = np.random.default_rng(22).standard_normal((500, 3))
        x[250, 2] = bad
        with pytest.raises(NumericalError, match="column 2 .*not finite"):
            per_coordinate_tau(x)
        with pytest.raises(NumericalError, match="not finite"):
            integrated_autocorr_time(x[:, 2])
        with pytest.raises(NumericalError, match="not finite"):
            autocorrelation(x[:, 2])

    def test_input_is_left_untouched(self):
        x = np.random.default_rng(23).standard_normal(500) + 3.0
        before = x.copy()
        integrated_autocorr_time(x)
        autocorrelation(x)
        np.testing.assert_array_equal(x, before)

    def test_t_max_beyond_series_raises(self):
        x = np.random.default_rng(24).standard_normal(200)
        with pytest.raises(ValueError, match="t_max"):
            integrated_autocorr_time(x, t_max=200)


@contextlib.contextmanager
def blocks_of(width, n):
    """Make the tau workspace hold ``width`` series of length ``n`` per block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagnostics, "_SEGMENT", 2 * n * width)
        yield


blocked_batches = st.tuples(
    st.integers(100, 600),
    st.integers(3, 12),
    st.one_of(st.none(), st.integers(1, 99)),
    st.floats(-0.5, 0.999),
    st.integers(0, 2**32 - 1),
)


class TestBlockedWorkspace:
    @settings(max_examples=60, deadline=None)
    @given(blocked_batches)
    def test_blocks_match_single_columns(self, case):
        # at least three blocks, the last one often partial
        n, k, t_max, phi, seed = case
        rng = np.random.default_rng(seed)
        x = np.column_stack([ar1_series(phi, n, rng) for _ in range(k)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            alone = [integrated_autocorr_time(x[:, j], t_max=t_max) for j in range(k)]
        with blocks_of(max(1, k // 3), n), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if t_max is None:
                blocked = per_coordinate_tau(x)
            else:
                blocked = diagnostics._taus([x], t_max)
        assert blocked == alone
        # the batch fills its windows and flags per block: each must be the column's
        assert [(e.window, e.truncated, repr(e.tau)) for e in blocked] == [
            (e.window, e.truncated, repr(e.tau)) for e in alone]
        cut = sum(e.truncated for e in alone)
        assert [str(w.message) for w in caught] == [
            f"{cut} of {k} autocorrelation windows hit t_max={t_max or n - 1} "
            "before self-consistency"
        ] * (cut > 0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 8),
           st.integers(100, 400), st.integers(0, 2**32 - 1))
    def test_constant_column_in_any_block_raises(self, value, col, n, seed):
        # a constant series' mean need not round back to its value
        x = np.random.default_rng(seed).standard_normal((n, 9))
        x[:, col] = value
        with blocks_of(2, n), pytest.raises(ZeroVarianceError,
                                            match=f"column {col} has zero variance") as err:
            per_coordinate_tau(x)
        assert err.value.column == col

    @settings(max_examples=30, deadline=None)
    @given(blocked_batches, st.integers(1, 5))
    def test_a_sequence_of_arrays_is_one_batch(self, case, parts):
        # columns split over several arrays, each read from one reused
        # buffer as a generator hands them out, give the batch's taus and
        # its one warning
        n, k, t_max, phi, seed = case
        rng = np.random.default_rng(seed)
        x = np.column_stack([ar1_series(phi, n, rng) for _ in range(k)])

        def reused(buffer=np.empty((n, k))):
            for part in np.array_split(x, parts, axis=1):
                view = buffer[:, : part.shape[1]]
                view[...] = part
                yield view

        with warnings.catch_warnings(record=True) as whole:
            warnings.simplefilter("always")
            expected = diagnostics._taus([x], t_max)
        with blocks_of(max(1, k // 3), n), warnings.catch_warnings(record=True) as split:
            warnings.simplefilter("always")
            got = diagnostics._taus(reused(), t_max)
        assert [(e.window, e.truncated, repr(e.tau)) for e in got] == [
            (e.window, e.truncated, repr(e.tau)) for e in expected]
        assert [str(w.message) for w in split] == [str(w.message) for w in whole]

    @pytest.mark.parametrize("bad, error, message", [
        (np.nan, NumericalError, "column 7 is not finite"),
        (None, ZeroVarianceError, "column 7 has zero variance"),
    ])
    def test_a_later_array_names_its_column_across_the_sequence(self, bad, error, message):
        x = np.random.default_rng(29).standard_normal((200, 9))
        if bad is None:
            x[:, 7] = 0.5
        else:
            x[50, 7] = bad
        with pytest.raises(error, match=message):
            diagnostics._taus([x[:, :4], x[:, 4:6], x[:, 6:]], None)

    def test_arrays_of_another_length_raise(self):
        x = np.random.default_rng(30).standard_normal((200, 4))
        with pytest.raises(ValueError, match="series of length 150 after series of length 200"):
            diagnostics._taus([x, x[:150]], None)
        short = [x[:50], x[:50, :3]]
        assert list(map(repr, diagnostics._taus(short, None))) == [
            repr(TauEstimate(tau=float("nan"), window=0, insufficient_data=True))] * 7
        assert diagnostics._taus(iter([]), None) == []

    def test_underflowing_column_has_zero_variance(self):
        # every centred square of these values rounds to zero
        x = np.random.default_rng(26).standard_normal((200, 3))
        x[:, 1] = 0.0
        x[-1, 1] = 1e-200
        with pytest.raises(ZeroVarianceError, match="column 1 has zero variance"):
            per_coordinate_tau(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_a_later_block_names_its_column(self, bad):
        x = np.random.default_rng(27).standard_normal((200, 9))
        x[50, 7] = bad
        with blocks_of(2, 200), pytest.raises(NumericalError, match="column 7 is not finite"):
            per_coordinate_tau(x)

    @pytest.mark.parametrize("shape", [(16_000, 20), (1200, 2000)])
    def test_memory_is_bounded_by_the_block(self, shape):
        # one (k, 2n) transform of every column would peak at 19.7 and 146.6 MiB
        x = np.random.default_rng(28).standard_normal(shape)
        tracemalloc.start()
        try:
            per_coordinate_tau(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestChainEss:
    def test_iid_ess_is_nearly_n(self):
        rng = np.random.default_rng(11)
        ess = chain_ess(rng.standard_normal(10_000))
        assert ess == pytest.approx(10_000, rel=0.1)

    def test_formula(self):
        assert ess_from_tau(10_000, 9.0) == pytest.approx(1000.0)

    def test_short_chain_is_nan(self):
        rng = np.random.default_rng(25)
        assert np.isnan(chain_ess(rng.standard_normal((50, 3))))

    def test_multivariate_reports_minimum(self):
        rng = np.random.default_rng(12)
        fast = rng.standard_normal(20_000)
        slow = ar1_series(0.9, 20_000, rng)
        ess = chain_ess(np.column_stack([fast, slow]))
        assert ess == pytest.approx(chain_ess(slow), rel=1e-9)

    def test_fixed_scale_loses_10x_ess_at_d20(self):
        # stationary starts: at the exact mode the wide proposal would not
        # move at all within the run
        d = 20
        target = IsotropicGaussianTarget(d, 1.0)
        rng_f, rng_a = np.random.default_rng(13), np.random.default_rng(14)
        fixed = run_chain(target, GaussianRandomWalk(np.sqrt(2.0)),
                          rng_f.standard_normal(d), 20_000, rng_f)
        adaptive = run_chain(target, GaussianRandomWalk(2.5 / np.sqrt(d)),
                             rng_a.standard_normal(d), 20_000, rng_a)
        with np.errstate(all="ignore"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                ess_fixed = chain_ess(drop_burn_in(fixed, 0.2).states)
                ess_adaptive = chain_ess(drop_burn_in(adaptive, 0.2).states)
        assert ess_adaptive > 10.0 * ess_fixed


class TestKishEss:
    def test_equal_weights(self):
        assert kish_ess(np.full(5, 0.3)) == pytest.approx(5.0, rel=1e-12)

    def test_single_positive_weight(self):
        assert kish_ess(np.array([0.0, 4.0, 0.0])) == pytest.approx(1.0, rel=1e-12)

    def test_direct_formula_case(self):
        assert kish_ess(np.array([2.0, 1.0, 1.0])) == pytest.approx(16.0 / 6.0, rel=1e-12)

    def test_scale_invariance_linear(self):
        rng = np.random.default_rng(15)
        w = rng.random(100)
        assert kish_ess(8.0 * w) == pytest.approx(kish_ess(w), rel=1e-12)

    def test_scale_invariance_exact_in_log_space(self):
        lw = np.array([0.5, 0.0, -1.5, 2.0, -3.25])  # exactly representable
        assert kish_ess(log_weights=lw) == kish_ess(log_weights=lw + 4.0)

    def test_bounds(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            w = rng.random(rng.integers(1, 40)) ** 3
            ess = kish_ess(w)
            assert 1.0 - 1e-12 <= ess <= w.size + 1e-12

    def test_extreme_log_weights_are_stable(self):
        lw = np.array([-1e6, -1e6 + 1.0])
        expected = (1 + np.e) ** 2 / (1 + np.e**2)
        assert kish_ess(log_weights=lw) == pytest.approx(expected, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kish_ess(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            kish_ess(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            kish_ess()

    @pytest.mark.parametrize("log_weights, message", [
        ([], "empty"),
        ([0.0, np.nan], "finite or -inf"),
        ([0.0, np.inf], "finite or -inf"),
    ], ids=["empty", "nan", "+inf"])
    def test_log_weight_validation(self, log_weights, message):
        with pytest.raises(ValueError, match=message):
            kish_ess(log_weights=np.array(log_weights))


class TestHistogramDensity:
    @pytest.mark.parametrize("bins", [0, [3, 0], [-1, 2]])
    def test_fewer_than_one_bin_rejected(self, bins):
        with pytest.raises(ValueError, match="at least one bin"):
            histogram_density(np.zeros((5, 2)), bins=bins)

    def test_single_bin_holds_all_mass(self):
        rng = np.random.default_rng(17)
        samples = rng.random((500, 2))
        hd = histogram_density(samples, bins=1, bounds=[(0, 1), (0, 1)])
        assert hd.masses.ravel()[0] == 1.0
        assert hd.overflow_count == 0

    def test_uniform_fill(self):
        rng = np.random.default_rng(18)
        samples = rng.random((100_000, 1))
        hd = histogram_density(samples, bins=10, bounds=[(0, 1)])
        np.testing.assert_allclose(hd.masses, 0.1, atol=0.01)

    def test_counts_plus_overflow_is_exact(self):
        rng = np.random.default_rng(19)
        samples = rng.standard_normal((10_000, 2))
        hd = histogram_density(samples, bins=5, bounds=[(-1, 1), (-1, 1)])
        assert hd.counts.sum() + hd.overflow_count == 10_000
        assert hd.overflow_count > 0
        assert hd.masses.sum() + hd.overflow_mass == pytest.approx(1.0, abs=1e-12)

    def test_density_lookup(self):
        samples = np.array([[0.5], [0.5], [1.5], [2.5]])
        hd = histogram_density(samples, bins=3, bounds=[(0.0, 3.0)])
        rho = hd.density_at(np.array([[0.1], [1.1], [2.9], [5.0]]))
        np.testing.assert_allclose(rho, [0.5, 0.25, 0.25, 0.0])

    def test_right_edge_is_inclusive(self):
        samples = np.array([[0.0], [3.0]])
        hd = histogram_density(samples, bins=3, bounds=[(0.0, 3.0)])
        assert hd.overflow_count == 0
        assert hd.density_at(np.array([[3.0]]))[0] > 0

    def test_non_finite_coordinates_are_out_of_box(self):
        samples = np.array([[0.5, 0.5], [1.5, 1.5], [2.5, 2.5]])
        hd = histogram_density(samples, bins=3, bounds=[(0.0, 3.0), (0.0, 3.0)])
        points = np.array([[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf]])
        idx = hd.bin_indices(points)
        np.testing.assert_array_equal(idx, [[-1, 0], [0, -1], [-1, 0], [0, -1]])
        np.testing.assert_array_equal(hd.density_at(points), 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_density_at_equals_the_lattice_lookup(self, dim):
        rng = np.random.default_rng(40 + dim)
        samples = rng.standard_normal((4000, dim)) * rng.uniform(0.5, 2.0, dim)
        bins = [int(b) for b in rng.integers(3, 8, dim)]
        hd = histogram_density(samples, bins=bins)
        points = rng.standard_normal((500, dim)) * 2.0
        points[:3] = samples[:3]
        points[3, 0] = np.nan
        points[4, -1] = 1e3
        idx = hd.bin_indices(points)
        inside = np.all(idx >= 0, axis=1)
        assert 0 < inside.sum() < len(points)
        sel = tuple(idx[inside].T)
        expected = np.zeros(len(points))
        expected[inside] = (hd.counts / hd.n_samples)[sel] / _cell_volumes(hd.edges)[sel]
        np.testing.assert_array_equal(hd.density_at(points), expected)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_points_out_in_one_coordinate_are_out_of_box(self, dim):
        # each point is inside the box but in one coordinate, where it is below,
        # above, NaN or infinite: it has density 0 and counts as overflow
        rng = np.random.default_rng(70 + dim)
        bounds = [(-1.0, 1.0)] * dim
        inner = rng.uniform(-0.9, 0.9, (4 * dim, dim))
        for k in range(dim):
            inner[4 * k : 4 * k + 4, k] = [-1.5, 2.0, np.nan, -np.inf]
        samples = np.concatenate([inner, rng.uniform(-0.9, 0.9, (50, dim))])
        hd = histogram_density(samples, bins=3, bounds=bounds)
        assert hd.overflow_count == 4 * dim
        idx = hd.bin_indices(samples)
        inside = np.all(idx >= 0, axis=1)
        np.testing.assert_array_equal(inside, np.arange(len(samples)) >= 4 * dim)
        rho = hd.density_at(samples)
        np.testing.assert_array_equal(rho[:4 * dim], 0.0)
        assert (rho[4 * dim:] > 0).all()

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("boxed", [False, True])
    def test_counts_and_edges_equal_histogramdd(self, dim, boxed):
        # np.histogramdd is only the oracle here: points on an inner edge and
        # on the last edge, outside the box, NaN and inf, per-axis bins
        rng = np.random.default_rng(60 + dim)
        bins = [int(b) for b in rng.integers(2, 7, dim)]
        samples = rng.standard_normal((3000, dim))
        if boxed:
            bounds = [(-1.0, 1.5)] * dim
            edges = [np.linspace(lo, hi, b + 1) for (lo, hi), b in zip(bounds, bins)]
            samples[:20] = [e[-1] for e in edges]
            samples[20:40] = [e[1] for e in edges]
            samples[40:50] = [e[0] for e in edges]
            samples[50, 0] = np.nan
            samples[51, -1] = np.inf
            samples[52, 0] = -np.inf
        else:
            bounds = None
            samples[:20] = samples.max(axis=0)
        hd = histogram_density(samples, bins=bins, bounds=bounds)
        counts, edges = np.histogramdd(samples, bins=bins, range=bounds)
        for ours, theirs in zip(hd.edges, edges, strict=True):
            np.testing.assert_array_equal(ours, theirs)
        assert hd.counts.dtype == counts.astype(int).dtype
        np.testing.assert_array_equal(hd.counts, counts.astype(int))
        assert (hd.overflow_count > 0) == boxed

    def test_scalar_bins_and_all_outside(self):
        samples = np.array([[5.0, 5.0], [np.nan, 0.5], [-1.0, 0.5]])
        hd = histogram_density(samples, bins=3, bounds=[(0.0, 3.0), (0.0, 3.0)])
        assert hd.counts.shape == (3, 3)
        assert hd.counts.sum() == 0
        assert hd.overflow_count == 3

    @pytest.mark.parametrize("bins, bounds", [([2, 2, 2], None), (2, [(0.0, 1.0)])])
    def test_entry_per_dimension_required(self, bins, bounds):
        with pytest.raises(ValueError, match="one entry per dimension"):
            histogram_density(np.zeros((5, 2)), bins=bins, bounds=bounds)

    def test_counting_in_bounded_memory(self):
        # np.histogramdd's (bins + 2)^d lattice, its float copy and the
        # astype(int) copy peaked at 4.55 MiB here
        samples = np.random.default_rng(61).standard_normal((16_000, 5))
        bounds = [(-5.0, 5.0)] * 5
        tracemalloc.start()
        try:
            histogram_density(samples, bins=10, bounds=bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_flat_samples_are_one_dimensional(self):
        hd = histogram_density(np.array([0.1, 0.2, 0.3, 0.4]), bins=2)
        assert (hd.n_samples, hd.dim) == (4, 1)
        np.testing.assert_array_equal(hd.counts, [2, 2])
        column = histogram_density(np.array([[0.1], [0.2], [0.3], [0.4]]), bins=2)
        np.testing.assert_array_equal(hd.counts, column.counts)
        np.testing.assert_array_equal(hd.edges[0], column.edges[0])

    def test_two_dimensional_samples_bin_as_before(self):
        # (n, d) samples are read as given: np.histogram2d's counts and edges
        samples = np.random.default_rng(62).standard_normal((500, 2))
        hd = histogram_density(samples, bins=[4, 6], bounds=[(-3.0, 3.0), None])
        counts, *edges = np.histogram2d(samples[:, 0], samples[:, 1], bins=[4, 6],
                                        range=[(-3.0, 3.0), (samples[:, 1].min(),
                                                             samples[:, 1].max())])
        assert (hd.n_samples, hd.dim) == (500, 2)
        np.testing.assert_array_equal(hd.counts, counts.astype(int))
        for got, want in zip(hd.edges, edges):
            np.testing.assert_array_equal(got, want)

    def test_log_pdf_is_log_density_at(self):
        samples = np.array([[0.5], [0.5], [1.5], [2.5]])
        hd = histogram_density(samples, bins=4, bounds=[(0.0, 4.0)])
        inside = np.array([[0.1], [1.1], [2.9], [0.0]])
        np.testing.assert_array_equal(hd.log_pdf(inside), np.log(hd.density_at(inside)))
        np.testing.assert_array_equal(hd.log_pdf(inside), np.log([0.5, 0.25, 0.25, 0.5]))
        # an empty bin, outside the box on either side, NaN
        elsewhere = np.array([[3.5], [5.0], [-0.1], [np.nan]])
        np.testing.assert_array_equal(hd.log_pdf(elsewhere), -np.inf)


class TestSampleShapes:
    # every reader of samples takes a chain, an (n, d) array or a flat array of
    # n one-dimensional samples, and names that shape when given another
    @pytest.mark.parametrize("read", [
        per_coordinate_tau,
        chain_ess,
        lambda x: histogram_density(x, bins=2),
        lambda x: evidence_from_chain(
            IsotropicGaussianTarget(2), x, histogram_density(np.eye(2), bins=2)),
        lambda x: Chain(x, np.zeros(3, dtype=bool), np.zeros(2)),
        lambda x: WeightedSamples(x, np.zeros(3)),
    ], ids=["per_coordinate_tau", "chain_ess", "histogram_density", "evidence_from_chain",
            "Chain", "WeightedSamples"])
    @pytest.mark.parametrize("samples", [0.5, np.zeros((3, 2, 2)), [[[1.0, 2.0]]] * 3],
                             ids=["0-d", "3-D", "3-D list"])
    def test_other_shapes_raise_naming_the_expected_one(self, read, samples):
        with pytest.raises(ValueError, match=r"shape \(n, d\), got shape \("):
            read(samples)


class TestEvidenceFromChain:
    def test_single_bin_constant_target(self):
        class Flat(TargetDensity):
            dim = 1

            def log_density(self, theta):
                return np.log(3.0)

        rng = np.random.default_rng(20)
        samples = rng.random((2000, 1)) * 2.0  # box [0, 2], volume 2
        hd = histogram_density(samples, bins=1, bounds=[(0.0, 2.0)])
        z = evidence_from_chain(Flat(), samples, hd)
        assert z == pytest.approx(6.0, rel=1e-12)

    def test_2d_chain_recovers_evidence(self):
        target = exercise_2d_target()
        chain = run_chain(target, GaussianRandomWalk(1.0), np.zeros(2),
                          10_000, np.random.default_rng(21))
        samples = drop_burn_in(chain, 0.2).states
        bounds = [
            (min(-5.0, samples[:, k].min()), max(5.0, samples[:, k].max()))
            for k in range(2)
        ]
        hd = histogram_density(samples, bins=10, bounds=bounds)
        z = evidence_from_chain(target, samples, hd)
        assert z == pytest.approx(2.0 * np.pi, rel=0.25)

    def test_reordering_invariance(self):
        target = exercise_2d_target()
        rng = np.random.default_rng(22)
        samples = rng.standard_normal((4000, 2))
        hd = histogram_density(samples, bins=8)
        z = evidence_from_chain(target, samples, hd)
        z_perm = evidence_from_chain(target, samples[rng.permutation(4000)], hd)
        assert z_perm == pytest.approx(z, rel=1e-12)

    def test_zero_density_bin_raises(self):
        class Flat(TargetDensity):
            dim = 1

            def log_density(self, theta):
                return 0.0

        samples = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
        hd = histogram_density(samples, bins=2, bounds=[(0.0, 1.0)])
        with pytest.raises(NumericalError):
            evidence_from_chain(Flat(), np.array([[2.0]]), hd)

    def test_empty_bin_weighs_zero_where_the_target_is_zero(self):
        class HalfLine(TargetDensity):
            dim = 1

            def log_density(self, theta):
                return 0.0 if theta[0] <= 1.0 else -np.inf

        samples = np.linspace(0.0, 0.9, 50).reshape(-1, 1)
        hd = histogram_density(samples, bins=2, bounds=[(0.0, 2.0)])
        z = evidence_from_chain(HalfLine(), samples, hd)
        # a sample in the empty bin [1, 2] and one outside the box, both at
        # zero target density, count in n but add nothing
        extra = np.vstack([samples, [[1.5]], [[2.5]]])
        assert evidence_from_chain(HalfLine(), extra, hd) == pytest.approx(z * 50 / 52, rel=1e-12)
        # in the empty bin but at positive target density: no coverage
        with pytest.raises(CoverageError, match="1 point"):
            evidence_from_chain(HalfLine(), np.vstack([samples, [[1.0]]]), hd)

    @pytest.mark.parametrize("case", ["3-D samples, 2-D target", "2-D samples, 3-D target",
                                      "2-D histogram, 3-D samples and target"])
    def test_dimension_mismatch_raises(self, case):
        rng = np.random.default_rng(23)
        target_dim, sample_dim, hist_dim = {
            "3-D samples, 2-D target": (2, 3, 3),
            "2-D samples, 3-D target": (3, 2, 2),
            "2-D histogram, 3-D samples and target": (3, 3, 2),
        }[case]
        samples = rng.standard_normal((400, sample_dim))
        hd = histogram_density(samples[:, :hist_dim], bins=4)
        with pytest.raises(ValueError, match="share one dim"):
            evidence_from_chain(IsotropicGaussianTarget(target_dim), samples, hd)

    @pytest.mark.parametrize("kind", ["1-D array", "2-D array", "chain"])
    def test_equals_the_mean_density_ratio(self, kind):
        # exp(LSE(lp - log rho) - log n) in plain numpy, with the maximum
        # terms split out of the sum as in scipy's logsumexp
        rng = np.random.default_rng(24)
        if kind == "chain":
            target = exercise_2d_target()
            data = run_chain(target, GaussianRandomWalk(1.0), np.zeros(2), 2000, rng)
            samples = data.states
        else:
            target = IsotropicGaussianTarget(1 if kind == "1-D array" else 2, 1.3)
            samples = rng.standard_normal((3000, target.dim)) * 1.3
            data = samples[:, 0] if kind == "1-D array" else samples
        hd = histogram_density(samples, bins=7)
        lp = np.array([target.log_density(x) for x in samples])
        a = lp - np.log(hd.density_at(samples))
        top = a.max()
        count = float(np.count_nonzero(a == top))
        rest = np.exp(np.where(a == top, -np.inf, a) - top).sum()
        lse = np.log1p(rest / count) + np.log(count) + top
        expected = float(np.exp(lse - np.log(samples.shape[0])))
        assert evidence_from_chain(target, data, hd) == expected

    def test_estimate_spread_grows_with_dimension(self):
        # the replicate scatter of the histogram-evidence estimate degrades
        # with d at fixed chain length (its mean offset is binning-dominated
        # and not monotone, so the spread is the right thing to compare)
        spreads = {}
        for d in (2, 5):
            target = IsotropicGaussianTarget(d, 1.0)
            true_z = target.norm_constant
            zs = []
            for seed in range(20):
                chain = run_chain(
                    target, GaussianRandomWalk(2.5 / np.sqrt(d)), np.zeros(d),
                    10_000, np.random.default_rng(3000 + 31 * d + seed),
                )
                samples = drop_burn_in(chain, 0.2).states
                bounds = [
                    (min(-5.0, samples[:, k].min()), max(5.0, samples[:, k].max()))
                    for k in range(d)
                ]
                hd = histogram_density(samples, bins=10, bounds=bounds)
                zs.append(evidence_from_chain(target, samples, hd) / true_z)
            spreads[d] = np.std(zs, ddof=1)
        assert spreads[5] > spreads[2]


class TestBinomialSampleBound:
    def test_iid_case(self):
        assert binomial_sample_bound(0.5, 0.05) == 100

    def test_correlated_case(self):
        assert binomial_sample_bound(0.5, 0.05, tau_hat=9.0) == 1000

    def test_degenerate_probabilities(self):
        assert binomial_sample_bound(0.0, 0.1) == 0
        assert binomial_sample_bound(1.0, 0.1) == 0

    def test_eps_validation(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                binomial_sample_bound(0.5, bad)

    @pytest.mark.parametrize("p_hat", [-0.1, 1.5, np.nan])
    def test_p_hat_validation(self, p_hat):
        with pytest.raises(ValueError, match="p_hat"):
            binomial_sample_bound(p_hat, 0.1)

    def test_tau_hat_validation(self):
        assert binomial_sample_bound(0.5, 0.1, tau_hat=0.0) == 25
        with pytest.raises(ValueError, match="tau_hat"):
            binomial_sample_bound(0.5, 0.1, tau_hat=-0.5)

    @pytest.mark.parametrize("tau_hat", [np.nan, np.inf, float("inf")])
    def test_non_finite_tau_hat_rejected(self, tau_hat):
        with pytest.raises(ValueError, match="tau_hat must be finite and nonnegative"):
            binomial_sample_bound(0.5, 0.1, tau_hat=tau_hat)
