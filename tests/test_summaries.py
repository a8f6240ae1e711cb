"""Point estimates, credible summaries, prediction, model comparison."""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import mcmclab
from mcmclab.grid import GridSpec, build_grid, grid_evidence
from mcmclab.harness import (
    NOISY_MEAN_GRID,
    NOISY_MEAN_OBSERVATIONS,
    NOISY_MEAN_PRIOR,
    noisy_mean_alt_model,
    noisy_mean_model,
)
from mcmclab.summaries import (
    DiscretizedPosterior,
    LossSpec,
    bayes_factor,
    expected_loss,
    percentile_interval,
    point_estimate,
    posterior_predictive_noisy_mean,
    threshold_credible_region,
    _pointwise_loss,
)
from test_targets import conjugate_posterior


def noisy_mean_grid_posterior(k=10_000, lo=10.0, hi=50.0):
    model = noisy_mean_model()
    cells = build_grid(GridSpec.regular([(lo, hi)], k))
    return DiscretizedPosterior.from_grid(model, cells)


def gaussian_grid_posterior(mu=0.0, sd=1.0, k=4001, span=8.0):
    xs = np.linspace(mu - span * sd, mu + span * sd, k)
    masses = np.exp(-0.5 * ((xs - mu) / sd) ** 2)
    return DiscretizedPosterior(points=xs, masses=masses / masses.sum())


def stable_quantiles(post, ps):
    """Quantiles of a 1-D posterior through a stable argsort of its support."""
    order = np.argsort(post.points, kind="stable")
    cum = np.cumsum(post.masses[order])
    return [float(np.interp(p, cum, post.points[order])) for p in ps]


def predictive_support(model, grid_cells=4096):
    """The predictive's internal grid and posterior masses, in plain numpy."""
    anchors = [model.prior_mean] + [v for v, _ in model.observations]
    scales = [model.prior_sd] + [s for _, s in model.observations]
    support = np.linspace(min(anchors) - 10.0 * max(scales),
                          max(anchors) + 10.0 * max(scales), grid_cells)
    post = DiscretizedPosterior.from_log_masses(support, model.log_density_many(support[:, None]))
    return support, post.masses


def predictive_by_full_formula(model, sigma_new, t_new, grid_cells=4096):
    """The predictive with every kernel entry computed, in 64-row blocks of
    the full grid width, as the function's product takes them."""
    support, masses = predictive_support(model, grid_cells)
    ts = np.asarray(t_new, dtype=float).reshape(-1)
    out = np.empty(ts.size)
    for i in range(0, ts.size, 64):
        t = ts[i : i + 64]
        kernel = (np.exp(-0.5 * ((t[:, None] - support) / sigma_new) ** 2)
                  / (sigma_new * np.sqrt(2.0 * np.pi)))
        out[i : i + 64] = kernel @ masses
    return out


# ties, signed zeros and spread values: np.sort may reorder -0.0 and 0.0,
# and may even write one where the other was
support_values = st.sampled_from([-0.0, 0.0, -1.0, 1.0, 2.5]) | st.floats(-1e3, 1e3)


@st.composite
def equal_mass_cases(draw):
    """An equal-mass support and a coverage, whose tail often lands on a cumulative mass."""
    n = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]) | st.integers(1, 64))
    xs = np.array(draw(st.lists(support_values, min_size=n, max_size=n)))
    if draw(st.booleans()):
        # a tail at cum[j] exactly, which holds whenever n is a power of two
        p = float(np.cumsum(np.full(n, 1.0 / n))[draw(st.integers(0, n - 1))])
        coverage = 1.0 - 2.0 * p if p < 0.5 else 2.0 * p - 1.0
        assume(0.0 < coverage < 1.0)
    else:
        coverage = draw(st.floats(1e-6, 1.0 - 1e-6))
    return xs, coverage


class TestExpectedLoss:
    def test_squared_loss_point_mass(self):
        post = DiscretizedPosterior(points=np.array([3.0]), masses=np.array([1.0]))
        assert expected_loss(post, LossSpec.squared(), 5.0) == pytest.approx(4.0)

    def test_absolute_loss_two_masses(self):
        post = DiscretizedPosterior(
            points=np.array([0.0, 2.0]), masses=np.array([0.5, 0.5])
        )
        assert expected_loss(post, LossSpec.absolute(), 1.0) == pytest.approx(1.0)

    def test_piecewise_branches_on_the_truth(self):
        loss = LossSpec.piecewise_power(25.0)
        post = DiscretizedPosterior(
            points=np.array([24.0, 26.0]), masses=np.array([0.5, 0.5])
        )
        # truth 24 (< 25): cubic; truth 26 (>= 25): linear
        val = expected_loss(post, loss, 27.0)
        assert val == pytest.approx(0.5 * 3.0**3 + 0.5 * 1.0)

    @pytest.mark.parametrize("threshold", [25.0, np.nan])
    @pytest.mark.parametrize("candidate", [-3.0, 25.0, 25.5, 1e3])
    def test_piecewise_equals_the_where_formula_bit_for_bit(self, candidate, threshold):
        # points below, at and just either side of the threshold, NaN and the
        # infinities, and the noisy-mean exercise's grid
        near = [np.nextafter(25.0, 0.0), 25.0, np.nextafter(25.0, 50.0)]
        pts = np.concatenate([[-1e3, 0.0, 24.0, *near, 26.0, 1e3, np.nan, -np.inf, np.inf],
                              np.linspace(10.0, 50.0, 10_000)])
        dist = np.abs(pts - candidate)
        ref = np.where(pts < threshold, dist ** 3.0, dist ** 1.0)
        loss = LossSpec(kind="piecewise", threshold=threshold)
        assert _pointwise_loss(loss, candidate, pts).tobytes() == ref.tobytes()

    def test_catastrophic_loss_is_not_integrable(self):
        post = DiscretizedPosterior(points=np.array([0.0]), masses=np.array([1.0]))
        with pytest.raises(ValueError):
            expected_loss(post, LossSpec.catastrophic(), 0.0)

    @pytest.mark.parametrize("loss", [LossSpec.squared(), LossSpec.absolute(),
                                      LossSpec.catastrophic(), LossSpec.piecewise_power(0.0)],
                             ids=["squared", "absolute", "catastrophic", "piecewise"])
    def test_multi_dimensional_posterior_rejected(self, loss):
        post = DiscretizedPosterior(points=np.zeros((3, 2)), masses=np.ones(3))
        with pytest.raises(ValueError, match="1-D posteriors"):
            expected_loss(post, loss, 0.0)
        with pytest.raises(ValueError, match="1-D posteriors"):
            point_estimate(post, loss)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            LossSpec(kind="quartic")

    def test_piecewise_loss_needs_a_threshold(self):
        with pytest.raises(ValueError, match="needs a threshold"):
            LossSpec(kind="piecewise")


class TestPointEstimate:
    def test_symmetric_posterior_mean_median_mode_agree(self):
        post = gaussian_grid_posterior(mu=1.7, sd=0.4)
        step = post.points[1] - post.points[0]
        mean = point_estimate(post, LossSpec.squared())
        median = point_estimate(post, LossSpec.absolute())
        mode = point_estimate(post, LossSpec.catastrophic())
        assert mean == pytest.approx(1.7, abs=step)
        assert median == pytest.approx(1.7, abs=step)
        assert mode == pytest.approx(1.7, abs=step)

    def test_noisy_mean_posterior_mean_matches_conjugate(self):
        post = noisy_mean_grid_posterior()
        mean, _ = conjugate_posterior(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_PRIOR)
        assert point_estimate(post, LossSpec.squared()) == pytest.approx(mean, abs=0.01)
        assert point_estimate(post, LossSpec.squared()) == pytest.approx(29.44, abs=0.01)

    def test_squared_loss_estimate_is_weighted_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal(50)
        masses = rng.random(50)
        post = DiscretizedPosterior(points=pts, masses=masses / masses.sum())
        assert point_estimate(post, LossSpec.squared()) == pytest.approx(
            np.average(pts, weights=masses), abs=1e-10
        )

    def test_piecewise_cubic_side_attracts_the_estimate(self):
        # cubic penalty on truths below the threshold makes sub-threshold
        # mistakes expensive, pulling the minimizer below the median
        post = gaussian_grid_posterior(mu=25.0, sd=1.0)
        est = point_estimate(post, LossSpec.piecewise_power(25.0))
        median = point_estimate(post, LossSpec.absolute())
        assert est < median
        # numeric minimization oracle: brute-force scan on a fine lattice
        cand = np.linspace(23.0, 27.0, 2001)
        losses = [expected_loss(post, LossSpec.piecewise_power(25.0), c) for c in cand]
        brute = cand[int(np.argmin(losses))]
        assert est == pytest.approx(brute, abs=2e-3)

    def test_piecewise_reduces_to_absolute_when_threshold_below_support(self):
        post = gaussian_grid_posterior(mu=29.44, sd=0.396, span=6.0)
        est = point_estimate(post, LossSpec.piecewise_power(25.0))
        median = point_estimate(post, LossSpec.absolute())
        assert est == pytest.approx(median, abs=1e-3)

    def test_mode_tie_breaks_to_smaller_value(self):
        post = DiscretizedPosterior(
            points=np.array([0.0, 1.0, 2.0]), masses=np.array([0.4, 0.2, 0.4])
        )
        assert point_estimate(post, LossSpec.catastrophic()) == 0.0


class TestPercentileInterval:
    def test_uniform_grid(self):
        k = 400
        xs = (np.arange(k) + 0.5) / k
        post = DiscretizedPosterior(points=xs, masses=np.full(k, 1.0 / k))
        lo, hi = percentile_interval(post, 0.5)
        assert lo == pytest.approx(0.25, abs=1.5 / k)
        assert hi == pytest.approx(0.75, abs=1.5 / k)

    def test_noisy_mean_68_interval_matches_gaussian_quantiles(self):
        post = noisy_mean_grid_posterior()
        mean, sd = conjugate_posterior(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_PRIOR)
        lo, hi = percentile_interval(post, 0.68)
        z = norm.ppf(0.84)
        assert lo == pytest.approx(mean - z * sd, abs=0.01)
        assert hi == pytest.approx(mean + z * sd, abs=0.01)
        assert (lo, hi) == pytest.approx((29.05, 29.83), abs=0.02)

    def test_total_coverage_approaches_support_span(self):
        post = gaussian_grid_posterior(mu=0.0, sd=1.0, span=5.0)
        lo, hi = percentile_interval(post, 0.999999)
        assert lo < -4.0 and hi > 4.0

    def test_intervals_nest_with_coverage(self):
        post = noisy_mean_grid_posterior()
        intervals = [percentile_interval(post, y) for y in (0.3, 0.5, 0.8, 0.95)]
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert lo2 < lo1 and hi1 < hi2

    def test_median_always_inside(self):
        rng = np.random.default_rng(1)
        pts = np.sort(rng.standard_normal(200))
        masses = rng.random(200)
        post = DiscretizedPosterior(points=pts, masses=masses / masses.sum())
        median = point_estimate(post, LossSpec.absolute())
        for y in (0.1, 0.5, 0.9):
            lo, hi = percentile_interval(post, y)
            assert lo <= median <= hi

    def test_coverage_validation(self):
        post = gaussian_grid_posterior()
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                percentile_interval(post, bad)

    def test_requires_1d(self):
        post = DiscretizedPosterior(
            points=np.zeros((4, 2)), masses=np.full(4, 0.25)
        )
        with pytest.raises(ValueError):
            percentile_interval(post, 0.5)

    @pytest.mark.parametrize("support", ["ties", "signed-zero-ties", "unequal", "one-point"])
    @pytest.mark.parametrize("coverage", [0.1, 0.68, 0.95])
    def test_one_sort_equals_two_quantile_calls(self, support, coverage):
        # both tails and the median come from one sort of the support; each
        # must equal a plain stable-sort quantile of its probability alone,
        # the sign of a zero included
        rng = np.random.default_rng(61)
        if support == "ties":
            pts = rng.integers(0, 12, size=300).astype(float)
            masses = rng.random(300)
        elif support == "signed-zero-ties":
            pts = rng.choice([-0.0, 0.0, -1.0, 1.0], size=300)
            masses = rng.random(300)
        elif support == "unequal":
            pts = rng.standard_normal(500)
            masses = rng.random(500) ** 6
        else:
            pts, masses = np.array([2.5]), np.array([1.0])
        post = DiscretizedPosterior(points=pts, masses=masses)
        ps = [(1.0 - coverage) / 2.0, (1.0 + coverage) / 2.0, 0.5]
        got = [*percentile_interval(post, coverage), point_estimate(post, LossSpec.absolute())]
        assert repr(got) == repr(stable_quantiles(post, ps))
        assert all(type(q) is float for q in got)

    @settings(max_examples=300, deadline=None)
    @given(equal_mass_cases())
    @example((np.array([0.0] * 8 + [-0.0] * 8), 0.5))
    def test_equal_masses_match_the_stable_sort(self, case):
        # the value sort of equal masses must give the stable argsort's
        # quantiles to the bit, the sign of a zero included
        xs, coverage = case
        post = DiscretizedPosterior.from_samples(xs)
        ps = [(1.0 - coverage) / 2.0, (1.0 + coverage) / 2.0, 0.5]
        got = [*percentile_interval(post, coverage), point_estimate(post, LossSpec.absolute())]
        assert repr(got) == repr(stable_quantiles(post, ps))


class TestThresholdCredibleRegion:
    def test_heavy_cell_takes_the_mass(self):
        post = DiscretizedPosterior(
            points=np.array([0.0, 1.0]), masses=np.array([0.9, 0.1])
        )
        threshold, member = threshold_credible_region(post, 0.9)
        np.testing.assert_array_equal(member, [True, False])
        assert threshold == pytest.approx(0.9)

    def test_symmetric_unimodal_matches_percentile_interval(self):
        post = gaussian_grid_posterior(mu=0.0, sd=1.0, k=2001, span=6.0)
        step = post.points[1] - post.points[0]
        _, member = threshold_credible_region(post, 0.68)
        region = post.points[member]
        lo, hi = percentile_interval(post, 0.68)
        assert abs(region.min() - lo) <= 2 * step
        assert abs(region.max() - hi) <= 2 * step

    def test_skewed_posterior_differs_from_percentile(self):
        xs = np.linspace(-5.0, 6.5, 4001)
        masses = 0.8 * norm.pdf(xs, 0.0, 1.0) + 0.2 * norm.pdf(xs, 4.0, 0.3)
        post = DiscretizedPosterior(points=xs, masses=masses / masses.sum())
        _, member = threshold_credible_region(post, 0.68)
        lo, hi = percentile_interval(post, 0.68)
        region = post.points[member]
        # the tight secondary mode steals threshold mass: region max far from hi
        assert abs(region.max() - hi) > 0.5

    def test_mass_is_at_least_coverage_and_minimal(self):
        rng = np.random.default_rng(2)
        masses = rng.random(100)
        post = DiscretizedPosterior(
            points=np.sort(rng.standard_normal(100)), masses=masses / masses.sum()
        )
        threshold, member = threshold_credible_region(post, 0.7)
        inside = post.masses[member]
        assert inside.sum() >= 0.7
        dens = post.densities[member]
        weakest = np.argmin(dens)
        assert inside.sum() - inside[weakest] < 0.7
        assert dens.min() == pytest.approx(threshold)

    def test_equal_density_ties_enter_together(self):
        post = DiscretizedPosterior(
            points=np.array([0.0, 1.0, 2.0]), masses=np.array([0.4, 0.4, 0.2])
        )
        _, member = threshold_credible_region(post, 0.5)
        np.testing.assert_array_equal(member, [True, True, False])

    @pytest.mark.parametrize("support", ["ties", "unequal", "one-point"])
    @pytest.mark.parametrize("coverage", [0.1, 0.68, 0.95])
    def test_one_sort_equals_adding_density_groups(self, support, coverage):
        # the region from one sort must be the one built by adding whole
        # groups of equal density, densest first, until the mass is reached
        rng = np.random.default_rng(62)
        if support == "ties":
            pts = np.arange(300.0)
            masses = rng.integers(1, 8, size=300).astype(float)
        elif support == "unequal":
            pts = rng.standard_normal(500)
            masses = rng.random(500) ** 6
        else:
            pts, masses = np.array([2.5]), np.array([1.0])
        post = DiscretizedPosterior(points=pts, masses=masses)
        member = np.zeros(post.n, dtype=bool)
        cum = 0.0
        for level in np.unique(post.densities)[::-1]:
            group = post.densities == level
            member |= group
            cum += post.masses[group].sum()
            if cum >= coverage:
                break
        threshold, got = threshold_credible_region(post, coverage)
        np.testing.assert_array_equal(got, member)
        assert threshold == float(level) and type(threshold) is float

    def test_2d_region_from_histogram_masses(self):
        from mcmclab.diagnostics import histogram_density

        rng = np.random.default_rng(3)
        samples = rng.standard_normal((50_000, 2))
        hd = histogram_density(samples, bins=20, bounds=[(-4, 4), (-4, 4)])
        post = DiscretizedPosterior.from_histogram(hd)
        _, member = threshold_credible_region(post, 0.39)
        # 39% of a 2-D standard Gaussian lies within radius 1
        radii = np.linalg.norm(post.points[member], axis=1)
        assert radii.max() < 1.6
        assert post.masses[member].sum() == pytest.approx(0.39, abs=0.05)


class TestPosteriorPredictive:
    def test_zero_noise_returns_posterior_density(self):
        model = noisy_mean_model()
        mean, sd = conjugate_posterior(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_PRIOR)
        ts = np.linspace(mean - 1.0, mean + 1.0, 9)
        dens = posterior_predictive_noisy_mean(model, 0.0, ts)
        np.testing.assert_allclose(dens, norm.pdf(ts, mean, sd), rtol=1e-3)

    def test_noise_widens_by_convolution(self):
        model = noisy_mean_model()
        mean, sd = conjugate_posterior(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_PRIOR)
        pred_sd = np.sqrt(sd**2 + 4.0)
        ts = np.linspace(mean - 8 * pred_sd, mean + 8 * pred_sd, 4001)
        dens = posterior_predictive_noisy_mean(model, 2.0, ts)
        mass = dens / dens.sum()
        est_mean = ts @ mass
        est_sd = np.sqrt((ts - est_mean) ** 2 @ mass)
        assert est_sd == pytest.approx(pred_sd, rel=0.01)
        assert pred_sd == pytest.approx(2.039, abs=0.005)

    def test_predictive_integrates_to_one(self):
        model = noisy_mean_model()
        mean, sd = conjugate_posterior(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_PRIOR)
        for sigma_new in (0.5, 2.0):
            width = np.sqrt(sd**2 + sigma_new**2)
            ts = np.linspace(mean - 8 * width, mean + 8 * width, 8001)
            dens = posterior_predictive_noisy_mean(model, sigma_new, ts)
            integral = dens.sum() * (ts[1] - ts[0])
            assert integral == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("sigma_new", [0.5, 2.0])
    def test_matches_conjugate_predictive_on_exercise_grid(self, sigma_new):
        # normal prior and normal noise: the predictive is exactly
        # N(mu_n, sd_n^2 + sigma_new^2); the internal 4096-point posterior
        # grid reaches 10 of the widest scales past the data, so the two
        # differ by rounding only
        mean, sd = conjugate_posterior(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_PRIOR)
        lo, hi, _ = NOISY_MEAN_GRID
        ts = np.linspace(lo, hi, 2001)
        exact = norm.pdf(ts, mean, np.sqrt(sd**2 + sigma_new**2))
        dens = posterior_predictive_noisy_mean(noisy_mean_model(), sigma_new, ts)
        assert np.abs(dens - exact).max() <= 1e-12 * exact.max()

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            posterior_predictive_noisy_mean(noisy_mean_model(), -1.0, np.array([25.0]))

    @pytest.mark.parametrize("sigma_new", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, sigma_new):
        with pytest.raises(ValueError, match="sigma_new"):
            posterior_predictive_noisy_mean(noisy_mean_model(), sigma_new, np.array([25.0]))

    @pytest.mark.parametrize("grid_cells", [0, 1])
    def test_grid_of_fewer_than_two_cells_rejected(self, grid_cells):
        with pytest.raises(ValueError, match="grid_cells"):
            posterior_predictive_noisy_mean(
                noisy_mean_model(), 0.5, np.array([25.0]), grid_cells=grid_cells
            )

    def test_exercise_grid_in_bounded_memory(self):
        # a full 2001 x 4096 kernel alone is 62.5 MiB
        lo, hi, _ = NOISY_MEAN_GRID
        ts = np.linspace(lo, hi, 2001)
        model = noisy_mean_model()
        for sigma_new in (0.5, 2.0):
            tracemalloc.start()
            try:
                posterior_predictive_noisy_mean(model, sigma_new, ts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20

    @pytest.mark.parametrize("sigma_new", [0.5, 2.0])
    def test_exercise_call_under_3_mib(self, sigma_new):
        # the noisy-mean exercise's call: one 64 x 4096 kernel block is
        # 2 MiB, where a 256-row block alone was 8 MiB
        lo, hi, _ = NOISY_MEAN_GRID
        ts = np.linspace(lo, hi, 2001)
        model = noisy_mean_model()
        tracemalloc.start()
        try:
            posterior_predictive_noisy_mean(model, sigma_new, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_row_blocks_equal_one_shot_kernel_bit_for_bit(self):
        # 2001 rows are not a multiple of the block height.  A multithreaded
        # gemv splits its rows among threads by the matrix's height, which
        # can move a deep-tail value by an ulp in a one-shot product as much
        # as in a blocked one, so both run under one BLAS thread
        code = textwrap.dedent("""
            import numpy as np
            from mcmclab.harness import NOISY_MEAN_GRID, noisy_mean_model
            from mcmclab.summaries import (
                DiscretizedPosterior, posterior_predictive_noisy_mean)
            model = noisy_mean_model()
            lo, hi, _ = NOISY_MEAN_GRID
            t = np.linspace(lo, hi, 2001)
            anchors = [model.prior_mean] + [v for v, _ in model.observations]
            scales = [model.prior_sd] + [s for _, s in model.observations]
            s = np.linspace(min(anchors) - 10.0 * max(scales),
                            max(anchors) + 10.0 * max(scales), 4096)
            post = DiscretizedPosterior.from_log_masses(s, model.log_density_many(s))
            for sigma in (0.5, 2.0):
                kernel = (np.exp(-0.5 * ((t[:, None] - s) / sigma) ** 2)
                          / (sigma * np.sqrt(2.0 * np.pi)))
                dens = posterior_predictive_noisy_mean(model, sigma, t)
                print(np.array_equal(dens, kernel @ post.masses))
        """)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(mcmclab.__file__)),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["True", "True"]

    @pytest.mark.parametrize("sigma_new", [1e-3, 0.05, 0.5, 2.0, 10.0, 1e3])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 2001])
    def test_skipped_columns_equal_the_full_formula_bit_for_bit(self, sigma_new, n):
        # the support runs from 7 to 48.2 and its mass from about 14 to 45, so
        # these t reach past both ends of each
        model = noisy_mean_model()
        ts = np.linspace(2.0, 53.0, n) if n > 1 else np.array([29.0])
        dens = posterior_predictive_noisy_mean(model, sigma_new, ts)
        assert dens.tobytes() == predictive_by_full_formula(model, sigma_new, ts).tobytes()

    @pytest.mark.parametrize("sigma_new", [1e-3, 0.5, 2.0, 1e3])
    @pytest.mark.parametrize("span", [(-300.0, -100.0), (60.0, 100.0)], ids=["below", "above"])
    def test_t_outside_the_support_equals_the_full_formula(self, sigma_new, span):
        model = noisy_mean_model()
        ts = np.linspace(*span, 65)
        dens = posterior_predictive_noisy_mean(model, sigma_new, ts)
        assert dens.tobytes() == predictive_by_full_formula(model, sigma_new, ts).tobytes()

    def test_non_finite_t_equals_the_full_formula(self):
        # a NaN t keeps every column of its block, and its row stays NaN
        model = noisy_mean_model()
        ts = np.array([29.0, np.nan, 31.0, np.inf, -np.inf, 30.0])
        dens = posterior_predictive_noisy_mean(model, 0.5, ts)
        assert np.isnan(dens[1]) and dens[3] == dens[4] == 0.0
        assert dens.tobytes() == predictive_by_full_formula(model, 0.5, ts).tobytes()

    def test_subnormal_sigma_keeps_zero_mass_columns(self):
        # at a t on a grid point 1 / norm overflows: the kernel entry is inf,
        # and inf times a zero mass is NaN, so no zero-mass column is skipped
        model = noisy_mean_model()
        support, masses = predictive_support(model)
        ts = np.array([support[0], support[2000], 29.0])
        assert masses[0] == 0.0 < masses[2000]
        with np.errstate(all="ignore"):
            dens = posterior_predictive_noisy_mean(model, 1e-310, ts)
            ref = predictive_by_full_formula(model, 1e-310, ts)
        assert np.isnan(dens[0]) and dens[1] == np.inf
        assert dens.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("sigma_new", [0.0, 2.0])
    def test_output_shapes(self, sigma_new):
        model = noisy_mean_model()
        scalar = posterior_predictive_noisy_mean(model, sigma_new, 29.0)
        assert isinstance(scalar, float)
        ts = np.linspace(25.0, 33.0, 12).reshape(3, 4)
        dens = posterior_predictive_noisy_mean(model, sigma_new, ts)
        assert dens.shape == (3, 4)
        np.testing.assert_array_equal(
            dens.ravel(), posterior_predictive_noisy_mean(model, sigma_new, ts.ravel())
        )
        # a one-row product may round differently from a 12-row one
        assert dens[0, 0] == pytest.approx(
            posterior_predictive_noisy_mean(model, sigma_new, 25.0), rel=1e-14
        )
        assert posterior_predictive_noisy_mean(model, sigma_new, []).shape == (0,)


class TestBayesFactor:
    def test_equal_evidence_unit_odds(self):
        assert bayes_factor(2.5, 2.5) == pytest.approx(1.0)

    def test_antisymmetry_under_swap(self):
        r12 = bayes_factor(3.0, 7.0)
        r21 = bayes_factor(7.0, 3.0)
        assert np.log(r12) == pytest.approx(-np.log(r21), rel=1e-12)

    def test_prior_odds_multiply(self):
        assert bayes_factor(2.0, 1.0, prior_odds=3.0) == pytest.approx(6.0)

    def test_positive_input_validation(self):
        for bad in ((0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                bayes_factor(*bad)

    @pytest.mark.parametrize("bad", [(np.inf, np.inf, 1.0), (np.inf, 1.0, 1.0),
                                     (1.0, 1.0, np.inf), (np.nan, 1.0, 1.0)])
    def test_evidences_and_odds_must_be_finite(self, bad):
        # bayes_factor(inf, inf) once read log(inf) - log(inf): NaN and an
        # invalid-value warning
        with pytest.raises(ValueError, match="must be positive and finite"):
            bayes_factor(*bad)

    def test_prior_comparison_matches_fine_grid_oracle(self):
        # coarse-grid Bayes factor against a 10x finer evidence oracle
        model_a, model_b = noisy_mean_model(), noisy_mean_alt_model()
        coarse = build_grid(GridSpec.regular([(10.0, 50.0)], 10_000))
        fine = build_grid(GridSpec.regular([(10.0, 50.0)], 100_000))
        ratio = bayes_factor(
            grid_evidence(model_a, coarse), grid_evidence(model_b, coarse)
        )
        oracle = bayes_factor(
            grid_evidence(model_a, fine), grid_evidence(model_b, fine)
        )
        assert ratio == pytest.approx(oracle, rel=0.01)
        # quadrature oracle, fully independent of the grid path
        quad_a, _ = quad(lambda t: np.exp(model_a.log_density([t])), 10.0, 50.0)
        quad_b, _ = quad(lambda t: np.exp(model_b.log_density([t])), 10.0, 50.0)
        assert ratio == pytest.approx(quad_a / quad_b, rel=0.01)


class TestInvariances:
    def test_mass_rescaling_changes_nothing(self):
        xs = np.linspace(-3.0, 3.0, 301)
        raw = np.exp(-0.5 * xs**2)
        post_a = DiscretizedPosterior(points=xs, masses=raw)
        post_b = DiscretizedPosterior(points=xs, masses=raw * 17.5)
        assert point_estimate(post_a, LossSpec.squared()) == pytest.approx(
            point_estimate(post_b, LossSpec.squared()), rel=1e-12
        )
        assert percentile_interval(post_a, 0.68) == pytest.approx(
            percentile_interval(post_b, 0.68), rel=1e-12
        )
        # a power-of-two rescaling is exact in floating point
        post_c = DiscretizedPosterior(points=xs, masses=raw * 4.0)
        assert point_estimate(post_a, LossSpec.squared()) == point_estimate(
            post_c, LossSpec.squared()
        )

    def test_from_log_masses_matches_linear(self):
        xs = np.linspace(0.0, 1.0, 11)
        raw = np.linspace(1.0, 2.0, 11)
        a = DiscretizedPosterior(points=xs, masses=raw / raw.sum())
        b = DiscretizedPosterior.from_log_masses(xs, np.log(raw))
        np.testing.assert_allclose(a.masses, b.masses, rtol=1e-12)

    def test_masses_validation(self):
        with pytest.raises(ValueError):
            DiscretizedPosterior(points=np.array([0.0]), masses=np.array([-1.0]))
        with pytest.raises(ValueError):
            DiscretizedPosterior(points=np.array([0.0, 1.0]), masses=np.array([0.0, 0.0]))

    @pytest.mark.parametrize("masses, volumes, message", [
        ([1.0, 1.0, 1.0], None, "one entry per support point"),
        ([[0.5, 0.5]], None, "one entry per support point"),
        ([1.0, np.inf], None, "positive and finite"),
        ([1.0, np.nan], None, "positive and finite"),
        ([0.5, 0.5], [1.0], "volumes must be positive"),
        ([0.5, 0.5], [1.0, 0.0], "volumes must be positive"),
        ([0.5, 0.5], [1.0, -2.0], "volumes must be positive"),
        ([0.5, 0.5], [1.0, np.nan], "volumes must be positive and finite"),
        ([0.5, 0.5], [1.0, np.inf], "volumes must be positive and finite"),
    ], ids=["long", "2-D", "+inf", "nan", "short-volumes", "zero-volume", "negative-volume",
            "nan-volume", "inf-volume"])
    def test_mass_and_volume_validation(self, masses, volumes, message):
        with pytest.raises(ValueError, match=message):
            DiscretizedPosterior(points=np.array([0.0, 1.0]), masses=np.array(masses),
                                 volumes=volumes)

    def test_all_zero_log_masses_rejected(self):
        with pytest.raises(ValueError, match="all masses are zero"):
            DiscretizedPosterior.from_log_masses([0.0, 1.0], [-np.inf, -np.inf])
