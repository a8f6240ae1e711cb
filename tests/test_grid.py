"""Grid construction and Riemann-sum estimators."""

import numpy as np
import pytest

from mcmclab.diagnostics import kish_ess
from mcmclab.errors import NumericalError, ResourceLimitError
from mcmclab.grid import (
    GridCells,
    GridSpec,
    build_grid,
    grid_evidence,
    grid_expectation,
    grid_log_weights,
    grid_weights,
)
from mcmclab.harness import exercise_2d_target
from mcmclab.targets import IsotropicGaussianTarget, TargetDensity


class ConstantTarget(TargetDensity):
    def __init__(self, dim, value=1.0):
        self.dim = dim
        self._log = np.log(value)

    def log_density(self, theta):
        return self._log


class TwoModeTarget(TargetDensity):
    """Equal Gaussian bumps at +/- center; total mass 2 * sqrt(2 pi) s."""

    def __init__(self, center=20.0, sigma=1.0):
        self.dim = 1
        self.center = center
        self.sigma = sigma

    def log_density(self, theta):
        x = theta[0]
        a = -0.5 * ((x - self.center) / self.sigma) ** 2
        b = -0.5 * ((x + self.center) / self.sigma) ** 2
        hi = max(a, b)
        return hi + np.log(np.exp(a - hi) + np.exp(b - hi))


class TestBuildGrid:
    def test_1d_bisection(self):
        cells = build_grid(GridSpec.regular([(0.0, 1.0)], 2))
        np.testing.assert_allclose(cells.midpoints[:, 0], [0.25, 0.75])
        np.testing.assert_allclose(cells.volumes, [0.5, 0.5])

    def test_2d_single_cell(self):
        cells = build_grid(GridSpec.regular([(0.0, 1.0), (0.0, 2.0)], 1))
        np.testing.assert_allclose(cells.midpoints, [[0.5, 1.0]])
        np.testing.assert_allclose(cells.volumes, [2.0])

    def test_nonuniform_edges(self):
        cells = build_grid(GridSpec([np.array([0.0, 0.1, 1.0])]))
        np.testing.assert_allclose(cells.volumes, [0.1, 0.9])
        np.testing.assert_allclose(cells.midpoints[:, 0], [0.05, 0.55])

    def test_volumes_sum_to_box_volume(self):
        spec = GridSpec.regular([(-3.0, 2.0), (0.0, 4.0), (-1.0, 1.0)], (7, 5, 3))
        cells = build_grid(spec)
        assert cells.total_volume == pytest.approx(5.0 * 4.0 * 2.0, rel=1e-12)

    def test_row_major_order(self):
        cells = build_grid(GridSpec.regular([(0.0, 2.0), (0.0, 2.0)], 2))
        # first axis varies slowest
        np.testing.assert_allclose(
            cells.midpoints,
            [[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5]],
        )

    def test_integer_edges_are_edges(self):
        # three integers are three edges: the two cells [0, 1] and [1, 2]
        spec = GridSpec([[0, 1, 2]])
        assert spec.n_cells == 2
        np.testing.assert_array_equal(spec.edges[0], GridSpec([[0.0, 1.0, 2.0]]).edges[0])
        np.testing.assert_array_equal(build_grid(spec).volumes, [1.0, 1.0])

    def test_regular_edges_are_linspace(self):
        spec = GridSpec.regular([(-3.0, 2.0), (10.0, 50.0)], (7, 10_000))
        for edges, (lo, hi, k) in zip(spec.edges, [(-3.0, 2.0, 7), (10.0, 50.0, 10_000)]):
            assert np.array_equal(edges, np.linspace(lo, hi, k + 1))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GridSpec.regular([(1.0, 0.0)], 4)  # reversed bounds
        with pytest.raises(ValueError):
            GridSpec.regular([(0.0, 1.0)], 0)  # no cells
        with pytest.raises(ValueError):
            GridSpec.regular([(0.0, np.inf)], 4)  # nonfinite bound
        with pytest.raises(ValueError):
            GridSpec.regular([(0.0, 1.0)] * 2, (3,))  # a cell count short
        with pytest.raises(ValueError):
            GridSpec([np.array([0.0, 0.5, 0.4])])  # not increasing

    @pytest.mark.parametrize("edges, message", [
        ([0.0], "at least two edges"),
        ([], "at least two edges"),
        ([[0.0, 1.0], [1.0, 2.0]], "at least two edges"),
        ([0.0, np.inf], "finite"),
        ([np.nan, 1.0], "finite"),
        ([0.0, 1.0, 1.0], "strictly increasing"),
    ], ids=["one-edge", "no-edges", "2-D", "inf", "nan", "repeated"])
    def test_edges_validated(self, edges, message):
        with pytest.raises(ValueError, match=message):
            GridSpec([np.array(edges, dtype=float)])

    def test_resource_guard(self):
        spec = GridSpec.regular([(0.0, 1.0)] * 5, 100)  # 10^10 cells
        assert spec.n_cells == 10**10
        with pytest.raises(ResourceLimitError):
            build_grid(spec)


class TestGridEvidence:
    def test_constant_density(self):
        target = ConstantTarget(1, 1.0)
        for k in (1, 7, 64):
            cells = build_grid(GridSpec.regular([(0.0, 1.0)], k))
            assert grid_evidence(target, cells) == pytest.approx(1.0, rel=1e-12)

    def test_1d_gaussian_normalization(self):
        target = IsotropicGaussianTarget(1, 1.0)
        cells = build_grid(GridSpec.regular([(-8.0, 8.0)], 1000))
        assert grid_evidence(target, cells) == pytest.approx(
            np.sqrt(2.0 * np.pi), abs=1e-4
        )

    def test_2d_study_target_normalization(self):
        cells = build_grid(GridSpec.regular([(-8.0, 8.0)] * 2, 200))
        z = grid_evidence(exercise_2d_target(), cells)
        assert z == pytest.approx(2.0 * np.pi, abs=0.01)

    def test_all_zero_density_warns_and_returns_zero(self):
        class Nowhere(ConstantTarget):
            def log_density(self, theta):
                return -np.inf

        cells = build_grid(GridSpec.regular([(0.0, 1.0)], 8))
        with pytest.warns(RuntimeWarning):
            assert grid_evidence(Nowhere(1), cells) == 0.0

    def test_refinement_is_cauchy_with_decreasing_increments(self):
        target = IsotropicGaussianTarget(1, 1.0)
        ks = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        zs = [
            grid_evidence(target, build_grid(GridSpec.regular([(-8.0, 8.0)], k)))
            for k in ks
        ]
        increments = np.abs(np.diff(zs))
        # strictly decreasing until refinement hits float64 roundoff
        resolvable = increments > 1e-12
        assert np.all(np.diff(increments[resolvable]) < 0)
        assert resolvable[:2].all()
        assert increments[-1] < 1e-6

    def test_truncated_grid_converges_to_half_the_mass(self):
        # a grid covering one of two well-separated modes converges, but to
        # half the true evidence: convergent yet inconsistent
        target = TwoModeTarget(center=20.0, sigma=1.0)
        true_z = 2.0 * np.sqrt(2.0 * np.pi)
        zs = [
            grid_evidence(target, build_grid(GridSpec.regular([(12.0, 28.0)], k)))
            for k in (256, 512, 1024)
        ]
        assert abs(zs[-1] - zs[-2]) < 1e-9  # converged
        assert zs[-1] == pytest.approx(true_z / 2.0, rel=1e-6)

    def test_permutation_invariance_of_accumulation(self):
        target = exercise_2d_target()
        cells = build_grid(GridSpec.regular([(-6.0, 6.0)] * 2, 40))
        rng = np.random.default_rng(3)
        perm = rng.permutation(cells.n_cells)
        shuffled = GridCells(
            midpoints=cells.midpoints[perm], volumes=cells.volumes[perm]
        )
        z, z_shuffled = grid_evidence(target, cells), grid_evidence(target, shuffled)
        assert z_shuffled == pytest.approx(z, rel=1e-10)


class TestGridExpectation:
    def test_constant_function(self):
        target = exercise_2d_target()
        cells = build_grid(GridSpec.regular([(-4.0, 4.0)] * 2, 30))
        val = grid_expectation(target, cells, lambda p: np.full(len(p), 3.25))
        assert val == pytest.approx(3.25, rel=1e-12)

    def test_identity_recovers_means(self):
        cells = build_grid(GridSpec.regular([(-8.0, 8.0)] * 2, 200))
        mean = grid_expectation(exercise_2d_target(), cells, lambda p: p)
        np.testing.assert_allclose(mean, [-0.3, 0.8], atol=1e-3)

    def test_second_moment_recovers_variance(self):
        cells = build_grid(GridSpec.regular([(-8.0, 8.0)] * 2, 200))
        var_x = grid_expectation(
            exercise_2d_target(), cells, lambda p: (p[:, 0] + 0.3) ** 2
        )
        assert var_x == pytest.approx(2.0, abs=0.01)

    def test_expectation_of_one_is_one(self):
        target = IsotropicGaussianTarget(1, 1.0)
        cells = build_grid(GridSpec.regular([(-5.0, 5.0)], 101))
        assert grid_expectation(target, cells, lambda p: np.ones(len(p))) == 1.0

    def test_zero_mass_raises(self):
        class Nowhere(ConstantTarget):
            def log_density(self, theta):
                return -np.inf

        cells = build_grid(GridSpec.regular([(0.0, 1.0)], 4))
        with pytest.raises(NumericalError):
            grid_expectation(Nowhere(1), cells, lambda p: np.ones(len(p)))

    @pytest.mark.parametrize("shape", ["scalar", "vector"])
    def test_equals_the_normalized_cell_weight_mean(self, shape):
        # the self-normalized mean written out: weights exp(lw - max lw),
        # lw = log density at the midpoint + log cell volume
        target = exercise_2d_target()
        cells = build_grid(GridSpec(([-6.0, -1.0, 0.5, 4.0], np.linspace(-5.0, 6.0, 13))))
        f = (lambda p: p[:, 0] * p[:, 1]) if shape == "scalar" else (lambda p: p ** 2)
        lw = np.array([target.log_density(p) for p in cells.midpoints]) + np.log(cells.volumes)
        w = np.exp(lw - lw.max())
        fx = f(cells.midpoints)
        got = grid_expectation(target, cells, f)
        if shape == "scalar":
            assert got == float((w * fx).sum() / w.sum()) and type(got) is float
        else:
            np.testing.assert_array_equal(got, (w[:, None] * fx).sum(axis=0) / w.sum())


class TestGridWeights:
    def test_uniform_everything_gives_equal_weights(self):
        target = ConstantTarget(2, 2.5)
        cells = build_grid(GridSpec.regular([(0.0, 1.0)] * 2, 5))
        w = grid_weights(target, cells)
        np.testing.assert_allclose(w, w[0])

    def test_single_cell_weight_is_evidence(self):
        target = ConstantTarget(1, 3.0)
        cells = build_grid(GridSpec.regular([(0.0, 2.0)], 1))
        w = grid_weights(target, cells)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(grid_evidence(target, cells), rel=1e-12)

    def test_weights_sum_to_evidence(self):
        target = exercise_2d_target()
        cells = build_grid(GridSpec.regular([(-5.0, 5.0)] * 2, 50))
        assert grid_weights(target, cells).sum() == pytest.approx(
            grid_evidence(target, cells), rel=1e-12
        )

    def test_box_choice_changes_kish_ess_by_over_2x(self):
        target = exercise_2d_target()
        tight = build_grid(GridSpec.regular([(-2.0, 2.0)] * 2, 30))
        wide = build_grid(GridSpec.regular([(-6.0, 6.0)] * 2, 30))
        ess_tight = kish_ess(log_weights=grid_log_weights(target, tight))
        ess_wide = kish_ess(log_weights=grid_log_weights(target, wide))
        assert ess_tight > 2.0 * ess_wide

    def test_dimension_mismatch(self):
        cells = build_grid(GridSpec.regular([(0.0, 1.0)], 4))
        with pytest.raises(ValueError):
            grid_weights(exercise_2d_target(), cells)
