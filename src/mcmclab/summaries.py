"""Consuming a posterior: point estimates, credible summaries, prediction,
and model comparison.

Every summary operates on a ``DiscretizedPosterior``: support points with
normalized masses, built from a grid, from weighted or plain samples, or
from a histogram.  Summaries are invariant to rescaling the unnormalized
masses, since normalization happens at construction.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import HistogramDensity
from .grid import GridCells, _cell_midpoints, grid_log_weights
from .targets import NoisyMeanModel, _log_densities

# Rows of ``t_new`` per block of the predictive's noise kernel: one block of
# 64 rows by 4096 grid cells is a 2 MiB buffer, under numpy's 4 MiB huge-page
# threshold.  A power of two keeps each row at the same offset, modulo the
# BLAS kernel's row width, as in a one-shot product, which the blocks then
# equal bit for bit (one BLAS thread).  Blocks of 16 rows or fewer do not:
# the gemv kernel groups rows.
_KERNEL_ROWS = 64

# Beyond this many ``sigma_new`` from every ``t`` of a block, a kernel entry's
# exponent ``-z**2 / 2`` is below -760 even after rounding, and ``exp`` gives
# exactly 0 (it underflows below -745.2).
_KERNEL_REACH = 39.0

# Half-width of the predictive's internal grid, in the largest prior or
# measurement standard deviation, beyond the outermost anchor.
_SPAN = 10.0

__all__ = [
    "DiscretizedPosterior",
    "LossSpec",
    "expected_loss",
    "point_estimate",
    "percentile_interval",
    "threshold_credible_region",
    "posterior_predictive_noisy_mean",
    "bayes_factor",
]


@dataclass(frozen=True)
class DiscretizedPosterior:
    """Support points with normalized probability masses.

    ``volumes`` (optional) are the support cells' volumes; when present,
    per-point densities are ``mass / volume``, otherwise masses are used as
    density proxies (an equal-volume convention, appropriate for plain
    sample sets).
    """

    points: np.ndarray   # (n,) or (n, d)
    masses: np.ndarray   # (n,), sums to 1
    volumes: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size != pts.shape[0]:
            raise ValueError("masses must have one entry per support point")
        if np.any(masses < 0):
            raise ValueError("masses must be nonnegative")
        total = masses.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("total mass must be positive and finite")
        if abs(total - 1.0) > 1e-12:
            masses = masses / total
        vols = self.volumes
        if vols is not None:
            vols = np.asarray(vols, dtype=float)
            # NaN fails both comparisons, so test for valid, not for invalid
            if vols.shape != masses.shape or not np.all(np.isfinite(vols) & (vols > 0)):
                raise ValueError("volumes must be positive and finite, one per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "volumes", vols)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else self.points.shape[1]

    @property
    def densities(self) -> np.ndarray:
        if self.volumes is None:
            return self.masses
        return self.masses / self.volumes

    @classmethod
    def from_log_masses(cls, points, log_masses, volumes=None) -> "DiscretizedPosterior":
        lw = np.asarray(log_masses, dtype=float)
        top = lw.max()
        if np.isneginf(top):
            raise ValueError("all masses are zero")
        return cls(points=points, masses=np.exp(lw - top), volumes=volumes)

    @classmethod
    def from_grid(cls, target, cells: GridCells) -> "DiscretizedPosterior":
        """Discretize a target on grid cells (masses from midpoint rule)."""
        lw = grid_log_weights(target, cells)
        points = cells.midpoints[:, 0] if cells.dim == 1 else cells.midpoints
        return cls.from_log_masses(points, lw, volumes=cells.volumes)

    @classmethod
    def from_samples(cls, samples) -> "DiscretizedPosterior":
        """Equal-mass posterior from plain (e.g. MCMC) samples."""
        pts = np.asarray(samples, dtype=float)
        n = pts.shape[0]
        return cls(points=pts, masses=np.full(n, 1.0 / n))

    @classmethod
    def from_histogram(cls, hist: HistogramDensity) -> "DiscretizedPosterior":
        """Bin-center posterior from a histogram (overflow mass dropped)."""
        points = _cell_midpoints(hist.edges)
        if hist.dim == 1:
            points = points[:, 0]
        return cls(
            points=points,
            masses=hist.masses.ravel(),
            volumes=hist.volumes.ravel(),
        )


@dataclass(frozen=True)
class LossSpec:
    """A penalty for guessing ``candidate`` when the truth is ``theta``.

    Kinds: ``squared`` (optimal point estimate: the mean), ``absolute``
    (the median), ``catastrophic`` (a delta spike at the truth; optimal
    estimate: the mode), and ``piecewise`` (the cubed distance where the
    truth falls below ``threshold``, the plain distance at or above it).
    """

    kind: str
    threshold: float | None = None

    _KINDS = ("squared", "absolute", "catastrophic", "piecewise")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"kind must be one of {self._KINDS}")
        if self.kind == "piecewise" and self.threshold is None:
            raise ValueError("piecewise loss needs a threshold")

    @classmethod
    def squared(cls):
        return cls(kind="squared")

    @classmethod
    def absolute(cls):
        return cls(kind="absolute")

    @classmethod
    def catastrophic(cls):
        return cls(kind="catastrophic")

    @classmethod
    def piecewise_power(cls, threshold):
        return cls(kind="piecewise", threshold=float(threshold))


def _pointwise_loss(loss: LossSpec, candidate, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError("expected losses are defined for 1-D posteriors")
    dist = np.abs(pts - float(candidate))
    if loss.kind == "squared":
        return dist ** 2
    if loss.kind == "absolute":
        return dist
    if loss.kind == "piecewise":
        # cubed only below the threshold; elsewhere (NaN too) the distance stays
        return np.power(dist, 3.0, out=dist, where=pts < loss.threshold)
    raise ValueError(
        "catastrophic loss has no finite expected value on a discretized "
        "posterior; its minimizer is the mode (see point_estimate)"
    )


def expected_loss(post: DiscretizedPosterior, loss: LossSpec, candidate) -> float:
    """Posterior-averaged loss of announcing ``candidate`` for a 1-D posterior."""
    return float(_pointwise_loss(loss, candidate, post.points) @ post.masses)


def _weighted_quantiles(xs, masses, ps):
    """Quantiles at the probabilities ``ps``, by linear interpolation of the cumulative mass.

    The support is sorted and summed once for all of ``ps``; each quantile
    equals a call with its probability alone.  Equal masses, as every
    ``from_samples`` posterior has, sum to the same cumulative mass in any
    order, so the values are sorted without the stable argsort.  That sort
    may differ from the argsort's only in which zero, ``-0.0`` or ``0.0``,
    stands where, so the zeros are put back in input order, as the argsort has them.
    """
    if masses.min() == masses.max():
        xs_sorted = np.sort(xs)
        zeros = xs_sorted == 0.0
        if zeros.any():
            xs_sorted[zeros] = xs[xs == 0.0]
        return np.interp(ps, np.cumsum(masses), xs_sorted).tolist()
    order = np.argsort(xs, kind="stable")
    return np.interp(ps, np.cumsum(masses[order]), xs[order]).tolist()


def _distinct_sorted(values):
    """The distinct values in ascending order: ``np.unique`` without its
    lazy import of ``numpy.ma``."""
    v = np.sort(values)
    keep = np.empty(v.size, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def _golden_section(fun, lo, hi, tol):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def point_estimate(post: DiscretizedPosterior, loss: LossSpec):
    """The value minimizing the expected loss of a 1-D posterior.

    Squared loss has the posterior mean in closed form; absolute loss the
    weighted median; catastrophic loss the density argmax over the support;
    piecewise losses are minimized by a coarse scan over the support
    followed by golden-section refinement.  Ties break toward the smaller
    value.
    """
    pts = post.points
    if pts.ndim != 1:
        raise ValueError("point estimates are defined for 1-D posteriors")
    if loss.kind == "squared":
        return float(pts @ post.masses)
    if loss.kind == "absolute":
        return _weighted_quantiles(pts, post.masses, 0.5)
    if loss.kind == "catastrophic":
        dens = post.densities
        return float(pts[dens == dens.max()].min())
    # piecewise: scan then refine
    order = np.argsort(pts, kind="stable")
    xs = pts[order]
    stride = max(1, xs.size // 512)
    scan = _distinct_sorted(np.concatenate([xs[::stride], xs[-1:]]))
    losses = [expected_loss(post, loss, x) for x in scan]
    i = int(np.argmin(losses))
    lo = scan[max(i - 1, 0)]
    hi = scan[min(i + 1, scan.size - 1)]
    if hi <= lo:
        return float(lo)
    span = xs[-1] - xs[0]
    return float(
        _golden_section(lambda x: expected_loss(post, loss, x), lo, hi, 1e-6 * span)
    )


def percentile_interval(post: DiscretizedPosterior, coverage: float):
    """Equal-tail credible interval of a 1-D posterior.

    The endpoints are the ``(1 -+ coverage)/2`` quantiles of the cumulative
    mass, interpolated linearly between support points; the interval always
    contains the median.
    """
    if post.points.ndim != 1:
        raise ValueError("percentile intervals are defined for 1-D posteriors")
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie strictly between 0 and 1")
    lo, hi = _weighted_quantiles(
        post.points, post.masses, [(1.0 - coverage) / 2.0, (1.0 + coverage) / 2.0]
    )
    return lo, hi


def threshold_credible_region(post: DiscretizedPosterior, coverage: float):
    """Highest-density region holding at least ``coverage`` of the mass.

    Support points are ranked by density in one sort; the point where the
    running mass reaches ``coverage`` sets the threshold, and its whole group
    of equal density is taken (all-or-none at the boundary).  Returns the
    density threshold and a boolean membership flag per support point.
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie strictly between 0 and 1")
    dens = post.densities
    order = np.argsort(-dens, kind="stable")
    cum = np.cumsum(post.masses[order])
    cut = min(int(np.searchsorted(cum, coverage)), post.n - 1)
    threshold = float(dens[order[cut]])
    return threshold, dens >= threshold


def posterior_predictive_noisy_mean(
    model: NoisyMeanModel,
    sigma_new: float,
    t_new,
    grid_cells: int = 4096,
):
    """Predictive density of one future observation of a noisy-mean model.

    The model's posterior is discretized on an internal grid of
    ``grid_cells`` points, ``_SPAN`` (10) of the largest prior or measurement
    standard deviations beyond the outermost anchor, and convolved with the
    new observation's Gaussian noise.  ``sigma_new = 0`` is the
    point-evaluation limit: the predictive equals the posterior density.
    A NaN or ``+inf`` log density on the grid raises ``NumericalError``.
    The convolution is evaluated in fixed blocks of ``t_new`` rows in one
    reused buffer, so its memory is bounded whatever the length of
    ``t_new``.  A block computes only the kernel columns whose product can
    be nonzero: those of nonzero posterior mass, within ``_KERNEL_REACH``
    (39) ``sigma_new`` of the block's ``t``.  The rest hold 0, the value
    the full formula gives them (or a product of 0), and the product runs
    over the full width, so the result is the full formula's bit for bit.
    """
    if not 0.0 <= sigma_new < np.inf:
        raise ValueError(f"sigma_new must be finite and nonnegative, got {sigma_new}")
    if grid_cells < 2:
        raise ValueError(f"grid_cells must be at least 2, got {grid_cells}")
    t_new = np.asarray(t_new, dtype=float)
    anchors = [model.prior_mean] + [v for v, _ in model.observations]
    scales = [model.prior_sd] + [s for _, s in model.observations]
    lo = min(anchors) - _SPAN * max(scales)
    hi = max(anchors) + _SPAN * max(scales)
    support = np.linspace(lo, hi, grid_cells)
    step = support[1] - support[0]
    log_masses = _log_densities(model, support)
    post = DiscretizedPosterior.from_log_masses(
        support, log_masses, volumes=np.full(grid_cells, step)
    )
    if sigma_new == 0.0:
        out = np.interp(t_new, support, post.densities, left=0.0, right=0.0)
        return out if out.ndim else float(out)
    ts = t_new.reshape(-1)
    out = np.empty(ts.size)
    norm = sigma_new * np.sqrt(2.0 * np.pi)
    # a zero-mass column adds k * 0 = +0 to every sum while each kernel value
    # k <= 1 / norm is finite; a subnormal norm can make k inf, and inf * 0 NaN
    first, stop = 0, grid_cells
    if norm >= np.finfo(float).tiny:
        heavy = np.flatnonzero(post.masses)
        first, stop = int(heavy[0]), int(heavy[-1]) + 1
    reach = _KERNEL_REACH * sigma_new
    buf = np.empty((min(_KERNEL_ROWS, ts.size), grid_cells))
    for i in range(0, ts.size, _KERNEL_ROWS):
        rows = ts[i : i + _KERNEL_ROWS]
        kernel = buf[: rows.size]
        lo, hi = first, stop
        t_lo, t_hi = rows.min(), rows.max()
        if not np.isnan(t_lo):  # a NaN t keeps every column, so its row is NaN
            lo = max(lo, int(np.searchsorted(support, t_lo - reach)))
            hi = max(lo, min(hi, int(np.searchsorted(support, t_hi + reach, side="right"))))
        kernel[:, :lo] = 0.0
        kernel[:, hi:] = 0.0
        part = kernel[:, lo:hi]
        np.subtract(rows[:, None], support[lo:hi], out=part)
        part /= sigma_new
        np.square(part, out=part)
        part *= -0.5
        np.exp(part, out=part)
        part /= norm
        np.matmul(kernel, post.masses, out=out[i : i + rows.size])
    return out.reshape(t_new.shape) if t_new.ndim else float(out[0])


def bayes_factor(z1: float, z2: float, prior_odds: float = 1.0) -> float:
    """Posterior odds of model 1 over model 2: evidence ratio times prior odds."""
    if not (z1 > 0 and z2 > 0 and prior_odds > 0):
        raise ValueError("evidences and prior odds must be positive")
    return float(np.exp(np.log(z1) - np.log(z2) + np.log(prior_odds)))
