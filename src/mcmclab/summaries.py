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
from .targets import NoisyMeanModel, _log_density_rows

# Rows of ``t_new`` per block of the predictive's noise kernel: one block of
# 256 rows by 4096 grid cells is an 8 MiB buffer.  A power of two keeps each
# row at the same offset, modulo the BLAS kernel's row width, as in a
# one-shot product, which the blocks then equal bit for bit (one BLAS thread).
_KERNEL_ROWS = 256

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
            if vols.shape != masses.shape or np.any(vols <= 0):
                raise ValueError("volumes must be positive, one per point")
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
    estimate: the mode), and ``piecewise`` (power ``below_exponent`` where
    the truth falls below ``threshold``, power ``above_exponent`` at or
    above it).
    """

    kind: str
    threshold: float | None = None
    below_exponent: float = 3.0
    above_exponent: float = 1.0

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
    def piecewise_power(cls, threshold, below_exponent=3.0, above_exponent=1.0):
        return cls(
            kind="piecewise",
            threshold=float(threshold),
            below_exponent=float(below_exponent),
            above_exponent=float(above_exponent),
        )


def _pointwise_loss(loss: LossSpec, candidate, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        dist = np.abs(pts - float(candidate))
    else:
        dist = np.linalg.norm(pts - np.asarray(candidate, dtype=float), axis=1)
    if loss.kind == "squared":
        return dist ** 2
    if loss.kind == "absolute":
        return dist
    if loss.kind == "piecewise":
        if pts.ndim != 1:
            raise ValueError("piecewise loss is defined for 1-D posteriors")
        return np.where(
            pts < loss.threshold,
            dist ** loss.below_exponent,
            dist ** loss.above_exponent,
        )
    raise ValueError(
        "catastrophic loss has no finite expected value on a discretized "
        "posterior; its minimizer is the mode (see point_estimate)"
    )


def expected_loss(post: DiscretizedPosterior, loss: LossSpec, candidate) -> float:
    """Posterior-averaged loss of announcing ``candidate``."""
    return float(_pointwise_loss(loss, candidate, post.points) @ post.masses)


def _weighted_quantiles(xs, masses, ps):
    """Quantiles at the probabilities ``ps``, by linear interpolation of the cumulative mass.

    The support is sorted and summed once for all of ``ps``; each quantile
    equals a call with its probability alone.
    """
    order = np.argsort(xs, kind="stable")
    cum = np.cumsum(masses[order])
    return np.interp(ps, cum, xs[order]).tolist()


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
    """The value minimizing the expected loss.

    Squared loss has the posterior mean in closed form; absolute loss the
    weighted median; catastrophic loss the density argmax over the support;
    piecewise losses are minimized by a coarse scan over the support
    followed by golden-section refinement.  Ties break toward the smaller
    value.
    """
    if post.n == 0:
        raise ValueError("posterior has empty support")
    pts = post.points
    if loss.kind == "squared":
        if pts.ndim == 1:
            return float(pts @ post.masses)
        return pts.T @ post.masses
    if loss.kind == "absolute":
        if pts.ndim != 1:
            raise ValueError("median point estimate is defined for 1-D posteriors")
        return _weighted_quantiles(pts, post.masses, 0.5)
    if loss.kind == "catastrophic":
        dens = post.densities
        best = np.flatnonzero(dens == dens.max())
        if pts.ndim == 1:
            return float(pts[best].min())
        return pts[best[np.lexsort(pts[best].T[::-1])[0]]]
    # piecewise: scan then refine
    if pts.ndim != 1:
        raise ValueError("piecewise loss is defined for 1-D posteriors")
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

    Support points are ranked by density; whole groups of equal density are
    taken or left together (all-or-none at the boundary), stopping at the
    smallest region that reaches the requested mass.  Returns the density
    threshold and a boolean membership flag per support point.
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError("coverage must lie strictly between 0 and 1")
    dens = post.densities
    member = np.zeros(post.n, dtype=bool)
    cum = 0.0
    threshold = np.inf
    for level in _distinct_sorted(dens)[::-1]:
        group = dens == level
        member |= group
        cum += post.masses[group].sum()
        threshold = float(level)
        if cum >= coverage:
            break
    return threshold, member


def posterior_predictive_noisy_mean(
    model: NoisyMeanModel,
    sigma_new: float,
    t_new,
    grid_cells: int = 4096,
    span: float = 10.0,
):
    """Predictive density of one future observation of a noisy-mean model.

    The model's posterior is discretized on an internal grid (wide enough
    to cover data and prior by ``span`` standard deviations) and convolved
    with the new observation's Gaussian noise.  ``sigma_new = 0`` is the
    point-evaluation limit: the predictive equals the posterior density.
    The convolution is evaluated in fixed blocks of ``t_new`` rows in one
    reused buffer, so its memory is bounded whatever the length of
    ``t_new``.
    """
    if not 0.0 <= sigma_new < np.inf:
        raise ValueError(f"sigma_new must be finite and nonnegative, got {sigma_new}")
    if grid_cells < 2:
        raise ValueError(f"grid_cells must be at least 2, got {grid_cells}")
    t_new = np.asarray(t_new, dtype=float)
    anchors = [model.prior_mean] + [v for v, _ in model.observations]
    scales = [model.prior_sd] + [s for _, s in model.observations]
    lo = min(anchors) - span * max(scales)
    hi = max(anchors) + span * max(scales)
    support = np.linspace(lo, hi, grid_cells)
    step = support[1] - support[0]
    log_masses = _log_density_rows(model)(support[:, None])
    post = DiscretizedPosterior.from_log_masses(
        support, log_masses, volumes=np.full(grid_cells, step)
    )
    if sigma_new == 0.0:
        out = np.interp(t_new, support, post.densities, left=0.0, right=0.0)
        return out if out.ndim else float(out)
    ts = t_new.reshape(-1)
    out = np.empty(ts.size)
    norm = sigma_new * np.sqrt(2.0 * np.pi)
    buf = np.empty((min(_KERNEL_ROWS, ts.size), grid_cells))
    for i in range(0, ts.size, _KERNEL_ROWS):
        rows = ts[i : i + _KERNEL_ROWS]
        kernel = buf[: rows.size]
        np.subtract(rows[:, None], support, out=kernel)
        kernel /= sigma_new
        np.square(kernel, out=kernel)
        kernel *= -0.5
        np.exp(kernel, out=kernel)
        kernel /= norm
        np.matmul(kernel, post.masses, out=out[i : i + rows.size])
    return out.reshape(t_new.shape) if t_new.ndim else float(out[0])


def bayes_factor(z1: float, z2: float, prior_odds: float = 1.0) -> float:
    """Posterior odds of model 1 over model 2: evidence ratio times prior odds."""
    if not (z1 > 0 and z2 > 0 and prior_odds > 0):
        raise ValueError("evidences and prior odds must be positive")
    return float(np.exp(np.log(z1) - np.log(z2) + np.log(prior_odds)))
