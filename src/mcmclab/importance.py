"""Importance sampling: iid proposals, weights, and weighted estimators.

A proposal is a normalized distribution that can both draw samples and
report its log density.  Weight arithmetic stays in log space; normalized
weights materialize only inside the estimators.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, NumericalError
from .targets import (
    _LOG_2PI, NoisyMeanModel, _log_densities, _log_sum_exp, _points, _set_diagonal_gaussian,
)

__all__ = [
    "Proposal",
    "UniformBoxProposal",
    "DiagonalGaussianProposal",
    "prior_proposal",
    "WeightedSamples",
    "draw_iid",
    "importance_weights",
    "is_evidence",
    "is_expectation",
]


class Proposal:
    """Contract: ``dim``, ``sample(rng, n) -> (n, dim)`` and
    ``log_pdf(points) -> (n,)`` for a normalized density, ``points`` read by
    ``targets._points`` with width ``dim``."""

    dim: int

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def log_pdf(self, points) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformBoxProposal(Proposal):
    """Uniform distribution on an axis-aligned box."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be 1-D and the same length")
        if not np.all(hi > lo):
            raise ValueError("upper must exceed lower in every dimension")
        if not np.all(np.isfinite(lo) & np.isfinite(hi)):
            raise ValueError("bounds must be finite")
        object.__setattr__(self, "lower", tuple(lo))
        object.__setattr__(self, "upper", tuple(hi))
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_log_volume", float(np.log(hi - lo).sum()))

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        return float(np.exp(self._log_volume))

    def sample(self, rng, n):
        return self._lo + rng.random((n, self.dim)) * (self._hi - self._lo)

    def log_pdf(self, points):
        pts = _points(points, self.dim)
        inside = np.all((pts >= self._lo) & (pts <= self._hi), axis=1)
        return np.where(inside, -self._log_volume, -np.inf)


@dataclass(frozen=True)
class DiagonalGaussianProposal(Proposal):
    """Independent Gaussian in each dimension, fully normalized."""

    mean: tuple
    sigmas: tuple

    def __post_init__(self):
        _set_diagonal_gaussian(self)
        object.__setattr__(
            self, "_log_norm",
            float(np.log(self._sig).sum() + 0.5 * len(self._mu) * _LOG_2PI),
        )

    @property
    def dim(self) -> int:
        return len(self.mean)

    # Each pass below runs over the transposed view in C order, so numpy's
    # inner loop walks one coordinate's n values against a scalar instead of a
    # row's d values against the (d,) operand: at (10000, 2), about 45 µs
    # against 130 µs.  Every element's arithmetic is the broadcast's.

    def sample(self, rng, n):
        x = rng.standard_normal((n, self.dim))
        xt = x.T
        np.multiply(xt, self._sig[:, None], out=xt, order="C")
        np.add(xt, self._mu[:, None], out=xt, order="C")
        return x

    def log_pdf(self, points):
        pts = _points(points, self.dim)
        z = np.empty(pts.shape)
        zt = z.T
        np.subtract(pts.T, self._mu[:, None], out=zt, order="C")
        np.divide(zt, self._sig[:, None], out=zt, order="C")
        # a row sum: a sum of columns would keep its order only for d < 8
        return -0.5 * (z ** 2).sum(axis=1) - self._log_norm


def prior_proposal(model: NoisyMeanModel) -> DiagonalGaussianProposal:
    """Proposal equal to a noisy-mean model's prior distribution."""
    return DiagonalGaussianProposal(
        mean=(model.prior_mean,), sigmas=(model.prior_sd,)
    )


@dataclass(frozen=True)
class WeightedSamples:
    """Draws plus log importance weights.

    Weights are finite or ``-inf``; a ``+inf`` or NaN log weight would mean
    the proposal failed to cover the target and is rejected at construction.
    """

    points: np.ndarray      # (n, d)
    log_weights: np.ndarray  # (n,)

    def __post_init__(self):
        pts = _points(self.points)
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.shape != (pts.shape[0],):
            raise ValueError("log_weights must have one entry per point")
        if np.any(np.isnan(lw)) or np.any(np.isposinf(lw)):
            raise ValueError("log weights must be finite or -inf")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "log_weights", lw)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def draw_iid(proposal: Proposal, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent points; identical seeds give identical draws."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return proposal.sample(rng, n)


def importance_weights(target, proposal: Proposal, points) -> WeightedSamples:
    """Attach ``log target - log proposal`` weights to ``points``.

    A point where the proposal density is zero but the target is not makes
    the estimator inconsistent (no coverage), so that raises
    ``CoverageError`` instead of yielding an infinite weight.  A NaN or
    ``+inf`` target log density raises ``NumericalError``, naming its point.
    """
    if proposal.dim != target.dim:
        raise ValueError("target, proposal, and points must share one dim")
    pts = _points(points, target.dim)
    lp = _log_densities(target, pts)
    lq = proposal.log_pdf(pts)
    bad = np.isneginf(lq) & ~np.isneginf(lp)
    if np.any(bad):
        raise CoverageError(
            f"proposal has zero density at {int(bad.sum())} point(s) "
            "where the target is positive"
        )
    with np.errstate(invalid="ignore"):
        lw = np.where(np.isneginf(lp), -np.inf, lp - lq)
    return WeightedSamples(points=pts, log_weights=lw)


def is_evidence(ws: WeightedSamples) -> float:
    """Mean importance weight: a direct estimate of the evidence.

    Computed as ``exp(_log_sum_exp(log_w) - log n)``, a stabilized sum.
    All-zero weights yield 0.0 with a warning.
    """
    if ws.n < 1:
        raise ValueError("need at least one sample")
    if np.all(np.isneginf(ws.log_weights)):
        warnings.warn(
            "every sample has zero target density; evidence estimate is 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return float(np.exp(_log_sum_exp(ws.log_weights) - np.log(ws.n)))


def is_expectation(ws: WeightedSamples, f):
    """Self-normalized weighted mean of ``f`` over the samples.

    ``f`` receives the ``(n, d)`` point array and returns ``(n,)`` or
    ``(n, m)``.  Any common scaling of the weights cancels.
    """
    lw = ws.log_weights
    if np.all(np.isneginf(lw)):
        raise NumericalError("total importance weight is zero")
    w = np.exp(lw - lw.max())
    fx = np.asarray(f(ws.points), dtype=float)
    if fx.ndim == 0 or fx.shape[0] != ws.n:
        raise ValueError("f must return one row per sample")
    if fx.ndim == 1:
        return float((w * fx).sum() / w.sum())
    return (w[:, None] * fx).sum(axis=0) / w.sum()
