"""Target densities and the analytic geometry of high-dimensional mass.

A target is anything with a ``dim`` attribute and a ``log_density`` method
returning the log of an unnormalized density (``-inf`` where the density is
zero, never an exception).  All evaluation happens in log space; consumers
exponentiate only differences or stabilized sums (``_log_sum_exp``).  A NaN
or ``+inf`` log density breaks the contract, and ``_checked`` raises on it.
"""

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NumericalError

__all__ = [
    "TargetDensity",
    "IsotropicGaussianTarget",
    "DiagonalGaussianTarget",
    "NoisyMeanModel",
    "ShellStats",
    "log_unnorm_density",
    "shell_stats",
    "radial_log_mass",
    "half_volume_length_fraction",
]

_LOG_2PI = np.log(2.0 * np.pi)
# a batch's scalar operands are 0-d arrays: numpy converts a Python float
# operand anew on every call, which costs a 3-row batch about 0.3 us each
_MINUS_HALF = np.array(-0.5)


class TargetDensity:
    """Base class for unnormalized target densities.

    Subclasses set ``dim`` and implement ``log_density``.  Instances are
    immutable after construction and safe to evaluate concurrently.
    """

    dim: int

    def log_density(self, theta) -> float:
        """Log unnormalized density at a single length-``dim`` point."""
        raise NotImplementedError

    def log_density_many(self, points) -> np.ndarray:
        """Log density at each row of an ``(n, dim)`` array, shape ``(n,)``.

        Row ``i`` must equal ``log_density(points[i])`` bit for bit, with the
        same value contract: finite or ``-inf``, never NaN or ``+inf``; the
        samplers' streams match one-at-a-time evaluation only if the rows
        agree exactly.  Rows may be evaluated speculatively: a random-walk
        chain evaluates a batch of candidates from one state and discards
        the rows after the first accepted one unchecked.  The default loops
        over rows; subclasses override with vectorized evaluation that keeps
        the per-row arithmetic (``np.vecdot`` for a dot product, not a sum
        of squares).  The package's callers run this loop instead for a
        subclass that overrides ``log_density`` alone (``_rows_agree``).
        ``points`` is read by ``_points``, whose width must be ``dim``.
        """
        return np.array([self.log_density(p) for p in _points(points, self.dim)])


def _points(x, dim=None, name="points", n="n") -> np.ndarray:
    """``x`` as an ``(n, dim)`` float array: ``x`` itself when it is one already.

    The package's one reading of a point set: a flat ``(n,)`` array is n 1-D
    points.  Any other shape, or a width other than ``dim`` (any width when
    ``dim`` is None), raises ``ValueError`` naming ``name``, the expected
    shape, with ``n`` for its rows, and the given one.
    """
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype == float and x.shape[1] == dim:
        return x
    arr = np.asarray(x, dtype=float)
    pts = arr[:, None] if arr.ndim == 1 else arr
    if pts.ndim != 2 or dim not in (None, pts.shape[1]):
        want = "d" if dim is None else dim
        raise ValueError(f"{name} must have shape ({n}, {want}), got shape {arr.shape}")
    return pts


def _defining_class(cls, name):
    return next((k for k in cls.__mro__ if name in vars(k)), None)


def _rows_agree(target) -> bool:
    """Whether ``target.log_density_many`` is written for its ``log_density``.

    True when ``type(target)`` defines ``log_density_many`` in the class
    that defines its ``log_density``, or in a subclass of that class.  A
    subclass that overrides ``log_density`` alone inherits a vectorized
    method of another density, which would silently disagree with it.
    """
    cls = type(target)
    many = _defining_class(cls, "log_density_many")
    one = _defining_class(cls, "log_density")
    return many is not None and one is not None and issubclass(many, one)


def _log_density_rows(target):
    """``points -> (n,) log densities`` for ``target``, equal row by row to ``log_density``.

    It calls ``target.log_density_many`` where ``_rows_agree`` says that may
    stand in for ``log_density``, and ``TargetDensity.log_density_many``,
    the row loop, otherwise.  A result that is not one value per row raises
    ``ValueError``.  Look it up once per call of a consumer, not once per
    batch of points.
    """
    many = (target.log_density_many if _rows_agree(target)
            else partial(TargetDensity.log_density_many, target))

    def rows(points) -> np.ndarray:
        lp = np.asarray(many(points), dtype=float)
        if lp.ndim != 1 or len(lp) != len(points):
            raise ValueError(
                f"log_density_many returned shape {lp.shape} for "
                f"{len(points)} points; expected ({len(points)},)"
            )
        return lp

    return rows


def _checked(lp: float, point) -> float:
    """``lp`` itself, unless it is NaN or ``+inf``: those raise, naming ``point``."""
    if lp < math.inf:
        return lp
    shown = np.array2string(np.asarray(point, dtype=float), precision=6, separator=", ")
    raise NumericalError(
        f"target log density is {lp} at {shown}; only finite values or -inf are allowed"
    )


def _checked_rows(lp: np.ndarray, points) -> np.ndarray:
    """``lp`` itself, unless a row is NaN or ``+inf``: the first raises, naming its point."""
    # a NaN or +inf row makes the maximum NaN or +inf
    if not lp.max(initial=-math.inf) < math.inf:
        first = np.flatnonzero(~(lp < math.inf))[0]
        _checked(float(lp[first]), points[first])
    return lp


def _log_densities(target, points) -> np.ndarray:
    """The ``_log_density_rows`` values at ``_points(points, target.dim)``, ``_checked_rows``."""
    pts = _points(points, target.dim)
    return _checked_rows(_log_density_rows(target)(pts), pts)


def _log_sum_exp(a) -> float:
    """``log(sum(exp(a)))`` of a 1-D array whose largest entry is finite.

    The ``count`` entries equal to the maximum ``top`` are split out of the
    sum (Blanchard, Higham & Higham 2021), as ``scipy.special.logsumexp`` does.
    """
    a = np.asarray(a, dtype=float)
    top = a.max()
    is_top = a == top
    count = float(np.count_nonzero(is_top))
    rest = np.exp(np.where(is_top, -np.inf, a) - top).sum()
    return float(np.log1p(rest / count) + np.log(count) + top)


def log_unnorm_density(target, theta) -> float:
    """Evaluate ``target`` at ``theta`` with dimension checking.

    Returns a finite float or ``-inf``.  A length mismatch between ``theta``
    and ``target.dim`` is a contract violation and raises ``ValueError``.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if theta.size != target.dim:
        raise ValueError(f"point has length {theta.size}, target has dim {target.dim}")
    return float(target.log_density(theta))


@dataclass(frozen=True)
class IsotropicGaussianTarget(TargetDensity):
    """Zero-mean Gaussian kernel with one scale for every coordinate.

    ``log_density(theta) = -|theta|^2 / (2 sigma^2)`` exactly, so the
    normalization constant is ``(2 pi sigma^2)^(dim/2)``.
    """

    dim: int
    sigma: float = 1.0

    def __post_init__(self):
        _check_dim(self.dim)
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        object.__setattr__(self, "_variance", np.array(self.sigma ** 2, dtype=float))

    def log_density(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        return float(-0.5 * theta @ theta / (self.sigma ** 2))

    def log_density_many(self, points) -> np.ndarray:
        pts = _points(points, self.dim)
        out = np.vecdot(_MINUS_HALF * pts, pts)
        out /= self._variance
        return out

    @property
    def norm_constant(self) -> float:
        """Integral of the kernel over all of R^dim."""
        return float((2.0 * np.pi * self.sigma ** 2) ** (self.dim / 2.0))


def _set_diagonal_gaussian(obj) -> None:
    """Check ``mean`` (finite) and ``sigmas`` (positive and finite), store them
    as tuples and as ``_mu``, ``_sig``."""
    mean = np.asarray(obj.mean, dtype=float)
    sig = np.asarray(obj.sigmas, dtype=float)
    if mean.shape != sig.shape or mean.ndim != 1:
        raise ValueError("mean and sigmas must be 1-D and the same length")
    if not np.all(np.isfinite(mean)):
        raise ValueError("mean must be finite")
    if not np.all((sig > 0) & (sig < math.inf)):
        raise ValueError("all sigmas must be positive and finite")
    object.__setattr__(obj, "mean", tuple(mean))
    object.__setattr__(obj, "sigmas", tuple(sig))
    object.__setattr__(obj, "_mu", mean)
    object.__setattr__(obj, "_sig", sig)


@dataclass(frozen=True)
class DiagonalGaussianTarget(TargetDensity):
    """Gaussian kernel with per-coordinate means and standard deviations.

    The log density is the sum of independent 1-D Gaussian log kernels,
    without normalization constants.
    """

    mean: tuple
    sigmas: tuple

    def __post_init__(self):
        _set_diagonal_gaussian(self)

    @property
    def dim(self) -> int:
        return len(self.mean)

    def log_density(self, theta) -> float:
        z = (np.asarray(theta, dtype=float) - self._mu) / self._sig
        return float(-0.5 * z @ z)

    def log_density_many(self, points) -> np.ndarray:
        # len, not the dim property: this runs once per batch of a chain
        z = _points(points, len(self._mu)) - self._mu
        z /= self._sig
        return np.vecdot(_MINUS_HALF * z, z)

    @property
    def norm_constant(self) -> float:
        return float(np.prod(np.sqrt(2.0 * np.pi) * self._sig))


def _normal_logpdf(x, mu, sigma):
    z = (x - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * _LOG_2PI


@dataclass(frozen=True)
class NoisyMeanModel(TargetDensity):
    """One unknown mean observed through independent Gaussian noise.

    ``observations`` is a sequence of ``(value, sigma)`` pairs; the prior on
    the mean is ``Normal(prior_mean, prior_sd)``.  Both the likelihood and
    the prior are fully normalized densities, so the integral of the
    unnormalized posterior is the model's marginal likelihood.  With zero
    observations the posterior reduces to the prior.
    """

    observations: tuple
    prior_mean: float
    prior_sd: float

    dim = 1

    def __post_init__(self):
        obs = tuple((float(v), float(s)) for v, s in self.observations)
        if any(s <= 0 for _, s in obs):
            raise ValueError("observation sigmas must be positive")
        if not self.prior_sd > 0:
            raise ValueError("prior_sd must be positive")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "_values", np.array([v for v, _ in obs]))
        object.__setattr__(self, "_sigmas", np.array([s for _, s in obs]))

    def log_likelihood(self, t: float) -> float:
        """Log probability of all observations given mean ``t``."""
        if self._values.size == 0:
            return 0.0
        return float(_normal_logpdf(self._values, t, self._sigmas).sum())

    def log_prior(self, t: float) -> float:
        return float(_normal_logpdf(t, self.prior_mean, self.prior_sd))

    def log_density(self, theta) -> float:
        t = float(np.asarray(theta, dtype=float).ravel()[0])
        return self.log_likelihood(t) + self.log_prior(t)

    def log_density_many(self, points) -> np.ndarray:
        t = _points(points, 1)
        out = _normal_logpdf(t[:, 0], self.prior_mean, self.prior_sd)
        if self._values.size:
            out = out + _normal_logpdf(
                self._values[None, :], t, self._sigmas[None, :]
            ).sum(axis=1)
        return out


@dataclass(frozen=True)
class ShellStats:
    """Where the radial mass of an isotropic Gaussian lives, in sigma units.

    ``r_peak``   radius maximizing the radial mass ``r^(d-1) exp(-r^2/2s^2)``
    ``r_mean``   mean radius under that mass
    ``dr_mean``  standard deviation of the radius (shell thickness)
    ``dr_sep``   root-mean-square distance between two independent draws
    """

    r_peak: float
    r_mean: float
    dr_mean: float
    dr_sep: float


# The radial variance ``d - 2 (Gamma((d+1)/2) / Gamma(d/2))^2`` tends to 1/2
# while both terms grow like d, so the direct difference loses about
# log10(d) digits.  From d = 24 on it is summed from its asymptotic series
# in 1/d instead (from Stirling's series for log Gamma; every coefficient is
# exact in float64), which holds the radial sd within 1e-14 relative; below
# d = 24 the direct difference stays within 1e-13.  There the mean radius
# is taken from the variance too, since the log-gamma difference loses
# digits at large d as well.
_SHELL_VAR_SERIES = (
    1 / 2, -1 / 8, -1 / 16, 5 / 128, 23 / 256, -53 / 1024, -593 / 2048,
    5165 / 32768, 110123 / 65536, -231743 / 262144, -8113223 / 524288,
    33497425 / 4194304,
)
_SHELL_SERIES_MIN_D = 24


def _check_dim(d) -> None:
    """Reject a dimension that is not a positive integer, such as 0 or 2.5."""
    if not (isinstance(d, numbers.Integral) and d >= 1):
        raise ValueError(f"d must be a positive integer, got {d!r}")


def shell_stats(d: int, sigma: float = 1.0) -> ShellStats:
    """Radial statistics of a d-dimensional isotropic Gaussian.

    The Gamma-function ratio is evaluated through log-gamma at small ``d``;
    at large ``d`` the radial variance comes from its asymptotic series in
    ``1/d``, where the direct difference cancels, and the mean radius from
    the variance.
    """
    _check_dim(d)
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if d < _SHELL_SERIES_MIN_D:
        log_ratio = math.lgamma((d + 1) / 2.0) - math.lgamma(d / 2.0)
        mean_r = np.sqrt(2.0) * np.exp(log_ratio)
        var_r = d - 2.0 * np.exp(2.0 * log_ratio)
    else:
        var_r = np.polyval(_SHELL_VAR_SERIES[::-1], 1.0 / d)
        # E[r]^2 = 2 ratio^2 = d - var_r
        mean_r = np.sqrt(d - var_r)
    return ShellStats(
        r_peak=float(np.sqrt(d - 1.0) * sigma),
        r_mean=float(mean_r * sigma),
        dr_mean=float(np.sqrt(max(var_r, 0.0)) * sigma),
        dr_sep=float(np.sqrt(2.0 * d) * sigma),
    )


def radial_log_mass(d: int, sigma: float, r):
    """Log of the unnormalized radial mass ``r^(d-1) exp(-r^2 / 2 sigma^2)``.

    Accepts a scalar radius or an array of radii.  For ``d > 1`` the value at
    ``r = 0`` is ``-inf``; for ``d = 1`` there is no volume boost and the
    result is simply ``-r^2 / (2 sigma^2)``.
    """
    _check_dim(d)
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    quad = -0.5 * r ** 2 / sigma ** 2
    if d == 1:
        out = quad
    else:
        with np.errstate(divide="ignore"):
            out = (d - 1) * np.log(r) + quad
    return out if out.ndim else float(out)


def half_volume_length_fraction(d: int) -> float:
    """Side fraction of a d-cube enclosing half its volume: ``2**(-1/d)``."""
    _check_dim(d)
    return float(2.0 ** (-1.0 / d))
