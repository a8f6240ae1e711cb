"""Chain and weight diagnostics.

Autocovariance uses the biased 1/n normalization, which keeps the estimated
sequence positive semidefinite and bounds every autocorrelation by one; one
zero-padded FFT gives all lags.  The integrated autocorrelation time is summed
up to Sokal's self-consistent window ``W = min{t : t >= 5 * tau_hat(t)}``.

The columns of an ``(n, k)`` batch are transformed in blocks of
``w = max(1, _SEGMENT // 2n)`` series.  One workspace, allocated per call and
reused by every block, holds a block's zero-padded series, which the inverse
transform overwrites, and its spectrum: memory is bounded by the block, not by
``k``.  Each column's arithmetic does not depend on ``w``, so a batch gives
every column the tau a call on that column alone gives, bit for bit.

The chain evidence is ``is_evidence`` with the chain's own histogram as the
importance proposal, so it keeps the checks of ``importance_weights``.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ZeroVarianceError
from .grid import _cell_volumes
from .importance import importance_weights, is_evidence
from .mh import Chain
from .targets import _points

__all__ = [
    "AutocorrCurve",
    "TauEstimate",
    "HistogramDensity",
    "autocovariance",
    "autocorrelation",
    "integrated_autocorr_time",
    "per_coordinate_tau",
    "ess_from_tau",
    "chain_ess",
    "kish_ess",
    "histogram_density",
    "evidence_from_chain",
    "binomial_sample_bound",
    "MIN_TAU_SAMPLES",
]

# Below this many samples the windowed tau estimate is meaningless.
MIN_TAU_SAMPLES = 100

# Sokal's window constant c, as in emcee: lags accumulate until t >= c * tau_hat(t).
_SOKAL_C = 5.0

# Doubles in one block of the autocorrelation workspace: a block holds
# ``_SEGMENT // (2 n)`` zero-padded series of length ``2 n``, and at least one.
_SEGMENT = 2**15


def _as_series(series) -> np.ndarray:
    """``series`` as a flat array: ``(n,)`` or ``(n, 1)``, n 1-D points."""
    x = _points(series, 1, "series")[:, 0]
    if x.size == 0:
        raise ValueError("series is empty")
    return x


def autocovariance(series, t: int) -> float:
    """Lag-``t`` autocovariance with 1/n normalization.

    The full-series mean is subtracted and the sum runs over the ``n - t``
    overlapping pairs; dividing by ``n`` (not ``n - t``) keeps the
    covariance sequence positive semidefinite.
    """
    x = _as_series(series)
    n = x.size
    if not 0 <= t < n:
        raise ValueError(f"lag {t} out of range for series of length {n}")
    a = x - x.mean()
    return float(a[: n - t] @ a[t:] / n)


@dataclass(frozen=True)
class AutocorrCurve:
    """Autocorrelation values A(t) for lags 0..t_max, with A(0) = 1."""

    lags: np.ndarray
    values: np.ndarray

    def __getitem__(self, t: int) -> float:
        return float(self.values[t])


@dataclass(frozen=True)
class TauEstimate:
    """Windowed integrated autocorrelation time.

    ``window`` is the last lag included in the sum.  ``truncated`` means the
    self-consistency condition was never met before ``t_max``;
    ``insufficient_data`` means the series was too short to try (``tau`` is
    NaN in that case).
    """

    tau: float
    window: int
    truncated: bool = False
    insufficient_data: bool = False


def _acf_blocks(columns: np.ndarray, t_max: int):
    """A(0..t_max) of each column of an ``(n, k)`` array, a block at a time.

    Yields one ``(w, t_max + 1)`` array per block of ``w`` columns, in column
    order (the last block may be narrower).  Every block shares one
    workspace, so each array is overwritten by the next block.
    """
    n, k = columns.shape
    if not 0 <= t_max < n:
        raise ValueError(f"t_max {t_max} out of range for series of length {n}")
    w = max(1, min(k, _SEGMENT // (2 * n)))
    # zero padding to 2n keeps the circular products from wrapping round; the
    # inverse transform lands in the same buffer, so its tail is zeroed again
    padded = np.empty((w, 2 * n))
    spectrum = np.empty((w, n + 1), dtype=complex)
    for j in range(0, k, w):
        rows = padded[: min(w, k - j)]
        series = rows[:, :n]
        series[...] = columns[:, j : j + len(rows)].T
        rows[:, n:] = 0.0
        bad = ~np.isfinite(series).all(axis=1)
        if bad.any():
            raise NumericalError(f"series column {j + np.argmax(bad)} is not finite")
        # exact: a constant row's mean need not round back to its value, so
        # its centred squares can sum to 1e-34 rather than 0
        flat = (series == series[:, :1]).all(axis=1)
        if not flat.any():
            series -= series.mean(axis=1, keepdims=True)
            c0 = np.vecdot(series, series) / n  # one BLAS dot per row, as a @ a
            flat = c0 <= 0.0  # values so small that every square underflows
        if flat.any():
            col = j + int(np.argmax(flat))
            raise ZeroVarianceError(f"series column {col} has zero variance", column=col)
        f = np.fft.rfft(rows, axis=1, out=spectrum[: len(rows)])
        # the power |f|^2 as a complex spectrum of zero imaginary part
        np.square(f.real, out=f.real)
        np.square(f.imag, out=f.imag)
        np.add(f.real, f.imag, out=f.real)
        f.imag[...] = 0.0
        rho = np.fft.irfft(f, n=2 * n, axis=1, out=rows)[:, : t_max + 1]
        rho /= n
        rho /= c0[:, None]
        yield rho


def _taus(columns: np.ndarray, t_max: int | None) -> list[TauEstimate]:
    """Windowed, zero-clamped tau of each column of an ``(n, k)`` array."""
    n, k = columns.shape
    if n < MIN_TAU_SAMPLES:
        return [TauEstimate(tau=float("nan"), window=0, insufficient_data=True)] * k
    t_max = min(n - 1, 10_000) if t_max is None else t_max
    lags = np.arange(t_max + 1)
    tau, window, truncated = np.empty(k), np.empty(k, dtype=int), np.empty(k, dtype=bool)
    j = 0
    for rho in _acf_blocks(columns, t_max):
        rho[:, 0] = 0.0
        taus = np.cumsum(rho, axis=1, out=rho)
        taus *= 2.0
        done = lags >= _SOKAL_C * taus
        done[:, 0] = False
        rows, block = np.arange(len(done)), slice(j, j + len(done))
        w = window[block] = np.where(done.any(axis=1), done.argmax(axis=1), t_max)
        truncated[block] = ~done[rows, w]
        tau[block] = taus[rows, w]
        j += len(done)
    # clamped as max(tau, 0.0) would: a negative tau becomes 0.0, -0.0 stays
    tau = np.where(tau < 0.0, 0.0, tau)
    cut = int(truncated.sum())
    if cut:
        warnings.warn(f"{cut} of {k} autocorrelation windows hit t_max={t_max} before "
                      "self-consistency", RuntimeWarning, stacklevel=3)
    return [TauEstimate(tau=t, window=w, truncated=cut)
            for t, w, cut in zip(tau.tolist(), window.tolist(), truncated.tolist())]


def autocorrelation(series, t_max: int | None = None) -> AutocorrCurve:
    """Autocorrelation curve A(t) = C(t)/C(0) for lags 0..t_max.

    ``t_max`` defaults to ``min(n - 1, 1000)``.  The 1/n estimator bounds
    every value in [-1, 1] by construction.
    """
    x = _as_series(series)
    if t_max is None:
        t_max = min(x.size - 1, 1000)
    values = next(_acf_blocks(x[:, None], t_max))[0].copy()
    values[0] = 1.0
    return AutocorrCurve(lags=np.arange(t_max + 1), values=values)


def integrated_autocorr_time(series, t_max: int | None = None) -> TauEstimate:
    """Estimate ``tau = 2 * sum_{t>=1} A(t)`` with a self-consistent window.

    Lags accumulate until ``t >= 5 * tau_hat(t)``; tau is clamped at zero.
    Series shorter than ``MIN_TAU_SAMPLES`` get an insufficient-data status
    instead of a number, NaN or ``inf`` values raise ``NumericalError``, and a
    constant series raises ``ZeroVarianceError``.
    """
    return _taus(_as_series(series)[:, None], t_max)[0]


def _states_of(x) -> np.ndarray:
    """The ``(n, d)`` states of a chain, or the ``_points`` of an array."""
    return x.states if isinstance(x, Chain) else _points(x, name="samples")


def per_coordinate_tau(x) -> list[TauEstimate]:
    """Tau estimate of each coordinate projection of a chain or an ``(n, d)`` array.

    One ``RuntimeWarning`` counts the windows that hit ``t_max``.  A column
    with NaN or ``inf``, or a constant one, raises an error naming it.
    """
    return _taus(_states_of(x), None)


def ess_from_tau(n: int, tau: float) -> float:
    """Effective sample size of ``n`` correlated samples: ``n / (1 + tau)``."""
    return n / (1.0 + tau)


def chain_ess(x) -> float:
    """Effective sample size of a chain: ``n / (1 + tau_hat)``.

    Multivariate inputs report the minimum over coordinate projections
    (equivalently, the maximum tau), which is the conservative summary.
    Returns NaN when the chain is too short for a tau estimate.
    """
    states = _states_of(x)
    taus = per_coordinate_tau(states)
    return min(ess_from_tau(states.shape[0], t.tau) for t in taus)


def kish_ess(weights=None, *, log_weights=None) -> float:
    """Equal-information sample count of a weighted set: (sum w)^2 / sum w^2.

    Accepts linear weights or log weights; the computation shifts by the
    maximum log weight, so any common rescaling cancels.  The result always
    lies in [1, n].
    """
    if (weights is None) == (log_weights is None):
        raise ValueError("pass exactly one of weights or log_weights")
    if log_weights is None:
        w = np.asarray(weights, dtype=float)
        if w.size == 0:
            raise ValueError("weights are empty")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        with np.errstate(divide="ignore"):
            lw = np.log(w)
    else:
        lw = np.asarray(log_weights, dtype=float)
        if lw.size == 0:
            raise ValueError("log_weights are empty")
        if np.any(np.isnan(lw)) or np.any(np.isposinf(lw)):
            raise ValueError("log weights must be finite or -inf")
    top = lw.max()
    if np.isneginf(top):
        raise ValueError("all weights are zero")
    s = np.exp(lw - top)
    return float(s.sum() ** 2 / (s ** 2).sum())


@dataclass(frozen=True)
class HistogramDensity:
    """Histogram estimate of a sample density.

    ``counts`` holds per-bin occupation numbers on the full d-dimensional
    bin lattice; ``edges`` the per-dimension bin edges.  Mass outside the
    binned box is reported separately, so in-box counts plus the overflow
    count equal the sample size exactly.
    """

    edges: tuple          # one edge array per dimension
    counts: np.ndarray    # integer counts, shape = bins per dimension
    n_samples: int

    @property
    def dim(self) -> int:
        return len(self.edges)

    @property
    def masses(self) -> np.ndarray:
        return self.counts / self.n_samples

    @property
    def overflow_count(self) -> int:
        return int(self.n_samples - self.counts.sum())

    @property
    def overflow_mass(self) -> float:
        return self.overflow_count / self.n_samples

    @property
    def volumes(self) -> np.ndarray:
        return _cell_volumes(self.edges)

    def bin_indices(self, points) -> np.ndarray:
        """Per-dimension bin index of each of the ``(n, dim)`` points; -1 marks out-of-box.

        Non-finite coordinates are out of the box.  This is the rule that
        ``histogram_density`` counts with.
        """
        return _bin_indices(self.edges, _points(points, self.dim))

    def density_at(self, points) -> np.ndarray:
        """Estimated density (mass / bin volume) at each point; 0 outside."""
        idx = self.bin_indices(points)
        inside = _in_box(idx)
        out = np.zeros(idx.shape[0])
        if np.any(inside):
            sel = idx[inside]
            vol = 1.0  # each point's bin volume, multiplied in _cell_volumes' axis order
            for k, e in enumerate(self.edges):
                vol = vol * np.diff(e)[sel[:, k]]
            out[inside] = self.counts[tuple(sel.T)] / self.n_samples / vol
        return out

    def log_pdf(self, points) -> np.ndarray:
        """Log of ``density_at`` (``-inf`` outside the box and in empty bins):
        with ``dim``, what ``importance_weights`` reads of a proposal."""
        with np.errstate(divide="ignore"):
            return np.log(self.density_at(points))


def _bin_indices(edges, pts: np.ndarray) -> np.ndarray:
    """Per-dimension bin index of each row of ``pts``; -1 marks out-of-box.

    Bins are closed on the left, and the last bin on the right too.  NaN
    fails both edge comparisons, so it is caught by testing for inside, not
    outside.
    """
    idx = np.empty(pts.shape, dtype=int)
    for k, e in enumerate(edges):
        x = pts[:, k]
        i = np.searchsorted(e, x, side="right") - 1
        # the right edge of the last bin is inclusive
        i[x == e[-1]] = len(e) - 2
        i[~((x >= e[0]) & (x <= e[-1]))] = -1
        idx[:, k] = i
    return idx


def _in_box(idx: np.ndarray) -> np.ndarray:
    """Rows of a ``_bin_indices`` array with no -1: a column ``&`` per
    coordinate, where a row reduction takes an inner loop of d per row (at
    (10000, 2), about 20 µs against 210 µs)."""
    inside = np.ones(len(idx), dtype=bool)
    for col in idx.T:
        inside &= col >= 0
    return inside


def histogram_density(samples, bins, bounds=None) -> HistogramDensity:
    """Bin samples into a d-dimensional histogram density.

    ``bins`` is an int or a per-dimension sequence; ``bounds`` optional
    (lo, hi) pairs per dimension, defaulting to the sample range.  Each
    axis's edges come from ``np.histogram_bin_edges``, numpy's own outer-edge
    rule.  The samples are counted with the rule of
    ``HistogramDensity.bin_indices``, so one rule bins both the counts and
    every later lookup, and no padded ``(bins + 2)^d`` lattice is built.
    """
    pts = _states_of(samples)
    n, d = pts.shape
    if np.isscalar(bins):
        bins = [int(bins)] * d
    if any(b < 1 for b in bins):
        raise ValueError("need at least one bin per dimension")
    if bounds is None:
        bounds = [None] * d
    if len(bins) != d or len(bounds) != d:
        raise ValueError(f"bins and bounds need one entry per dimension, d={d}")
    edges = tuple(np.histogram_bin_edges(pts[:, k], bins=b, range=r)
                  for k, (b, r) in enumerate(zip(bins, bounds)))
    idx = _bin_indices(edges, pts)
    inside = _in_box(idx)
    # no copy when every sample is in the box, as the harness's bounds make it
    flat = np.ravel_multi_index((idx if inside.all() else idx[inside]).T, bins)
    del idx  # freed before the count lattice is allocated
    counts = np.bincount(flat, minlength=math.prod(bins)).reshape(bins)
    return HistogramDensity(edges=edges, counts=counts, n_samples=n)


def evidence_from_chain(target, chain_or_samples, density: HistogramDensity) -> float:
    """Evidence estimate from posterior samples and their own density map.

    ``is_evidence`` with the histogram as proposal: the mean of
    ``target_density / sample_density``.  Dimensions that differ raise
    ``ValueError``.  A sample in an empty bin raises ``CoverageError`` (a
    ``NumericalError``) where the target's density is positive, and weighs 0
    where it is 0; a histogram of the same samples has no such sample.  A
    NaN or ``+inf`` target log density raises ``NumericalError``; samples
    all at zero target density give 0.0 with a warning.
    """
    return is_evidence(importance_weights(target, density, _states_of(chain_or_samples)))


def binomial_sample_bound(p_hat: float, eps: float, tau_hat: float = 0.0) -> int:
    """Samples needed to pin a region's probability to accuracy ``eps``.

    Evaluates ``ceil(p(1-p)/eps^2 * (1+tau))``; degenerate probabilities
    (0 or 1) need no samples at all.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError("p_hat must lie in [0, 1]")
    if not 0.0 <= tau_hat < np.inf:
        raise ValueError(f"tau_hat must be finite and nonnegative, got {tau_hat}")
    return int(np.ceil(p_hat * (1.0 - p_hat) / eps ** 2 * (1.0 + tau_hat)))
