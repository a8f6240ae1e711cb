"""Ensemble Metropolis-Hastings: many chains that shape each other's moves.

Three proposal families are provided:

* ``gaussian`` - a Gaussian step whose covariance is the empirical
  covariance of the other chains' current positions, scaled by ``gamma**2``;
* ``de``       - a shift along the difference vector of two other chains
  plus Gaussian jitter, scaled by ``gamma``;
* ``stretch``  - a move along the line through one other chain, with the
  stretch factor drawn from a power-law window and a ``gamma**(d-1)``
  volume factor in the acceptance ratio.

Every update is a half-update (``_update``): the chains ``rows`` move at
once, each with a proposal built only from the chains ``others``, which
stay fixed, and one ``log_density_many`` call evaluates the candidates.
A sweep of ``run_ensemble`` is the red-blue split of Goodman & Weare
(2010) and emcee (Foreman-Mackey et al. 2013, Algorithm 3): the first
``m // 2`` chains move against the rest, then the rest against the
updated first half.  A step function moves its one chain ``j`` against
all ``m - 1`` others.  With ``r`` rows and ``n`` others, a half-update
draws one block per kind, in this order:

* gaussian: weights ``standard_normal((r, n))``, uniforms ``random(r)``;
* de: partners ``integers(n - 1, size=r)``, ``integers(n, size=r)``,
  ``integers(2, size=r)`` (Floyd's sampling of a pair, then a swap), then
  weights ``standard_normal((r, n))`` or, for a constant jitter,
  ``standard_normal((r, d))``, then uniforms ``random(r)``;
* stretch: partners ``integers(n, size=r)``, factors
  ``sample_stretch_factor(law, rng, r)``, uniforms ``random(r)``.

The gaussian step and de's default jitter are walk steps (Goodman & Weare
2010): each row of weights is centred and scaled by ``scale / sqrt(n - 1)``,
so its product with the other chains' positions is exactly Normal(0,
scale**2 C) for C their covariance, with no covariance formed or factored.
A constant de jitter is a standard deviation, a scalar or one per
coordinate, as in ter Braak (2006).  The chains keep their log densities,
so the target is evaluated at candidates only, and their starts go through
``mh._start_log_densities``: a start of zero density raises ``ValueError``.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mh import Chain, _accepts, _start_log_densities
from .targets import _log_densities

__all__ = [
    "EnsembleState",
    "StretchLaw",
    "ensemble_covariance",
    "ensemble_gaussian_step",
    "de_step",
    "de_trajectory_count",
    "sample_stretch_factor",
    "stretch_step",
    "run_ensemble",
    "ENSEMBLE_METHODS",
    "MIN_CHAINS",
    "DEFAULT_DELTA",
]

ENSEMBLE_METHODS = ("gaussian", "de", "stretch")

# fewest other chains a move builds its proposal from
_MIN_OTHERS = {"gaussian": 2, "de": 2, "stretch": 1}

# fewest chains run_ensemble runs each move with: each half's other half
# holds _MIN_OTHERS chains
MIN_CHAINS = {method: 2 * n for method, n in _MIN_OTHERS.items()}

# default gamma = DEFAULT_DELTA / sqrt(d) of the moves that take a scale
DEFAULT_DELTA = {"gaussian": 2.5, "de": 1.7}


@dataclass(frozen=True)
class EnsembleState:
    """Positions and per-sweep histories of an ensemble of chains."""

    positions: np.ndarray   # (m, d) current positions
    history: np.ndarray     # (iterations, m, d)
    accepted: np.ndarray    # (iterations, m) bool
    starts: np.ndarray      # (m, d) initial positions

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def iteration(self) -> int:
        return self.history.shape[0]

    def chain(self, j: int) -> Chain:
        """Chain ``j``'s history as a standalone chain object."""
        return Chain(self.history[:, j, :], self.accepted[:, j], self.starts[j])

    def acceptance_fraction(self) -> float:
        if self.accepted.size == 0:
            raise ValueError("ensemble has no recorded sweeps")
        return float(self.accepted.mean())


@dataclass(frozen=True)
class StretchLaw:
    """Stretch-factor distribution ``g(gamma) ~ gamma**(-1/2)`` on [1/a, a]."""

    a: float = 2.0

    def __post_init__(self):
        if not 1.0 < self.a < math.inf:
            raise ValueError("stretch range parameter a must exceed 1 and be finite")

    def density(self, gamma) -> np.ndarray:
        """Normalized density of the stretch factor."""
        g = np.asarray(gamma, dtype=float)
        norm = 2.0 * (np.sqrt(self.a) - 1.0 / np.sqrt(self.a))
        inside = (g >= 1.0 / self.a) & (g <= self.a)
        # the power sees 1 outside the window, where the density is 0
        vals = np.where(inside, np.where(inside, g, 1.0) ** -0.5 / norm, 0.0)
        return vals if vals.ndim else float(vals)


def _positions(state, j: int, method: str, dim=None) -> np.ndarray:
    """``state``'s positions, once ``j`` is a chain and its ``m - 1`` others suit ``method``.

    The positions must have shape ``(m, dim)``, or ``(m, d)`` for any ``d``
    without ``dim``; a flat ``(m,)`` array is m one-dimensional chains, read
    as ``(m, 1)``, unless ``dim`` says otherwise.  The shape is checked
    before the chain count.
    """
    positions = state.positions if isinstance(state, EnsembleState) else state
    positions = np.asarray(positions, dtype=float)
    if positions.ndim == 1 and dim in (None, 1):
        positions = positions[:, None]
    if positions.ndim != 2 or dim not in (None, positions.shape[1]):
        want = "d" if dim is None else dim
        raise ValueError(f"positions must have shape (m, {want}), got {positions.shape}")
    m, fewest = positions.shape[0], _MIN_OTHERS[method] + 1
    if m < fewest:
        raise ValueError(f"{method} moves need at least {fewest} chains, got {m}")
    # a negative j would let a partner index step onto chain j itself
    if not 0 <= j < m:
        raise ValueError(f"chain index {j} outside [0, {m})")
    return positions


def ensemble_covariance(state, exclude: int) -> np.ndarray:
    """Sample covariance of all chains except ``exclude``.

    The same operations in the same order as ``np.cov(np.delete(positions,
    exclude, 0), rowvar=False, ddof=1)``, so the result agrees bit for bit;
    a collapsed ensemble gives exactly zero.  Chain ``exclude``'s own
    position never enters.  This is the covariance of the gaussian move's
    steps (before ``gamma**2``), which draws them without forming it.
    """
    x = np.delete(_positions(state, exclude, "gaussian"), exclude, axis=0)
    x -= x.mean(axis=0)
    c = x.T @ x
    c *= 1.0 / (x.shape[0] - 1)
    return c


def _checked_scales(gamma, jitter_sd, d: int):
    """de's constant jitter as an array (or None), once both scales are valid.

    ``gamma`` (None for stretch) must be finite; ``jitter_sd`` finite,
    ``>= 0`` and of shape () or (d,).
    """
    if gamma is not None and not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if jitter_sd is None:
        return None
    sd = np.asarray(jitter_sd, dtype=float)
    if sd.shape not in ((), (d,)):
        raise ValueError(f"jitter_sd must be a scalar or have shape ({d},), got shape {sd.shape}")
    if not np.all(np.isfinite(sd) & (sd >= 0.0)):
        raise ValueError(f"jitter_sd must be finite and >= 0, got {sd}")
    return sd


def _update(method, target, positions, lp, rows, others, gamma, law, jitter_sd, rng):
    """Move the chains ``rows`` at once against the fixed chains ``others``; their flags.

    ``rows`` and ``others`` are disjoint index arrays.  ``positions`` and
    ``lp``, the chains' finite log densities, are updated in place.
    ``jitter_sd`` is de's constant jitter, checked; None makes it a fifth of
    the other chains' covariance.  The draws follow the block order of the
    module docstring; one ``_log_densities`` call evaluates and checks the
    candidates, and ``mh._accepts`` decides every row at once.
    """
    r, n = len(rows), len(others)
    x, y = positions[rows], positions[others]
    log_correction = 0.0
    if method == "stretch":
        ends = y[rng.integers(n, size=r)]
        z = sample_stretch_factor(law, rng, r)
        candidates = ends + z[:, None] * (x - ends)
        log_correction = (positions.shape[1] - 1) * np.log(z)
    else:
        if method == "de":
            a = rng.integers(n - 1, size=r)
            b = rng.integers(n, size=r)
            b[b == a] = n - 1
            swap = rng.integers(2, size=r) == 0
            pair = y[np.where(swap, b, a)] - y[np.where(swap, a, b)]
        if jitter_sd is None:
            # walk weights: they sum to zero, so the mean is never formed,
            # and the step is odd in them
            w = rng.standard_normal((r, n))
            w -= w.mean(axis=1, keepdims=True)
            w *= (1.0 if method == "gaussian" else math.sqrt(0.2)) / math.sqrt(n - 1)
            step = w @ y
        else:
            step = jitter_sd * rng.standard_normal((r, positions.shape[1]))
        if method == "de":
            step = pair + step
        candidates = x + gamma * step
    log_u = np.log(rng.random(r))
    lp_new = _log_densities(target, candidates)
    taken = _accepts(lp[rows], lp_new, log_correction, log_u)
    moved = rows[taken]
    positions[moved] = candidates[taken]
    lp[moved] = lp_new[taken]
    return taken


def _single_update(method, target, state, j, gamma, law, jitter_sd, rng):
    """One update of chain ``j`` against all others; ``(new_position, accepted)``."""
    positions = _positions(state, j, method, target.dim).copy()
    m, d = positions.shape
    jitter_sd = _checked_scales(gamma, jitter_sd, d)
    lp = np.empty(m)
    lp[j] = _start_log_densities(target, positions[j:j + 1])[0]
    others = np.delete(np.arange(m), j)
    taken = _update(method, target, positions, lp, np.array([j]), others, gamma, law,
                    jitter_sd, rng)
    return positions[j], bool(taken[0])


def ensemble_gaussian_step(target, state, j: int, gamma: float, rng):
    """Update chain ``j`` with a Gaussian proposal shaped by the ensemble.

    Candidate ~ Normal(position_j, gamma^2 * C) where C is the covariance of
    the other chains.  The proposal is symmetric, so acceptance is the plain
    Metropolis ratio.  Returns ``(new_position, accepted)``.
    """
    return _single_update("gaussian", target, state, j, gamma, None, None, rng)


def de_trajectory_count(m: int) -> int:
    """Distinct difference-vector pairs of a ``de_step``, ignoring order: (m-1)(m-2)/2.

    A ``run_ensemble`` chain draws its pair from the other half instead.
    """
    if m < _MIN_OTHERS["de"] + 1:
        raise ValueError(f"difference moves need at least {_MIN_OTHERS['de'] + 1} chains")
    return (m - 1) * (m - 2) // 2


def de_step(target, state, j: int, gamma: float, rng, jitter_sd=None):
    """Differential-evolution move for chain ``j`` (ter Braak 2006).

    Picks two other chains ``k != l`` (distinct indices; their positions may
    coincide after rejections) and proposes
    ``position_j + gamma * (position_k - position_l + eps)``.  With
    ``jitter_sd`` a scalar or one standard deviation per coordinate,
    ``eps = jitter_sd * standard_normal(d)``; pass ``0`` for no jitter.
    ``jitter_sd=None`` draws ``eps`` from one fifth of the ensemble
    covariance.  The proposal is symmetric.  Returns ``(new_position,
    accepted)``.
    """
    return _single_update("de", target, state, j, gamma, None, jitter_sd, rng)


def sample_stretch_factor(law: StretchLaw, rng, size=None):
    """Draw stretch factors by inverse CDF: ``((a-1)u + 1)^2 / a``."""
    u = rng.random() if size is None else rng.random(size)
    return ((law.a - 1.0) * u + 1.0) ** 2 / law.a


def stretch_step(target, state, j: int, law: StretchLaw, rng):
    """Affine-invariant stretch move for chain ``j``.

    One partner chain ``k != j`` is chosen uniformly and the candidate is
    placed on the line through both: ``position_k + gamma * (position_j -
    position_k)``.  The acceptance ratio carries a ``gamma**(d-1)`` factor
    (in log space) to account for the volume change along the line.
    Returns ``(new_position, accepted)``.
    """
    return _single_update("stretch", target, state, j, None, law, None, rng)


def run_ensemble(
    method: str,
    target,
    m: int,
    n_sweeps: int,
    rng,
    theta0=None,
    gamma: float | None = None,
    law: StretchLaw | None = None,
    jitter_sd=None,
) -> EnsembleState:
    """Run ``n_sweeps`` red-blue sweeps of an ensemble sampler.

    A sweep moves the first ``m // 2`` chains against the rest, then the
    rest against the updated first half (module docstring).  Chains start
    at ``theta0``, of shape (d,) (default the origin) or (m, d) for one
    point per chain, plus unit Gaussian jitter, since identical starts
    would give the covariance moves zero steps.  ``gamma`` (gaussian and
    de) must be finite and defaults to ``DEFAULT_DELTA[method] / sqrt(d)``,
    ``law`` (stretch) to ``StretchLaw()``, and ``jitter_sd`` is de's
    constant jitter, as in ``de_step``.  An argument the move does not read
    raises ``ValueError``, and so does a start of zero density.
    """
    if method not in ENSEMBLE_METHODS:
        raise ValueError(f"unknown ensemble method {method!r}")
    if m < MIN_CHAINS[method]:
        raise ValueError(
            f"method {method!r} needs at least {MIN_CHAINS[method]} chains, got {m}"
        )
    if n_sweeps < 0:
        raise ValueError("n_sweeps must be >= 0")
    d = target.dim
    if jitter_sd is not None and method != "de":
        raise ValueError(f"jitter_sd is de's constant jitter; the {method} move takes none")
    if gamma is not None and method == "stretch":
        raise ValueError("gamma scales the gaussian and de moves; the stretch move takes none")
    if law is not None and method != "stretch":
        raise ValueError(f"law is the stretch move's; the {method} move takes none")
    if gamma is None and method in DEFAULT_DELTA:
        gamma = DEFAULT_DELTA[method] / np.sqrt(d)
    if law is None and method == "stretch":
        law = StretchLaw()
    jitter_sd = _checked_scales(gamma, jitter_sd, d)
    theta0 = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float)
    if theta0.shape not in ((d,), (m, d)):
        raise ValueError(f"theta0 must have shape ({d},) or ({m}, {d}), got shape {theta0.shape}")
    if method != "stretch" and gamma == 0.0:
        warnings.warn(
            "gamma=0 proposes the current point forever; the ensemble will stall",
            RuntimeWarning,
            stacklevel=2,
        )
    # the gaussian move and de's ensemble jitter step within the span of
    # the other half, which is all of R^d only once m // 2 >= d + 1
    shaped = method == "gaussian" or (method == "de" and jitter_sd is None)
    if shaped and m < 2 * d + 2:
        warnings.warn(
            f"covariance proposals want m >= 2d + 2 chains (m={m}, d={d}); "
            "their steps stay in the span of the other half",
            RuntimeWarning,
            stacklevel=2,
        )
    positions = theta0 + rng.standard_normal((m, d))
    starts = positions.copy()
    # one cached log density per chain, in a copy the target cannot reuse:
    # each update evaluates the target at its candidates only
    lp = _start_log_densities(target, positions).copy()
    history = np.empty((n_sweeps, m, d))
    accepted = np.empty((n_sweeps, m), dtype=bool)
    first, second = np.arange(m // 2), np.arange(m // 2, m)
    for sweep in range(n_sweeps):
        for rows, others in ((first, second), (second, first)):
            accepted[sweep, rows] = _update(method, target, positions, lp, rows, others,
                                            gamma, law, jitter_sd, rng)
        history[sweep] = positions
    return EnsembleState(positions, history, accepted, starts)
