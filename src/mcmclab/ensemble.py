"""Ensemble Metropolis-Hastings: many chains that shape each other's moves.

Three proposal families are provided:

* ``gaussian`` - a Gaussian step whose covariance is the empirical
  covariance of the other chains' current positions, scaled by ``gamma**2``;
* ``de``       - a shift along the difference vector of two other chains
  plus Gaussian jitter, scaled by ``gamma``;
* ``stretch``  - a move along the line through one other chain, with the
  stretch factor drawn from a power-law window and a ``gamma**(d-1)``
  volume factor in the acceptance ratio.

A sweep updates chains in fixed ascending order, each update seeing the
others' latest positions, so runs are reproducible for a fixed seed.  The
sweep driver keeps one log density per chain, so an update evaluates the
target only at its candidate.  The public step functions are single updates
through the same proposal code and accept rule.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .mh import Chain, _checked, _metropolis_update

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
]

ENSEMBLE_METHODS = ("gaussian", "de", "stretch")

_MIN_CHAINS = {"gaussian": 3, "de": 3, "stretch": 2}


@dataclass(frozen=True)
class EnsembleState:
    """Positions and per-sweep histories of an ensemble of chains."""

    positions: np.ndarray   # (m, d) current positions
    history: np.ndarray     # (iterations, m, d)
    accepted: np.ndarray    # (iterations, m) bool
    starts: np.ndarray      # (m, d) initial positions
    seed: int | None = None

    @property
    def n_chains(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def iteration(self) -> int:
        return self.history.shape[0]

    def chain(self, j: int) -> Chain:
        """Chain ``j``'s history as a standalone chain object."""
        return Chain(
            states=self.history[:, j, :],
            accepted=self.accepted[:, j],
            start=self.starts[j],
            seed=self.seed,
        )

    def acceptance_fraction(self) -> float:
        if self.accepted.size == 0:
            raise ValueError("ensemble has no recorded sweeps")
        return float(self.accepted.mean())


@dataclass(frozen=True)
class StretchLaw:
    """Stretch-factor distribution ``g(gamma) ~ gamma**(-1/2)`` on [1/a, a]."""

    a: float = 2.0

    def __post_init__(self):
        if not self.a > 1.0:
            raise ValueError("stretch range parameter a must exceed 1")

    def density(self, gamma) -> np.ndarray:
        """Normalized density of the stretch factor."""
        g = np.asarray(gamma, dtype=float)
        norm = 2.0 * (np.sqrt(self.a) - 1.0 / np.sqrt(self.a))
        inside = (g >= 1.0 / self.a) & (g <= self.a)
        with np.errstate(divide="ignore"):
            vals = np.where(inside, g ** -0.5 / norm, 0.0)
        return vals if vals.ndim else float(vals)


def _positions_of(state) -> np.ndarray:
    if isinstance(state, EnsembleState):
        return state.positions
    return np.atleast_2d(np.asarray(state, dtype=float))


def _cholesky_with_ridge(cov: np.ndarray):
    """Factor ``cov``; nudge degenerate matrices with a tiny ridge.

    The ridge scales with the trace and has an absolute floor so a fully
    collapsed ensemble still yields a (vanishingly small) proposal instead
    of crashing mid-run.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    try:
        return np.linalg.cholesky(cov), cov
    except np.linalg.LinAlgError:
        pass
    ridge = 1e-10 * np.trace(cov) / d + 1e-300
    for _ in range(60):
        try:
            fixed = cov + ridge * np.eye(d)
            return np.linalg.cholesky(fixed), fixed
        except np.linalg.LinAlgError:
            ridge *= 10.0
    raise NumericalError("covariance matrix cannot be repaired by ridging")


def _others(m: int, j: int) -> np.ndarray:
    """Row mask selecting every chain but ``j``."""
    keep = np.ones(m, dtype=bool)
    keep[j] = False
    return keep


def _loo_covariance(positions: np.ndarray, keep) -> np.ndarray:
    """Sample covariance of the rows ``keep`` selects, ``np.cov``'s arithmetic.

    Same operations in the same order as ``np.cov(positions[keep],
    rowvar=False, ddof=1)``, so the result agrees bit for bit, without
    its argument handling.
    """
    x = positions[keep]
    x -= x.mean(axis=0)
    c = x.T @ x
    c *= 1.0 / (x.shape[0] - 1)
    return c


def ensemble_covariance(state, exclude: int) -> np.ndarray:
    """Sample covariance of all chains except ``exclude``.

    The result is symmetric positive semidefinite; if it is numerically
    singular a trace-scaled ridge is added so that a Cholesky factorization
    exists.  Chain ``exclude``'s own position never enters, which keeps
    proposals built from this matrix symmetric.
    """
    positions = _positions_of(state)
    m = positions.shape[0]
    if m < 3:
        raise ValueError("ensemble covariance needs at least 3 chains")
    _, cov = _cholesky_with_ridge(_loo_covariance(positions, _others(m, exclude)))
    return cov


def _jitter_matrix(jitter_cov, d: int):
    """``None`` (jitter from the ensemble) or the jitter covariance as a matrix."""
    if jitter_cov is None:
        return None
    jitter_cov = np.asarray(jitter_cov, dtype=float)
    if jitter_cov.ndim == 0:
        return float(jitter_cov) * np.eye(d)
    return jitter_cov


def _propose(method, positions, j, keep, gamma, law, jitter, rng):
    """Candidate for chain ``j`` and the log volume factor of its move.

    ``keep`` masks out chain ``j`` for the covariance-shaped moves;
    ``jitter`` is a ``_jitter_matrix`` result.  Random draws happen in a
    fixed order per method, which the streams depend on.
    """
    m, d = positions.shape
    current = positions[j]
    if method == "stretch":
        k = int(rng.integers(m - 1))
        if k >= j:
            k += 1
        z = float(sample_stretch_factor(law, rng))
        return positions[k] + z * (current - positions[k]), (d - 1) * np.log(z)
    if method == "gaussian":
        chol, _ = _cholesky_with_ridge(_loo_covariance(positions, keep))
        return current + gamma * (chol @ rng.standard_normal(d)), 0.0
    k, l = rng.choice(m - 1, size=2, replace=False)
    k += k >= j
    l += l >= j
    if jitter is None:
        # ridge-check the covariance first, then factor a fifth of it:
        # a rank-deficient ensemble needs both stages
        _, cov = _cholesky_with_ridge(_loo_covariance(positions, keep))
        jitter = cov / 5.0
    z = rng.standard_normal(d)
    if np.trace(jitter) == 0.0:
        eps = np.zeros(d)
    else:
        chol, _ = _cholesky_with_ridge(jitter)
        eps = chol @ z
    return current + gamma * (positions[k] - positions[l] + eps), 0.0


def _single_update(method, target, positions, j, gamma, law, jitter_cov, rng):
    """One update of chain ``j`` from scratch; ``(new_position, accepted)``."""
    m, d = positions.shape
    current = positions[j]
    lp_current = _checked(float(target.log_density(current)), current)
    candidate, log_volume = _propose(
        method, positions, j, _others(m, j), gamma, law,
        _jitter_matrix(jitter_cov, d), rng,
    )
    accepted, _ = _metropolis_update(target, lp_current, candidate, log_volume, rng)
    return (candidate if accepted else current), accepted


def ensemble_gaussian_step(target, state, j: int, gamma: float, rng):
    """Update chain ``j`` with a Gaussian proposal shaped by the ensemble.

    Candidate ~ Normal(position_j, gamma^2 * C) where C is the covariance of
    the other chains.  The proposal is symmetric, so acceptance is the plain
    Metropolis ratio.  Returns ``(new_position, accepted)``.
    """
    positions = _positions_of(state)
    if positions.shape[0] < 3:
        raise ValueError("ensemble covariance needs at least 3 chains")
    return _single_update("gaussian", target, positions, j, gamma, None, None, rng)


def de_trajectory_count(m: int) -> int:
    """Distinct difference-vector pairs, ignoring order: (m-1)(m-2)/2."""
    if m < 3:
        raise ValueError("difference moves need at least 3 chains")
    return (m - 1) * (m - 2) // 2


def de_step(target, state, j: int, gamma: float, rng, jitter_cov=None):
    """Differential-evolution move for chain ``j``.

    Picks two other chains ``k != l`` (distinct indices; their positions may
    coincide after rejections) and proposes
    ``position_j + gamma * (position_k - position_l + eps)`` with
    ``eps ~ Normal(0, jitter_cov)``.  ``jitter_cov=None`` uses one fifth of
    the ensemble covariance; pass ``0`` for no jitter.  The proposal is
    symmetric.  Returns ``(new_position, accepted)``.
    """
    positions = _positions_of(state)
    if positions.shape[0] < 3:
        raise ValueError("de_step needs at least 3 chains")
    return _single_update("de", target, positions, j, gamma, None, jitter_cov, rng)


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
    positions = _positions_of(state)
    if positions.shape[0] < 2:
        raise ValueError("stretch_step needs at least 2 chains")
    return _single_update("stretch", target, positions, j, None, law, None, rng)


def run_ensemble(
    method: str,
    target,
    m: int,
    n_sweeps: int,
    rng,
    theta0=None,
    gamma: float | None = None,
    law: StretchLaw | None = None,
    jitter_cov=None,
    seed: int | None = None,
) -> EnsembleState:
    """Run ``n_sweeps`` sequential sweeps of an ensemble sampler.

    Within a sweep, chains update in ascending order and each sees the
    others' latest positions.  Chains start at ``theta0`` (default origin)
    plus unit Gaussian jitter, since identical starts would make the
    ensemble covariance singular.  ``gamma`` defaults to ``2.5/sqrt(d)`` for
    the Gaussian method and ``1.7/sqrt(d)`` for the difference move.
    """
    if method not in ENSEMBLE_METHODS:
        raise ValueError(f"unknown ensemble method {method!r}")
    if m < _MIN_CHAINS[method]:
        raise ValueError(
            f"method {method!r} needs at least {_MIN_CHAINS[method]} chains, got {m}"
        )
    if n_sweeps < 0:
        raise ValueError("n_sweeps must be >= 0")
    d = target.dim
    if gamma is None:
        gamma = {"gaussian": 2.5, "de": 1.7, "stretch": None}[method]
        if gamma is not None:
            gamma = gamma / np.sqrt(d)
    if law is None:
        law = StretchLaw()
    if method != "stretch" and gamma == 0.0:
        warnings.warn(
            "gamma=0 proposes the current point forever; the ensemble will stall",
            RuntimeWarning,
            stacklevel=2,
        )
    if method == "gaussian" and m < d + 2:
        warnings.warn(
            f"covariance proposals want m >= d + 2 chains (m={m}, d={d}); "
            "the ensemble covariance will be singular up to ridging",
            RuntimeWarning,
            stacklevel=2,
        )
    theta0 = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float)
    positions = theta0 + rng.standard_normal((m, d))
    starts = positions.copy()
    # one cached log density per chain: each update evaluates the target
    # at its candidate only
    lp = [_checked(float(target.log_density(x)), x) for x in positions]
    jitter = _jitter_matrix(jitter_cov, d)
    keep = np.ones(m, dtype=bool)
    history = np.empty((n_sweeps, m, d))
    accepted = np.empty((n_sweeps, m), dtype=bool)
    for sweep in range(n_sweeps):
        for j in range(m):
            keep[j] = False
            candidate, log_volume = _propose(
                method, positions, j, keep, gamma, law, jitter, rng
            )
            keep[j] = True
            acc, lp_candidate = _metropolis_update(
                target, lp[j], candidate, log_volume, rng
            )
            if acc:
                positions[j] = candidate
                lp[j] = lp_candidate
            accepted[sweep, j] = acc
        history[sweep] = positions
    return EnsembleState(
        positions=positions,
        history=history,
        accepted=accepted,
        starts=starts,
        seed=seed,
    )
