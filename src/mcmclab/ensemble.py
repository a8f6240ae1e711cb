"""Ensemble Metropolis-Hastings: many chains that shape each other's moves.

Three proposal families are provided:

* ``gaussian`` - a Gaussian step whose covariance is the empirical
  covariance of the other chains' current positions, scaled by ``gamma**2``;
* ``de``       - a shift along the difference vector of two other chains
  plus Gaussian jitter, scaled by ``gamma``;
* ``stretch``  - a move along the line through one other chain, with the
  stretch factor drawn from a power-law window and a ``gamma**(d-1)``
  volume factor in the acceptance ratio.

The gaussian step and de's default jitter are drawn without forming any
covariance: a weighted sum of the other chains' deviations from their mean,
with standard normal weights, is exactly Normal(0, C) for C the other
chains' covariance (the walk move of Goodman & Weare 2010, taken over all
complementary walkers).  That is one (m,)-by-(m, d) product per update, with
no factorization and no ridge.

A sweep updates chains in fixed ascending order, each update seeing the
others' latest positions, so runs are reproducible for a fixed seed.  The
sweep driver keeps one log density per chain, so an update evaluates the
target only at its candidate.

A stretch update's draws never depend on the ensemble, so a stretch sweep
makes all of them first, in sequential order, and then evaluates the chains
in dependency levels: chain ``j`` whose partner ``k`` comes later in the
sweep reads ``k``'s old position and sits at level 0; otherwise it sits one
level above ``k``.  Each level builds its candidates in one array operation
and evaluates them with one ``log_density_many`` call, and the sweep equals
the one-update-at-a-time sweep bit for bit.  The public step functions are
single updates through the same proposal code and accept rule.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .mh import Chain, _accepts, _checked, _metropolis_update

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

# fewest chains each move can run with
MIN_CHAINS = {"gaussian": 3, "de": 3, "stretch": 2}

# default gamma = DEFAULT_DELTA / sqrt(d) of the moves that take a scale
DEFAULT_DELTA = {"gaussian": 2.5, "de": 1.7}


@dataclass(frozen=True)
class EnsembleState:
    """Positions and per-sweep histories of an ensemble of chains."""

    positions: np.ndarray   # (m, d) current positions
    history: np.ndarray     # (iterations, m, d)
    accepted: np.ndarray    # (iterations, m) bool
    starts: np.ndarray      # (m, d) initial positions
    seed: int | None = None

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
        # the power sees 1 outside the window, where the density is 0
        vals = np.where(inside, np.where(inside, g, 1.0) ** -0.5 / norm, 0.0)
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
    exists.  Chain ``exclude``'s own position never enters.  This is the
    covariance of the gaussian move's steps (before ``gamma**2``), which
    draws them without forming it.
    """
    positions = _positions_of(state)
    m = positions.shape[0]
    if m < MIN_CHAINS["gaussian"]:
        raise ValueError(f"ensemble covariance needs at least {MIN_CHAINS['gaussian']} chains")
    _, cov = _cholesky_with_ridge(_loo_covariance(positions, _others(m, exclude)))
    return cov


def _jitter_factor(jitter_cov, d: int) -> np.ndarray:
    """Cholesky factor of a constant de jitter covariance; zeros for none."""
    jitter = np.asarray(jitter_cov, dtype=float)
    if jitter.ndim == 0:
        jitter = float(jitter) * np.eye(d)
    if np.trace(jitter) == 0.0:
        return np.zeros((d, d))
    return _cholesky_with_ridge(jitter)[0]


def _walk(positions: np.ndarray, j: int, rng) -> np.ndarray:
    """Step ~ Normal(0, C), C the covariance of every chain but ``j``.

    ``sum_k w_k (x_k - mean)`` over the other chains, with iid standard
    normal ``w`` scaled by ``1/sqrt(m - 2)``, has covariance exactly C: the
    walk move of Goodman & Weare (2010) over all complementary walkers.  The
    centred weights sum to zero, so the mean never needs forming; the step
    is odd in ``w``, so proposals built from it are symmetric bit for bit.
    """
    m = positions.shape[0]
    w = rng.standard_normal(m)
    w[j] = 0.0
    w -= w.sum() / (m - 1)
    w[j] = 0.0
    w *= 1.0 / math.sqrt(m - 2)
    return w @ positions


_SQRT_FIFTH = math.sqrt(0.2)


def _stretch_draws(m: int, j: int, law, rng):
    """Partner index and stretch factor for chain ``j``, in stream order."""
    k = int(rng.integers(m - 1))
    if k >= j:
        k += 1
    return k, float(sample_stretch_factor(law, rng))


def _stretch_candidates(partners, currents, z):
    """Stretch candidates on the lines through ``partners`` and ``currents``.

    One point with a scalar ``z``, or rows with ``z`` a column: the same
    arithmetic either way.
    """
    return partners + z * (currents - partners)


def _de_partners(m: int, rng):
    """Two distinct indices below ``m - 1``, as ``rng.choice(m - 1, 2, replace=False)``.

    The same draws spelled out (Floyd's sampling, then a shuffle of the
    pair) at a fraction of ``choice``'s call overhead.
    """
    a = int(rng.integers(m - 2))
    b = int(rng.integers(m - 1))
    if b == a:
        b = m - 2
    if rng.integers(2) == 0:
        a, b = b, a
    return a, b


def _propose(method, positions, j, factor, gamma, law, rng):
    """Candidate for chain ``j`` and the log volume factor of its move.

    ``factor`` is the Cholesky factor of a constant de jitter; None makes
    de's jitter a fifth of the ensemble covariance (unused by the other
    moves).  Random draws happen in a fixed order per method, which the
    streams depend on.
    """
    m, d = positions.shape
    current = positions[j]
    if method == "stretch":
        k, z = _stretch_draws(m, j, law, rng)
        return _stretch_candidates(positions[k], current, z), (d - 1) * np.log(z)
    if method == "gaussian":
        return current + gamma * _walk(positions, j, rng), 0.0
    k, l = _de_partners(m, rng)
    k += k >= j
    l += l >= j
    if factor is None:
        eps = _SQRT_FIFTH * _walk(positions, j, rng)
    else:
        eps = factor @ rng.standard_normal(d)
    return current + gamma * (positions[k] - positions[l] + eps), 0.0


def _single_update(method, target, positions, j, gamma, law, jitter_cov, rng):
    """One update of chain ``j`` from scratch; ``(new_position, accepted)``."""
    m = positions.shape[0]
    if m < MIN_CHAINS[method]:
        raise ValueError(f"{method} moves need at least {MIN_CHAINS[method]} chains, got {m}")
    current = positions[j]
    lp_current = _checked(float(target.log_density(current)), current)
    factor = None if jitter_cov is None else _jitter_factor(jitter_cov, positions.shape[1])
    candidate, log_volume = _propose(method, positions, j, factor, gamma, law, rng)
    accepted, _ = _metropolis_update(target, lp_current, candidate, log_volume, rng)
    return (candidate if accepted else current), accepted


def ensemble_gaussian_step(target, state, j: int, gamma: float, rng):
    """Update chain ``j`` with a Gaussian proposal shaped by the ensemble.

    Candidate ~ Normal(position_j, gamma^2 * C) where C is the covariance of
    the other chains.  The proposal is symmetric, so acceptance is the plain
    Metropolis ratio.  Returns ``(new_position, accepted)``.
    """
    return _single_update("gaussian", target, _positions_of(state), j, gamma, None, None, rng)


def de_trajectory_count(m: int) -> int:
    """Distinct difference-vector pairs, ignoring order: (m-1)(m-2)/2."""
    if m < MIN_CHAINS["de"]:
        raise ValueError(f"difference moves need at least {MIN_CHAINS['de']} chains")
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
    return _single_update("de", target, _positions_of(state), j, gamma, None, jitter_cov, rng)


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
    return _single_update("stretch", target, _positions_of(state), j, None, law, None, rng)


def _stretch_sweep(target, positions, lp, law, rng, accepted):
    """One stretch sweep in dependency levels; updates its arguments in place.

    ``lp`` holds each chain's log density and ``accepted`` is this sweep's
    row of flags.  Every level reads its positions before it writes any, so
    level 0 sees the ensemble as the sweep found it.
    """
    m, d = positions.shape
    partners, z, u = [], [], []
    level = []
    levels = []  # chains of each level, in ascending order
    for j in range(m):
        k, z_j = _stretch_draws(m, j, law, rng)
        partners.append(k)
        z.append(z_j)
        u.append(rng.random())
        # j sees k's old position if k updates later, else k's new one
        lv = 0 if k > j else level[k] + 1
        level.append(lv)
        if lv == len(levels):
            levels.append([j])
        else:
            levels[lv].append(j)
    partners = np.array(partners)
    z = np.array(z)
    log_volume = ((d - 1) * np.log(z)).tolist()
    log_u = np.log(u).tolist()
    for members in levels:
        rows = np.array(members)
        candidates = _stretch_candidates(
            positions[partners[rows]], positions[rows], z[rows, None]
        )
        lp_new = np.asarray(target.log_density_many(candidates), dtype=float)
        if lp_new.shape != rows.shape:
            raise ValueError(
                f"log_density_many returned shape {lp_new.shape} for "
                f"{rows.size} points; expected ({rows.size},)"
            )
        taken = []
        for j, lp_j, candidate in zip(members, lp_new.tolist(), candidates):
            acc = _accepts(lp[j], lp_j, candidate, log_volume[j], log_u[j])
            if acc:
                lp[j] = lp_j
            taken.append(acc)
        accepted[rows] = taken
        positions[rows[taken]] = candidates[taken]


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
    plus unit Gaussian jitter, since identical starts would give the
    covariance moves zero steps.  ``gamma`` defaults to
    ``DEFAULT_DELTA[method] / sqrt(d)`` for the Gaussian and difference moves.
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
    if gamma is None and method in DEFAULT_DELTA:
        gamma = DEFAULT_DELTA[method] / np.sqrt(d)
    if law is None:
        law = StretchLaw()
    if method != "stretch" and gamma == 0.0:
        warnings.warn(
            "gamma=0 proposes the current point forever; the ensemble will stall",
            RuntimeWarning,
            stacklevel=2,
        )
    # the gaussian move and de's ensemble jitter step within the span of
    # the other chains, which is all of R^d only from d + 2 chains on
    shaped = method == "gaussian" or (method == "de" and jitter_cov is None)
    if shaped and m < d + 2:
        warnings.warn(
            f"covariance proposals want m >= d + 2 chains (m={m}, d={d}); "
            "their steps stay in the span of the other chains, and nothing is ridged",
            RuntimeWarning,
            stacklevel=2,
        )
    theta0 = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=float)
    positions = theta0 + rng.standard_normal((m, d))
    starts = positions.copy()
    # one cached log density per chain: each update evaluates the target
    # at its candidate only
    lp = [_checked(float(target.log_density(x)), x) for x in positions]
    factor = None
    if method == "de" and jitter_cov is not None:
        factor = _jitter_factor(jitter_cov, d)
    history = np.empty((n_sweeps, m, d))
    accepted = np.empty((n_sweeps, m), dtype=bool)
    for sweep in range(n_sweeps):
        if method == "stretch":
            _stretch_sweep(target, positions, lp, law, rng, accepted[sweep])
            history[sweep] = positions
            continue
        for j in range(m):
            candidate, log_volume = _propose(
                method, positions, j, factor, gamma, law, rng
            )
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
