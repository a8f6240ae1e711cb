"""Ensemble Metropolis-Hastings: many chains that shape each other's moves.

Three proposal families are provided:

* ``gaussian`` - a Gaussian step whose covariance is the empirical
  covariance of the other chains' current positions, scaled by ``gamma**2``;
* ``de``       - a shift along the difference vector of two other chains
  plus Gaussian jitter, scaled by ``gamma``;
* ``stretch``  - a move along the line through one other chain, with the
  stretch factor drawn from a power-law window and a ``gamma**(d-1)``
  volume factor in the acceptance ratio.

The gaussian step and de's default jitter are walk steps (Goodman & Weare
2010): one (m,)-by-(m, d) product of centred standard normal weights with
the positions, exactly Normal(0, C) for C the other chains' covariance, with
no covariance formed or factored.  A constant de jitter is a standard
deviation, a scalar or one per coordinate, as in ter Braak (2006).

A sweep updates chains in fixed ascending order, each update seeing the
others' latest positions, so runs are reproducible for a fixed seed.  It
keeps one log density per chain, so the target is evaluated at candidates
only.  No draw depends on the ensemble, so a sweep of ``r`` chains makes
all of its draws first, one block per kind, in this order:

* gaussian: weights ``standard_normal((r, m))``, uniforms ``random(r)``;
* de: partners ``integers(m - 2, size=r)``, ``integers(m - 1, size=r)``,
  ``integers(2, size=r)`` (Floyd's sampling of a pair, then a swap), then
  weights ``standard_normal((r, m))`` or, for a constant jitter,
  ``standard_normal((r, d))``, then uniforms ``random(r)``;
* stretch: partners ``integers(m - 1, size=r)``, factors
  ``sample_stretch_factor(law, rng, r)``, uniforms ``random(r)``.

``run_ensemble`` sweeps all ``m`` chains; the public step functions sweep
the one chain they update, so they draw what one update always drew.

A gaussian or de sweep then updates its chains in rejection runs, as a
random-walk chain does (``mh`` module docstring): the first segment's
``rate`` is the previous sweep's acceptance (1.0 for the first sweep and
the step functions), and a run forms its steps in one stacked product, one
gemv per row and so equal bit for bit to the row's own ``w @ positions``.

A stretch sweep evaluates the chains in dependency levels: chain ``j``
whose partner ``k`` comes later in the sweep reads ``k``'s old position and
sits at level 0; otherwise it sits one level above ``k``.  Each level is
one array operation and one ``log_density_many`` call, equal bit for bit to
updating one chain at a time with the same draws; for a target whose
``log_density_many`` was not written with its ``log_density`` (a subclass
that overrides ``log_density`` alone) the call is the base class's row loop.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mh import Chain, _accepts, _rejection_runs
from .targets import _checked, _log_density_rows

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
    """``state``'s positions, once the chain count suits ``method`` and ``j`` is a chain.

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
    m = positions.shape[0]
    if m < MIN_CHAINS[method]:
        raise ValueError(f"{method} moves need at least {MIN_CHAINS[method]} chains, got {m}")
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


def _walk_weights(w: np.ndarray, rows: np.ndarray, scale: float) -> np.ndarray:
    """Centre the standard normal ``(r, m)`` block ``w`` into walk weights, in place.

    Row ``i`` is chain ``rows[i]``'s: own entry zeroed, the mean of the
    others subtracted, own entry zeroed again, times ``scale / sqrt(m - 2)``.
    ``w[i] @ positions`` is then ``scale * sum_k w_k (x_k - mean)`` over the
    other chains, exactly Normal(0, scale**2 C) for C their covariance: the
    walk move of Goodman & Weare (2010) over all complementary walkers.  The
    weights sum to zero, so the mean is never formed; the step is odd in ``w``.
    """
    m = w.shape[1]
    own = (np.arange(len(rows)), rows)
    w[own] = 0.0
    w -= w.sum(axis=1, keepdims=True) / (m - 1)
    w[own] = 0.0
    w *= scale / math.sqrt(m - 2)
    return w


def _partner_pairs(m: int, rows: np.ndarray, rng):
    """Two distinct partners ``(k, l)`` per chain in ``rows``, neither the chain itself.

    Floyd's sampling of a pair below ``m - 1``, then a swap, in three
    blocks; one row draws as ``rng.choice(m - 1, 2, replace=False)`` at a
    fraction of its cost.  The pair is then shifted past the chain's index.
    """
    r = len(rows)
    a = rng.integers(m - 2, size=r)
    b = rng.integers(m - 1, size=r)
    b[b == a] = m - 2
    swap = rng.integers(2, size=r) == 0
    k = np.where(swap, b, a)
    l = np.where(swap, a, b)
    k += k >= rows
    l += l >= rows
    return k, l


def _sweep(method, target, positions, rows, lp, gamma, law, jitter_sd, rng, accepted, rate):
    """Update chains ``rows`` (an index array) in order; updates its arguments in place.

    ``lp`` maps each chain in ``rows`` to its log density and ``accepted``
    takes one flag per chain.  ``jitter_sd`` is de's constant jitter, checked;
    None makes it a fifth of the ensemble covariance.  All draws come first,
    in the block order of the module docstring.  ``rate``, the acceptance
    of the previous sweep (1.0 for none), sets the length of the gaussian
    and de rejection runs (module docstring).
    """
    if method == "stretch":
        _stretch_sweep(target, positions, rows, lp, law, rng, accepted)
        return
    m, d = positions.shape
    r = len(rows)
    pairs = None
    if method == "de":
        pairs = _partner_pairs(m, rows, rng)
    if jitter_sd is None:
        scale = 1.0 if method == "gaussian" else math.sqrt(0.2)
        walk = _walk_weights(rng.standard_normal((r, m)), rows, scale)
    else:
        walk, eps = None, jitter_sd * rng.standard_normal((r, d))
    log_u = np.log(rng.random(r)).tolist()
    chain_list = rows.tolist()
    accepted[rows] = False

    def form(a, b):
        # stacked: one gemv per row, equal bit for bit to walk[a] @ positions,
        # which a (k, m) @ (m, d) gemm is not
        step = eps[a:b] if walk is None else (walk[a:b, None, :] @ positions)[:, 0, :]
        if pairs is not None:
            step = positions[pairs[0][a:b]] - positions[pairs[1][a:b]] + step
        return positions[rows[a:b]] + gamma * step

    runs = _rejection_runs(
        target, form, lambda a, b: [lp[c] for c in chain_list[a:b]], log_u, rate
    )
    for i, candidate, lp_candidate in runs:
        j = chain_list[i]
        positions[j] = candidate
        lp[j] = lp_candidate
        accepted[j] = True


def _stretch_sweep(target, positions, rows, lp, law, rng, accepted):
    """Stretch updates of chains ``rows`` in dependency levels, in place.

    Arguments as for ``_sweep``.  Every level reads its positions before it
    writes any, so level 0 sees the ensemble as the sweep found it, and a
    partner outside ``rows`` is read where it stands.
    """
    m, d = positions.shape
    r = len(rows)
    partners = rng.integers(m - 1, size=r)
    partners += partners >= rows
    z = sample_stretch_factor(law, rng, r)
    log_u = np.log(rng.random(r)).tolist()
    log_volume = ((d - 1) * np.log(z)).tolist()
    log_density_rows = _log_density_rows(target)
    level = [-1] * m  # each chain's level; -1 until it is reached
    levels = []  # indices into rows of each level, in sweep order
    for i, (j, k) in enumerate(zip(rows.tolist(), partners.tolist())):
        # j sees k's new position if k updated earlier in the sweep, else its old one
        lv = level[k] + 1
        level[j] = lv
        if lv == len(levels):
            levels.append([])
        levels[lv].append(i)
    for members in levels:
        idx = np.array(members)
        chains = rows[idx]
        ends = positions[partners[idx]]
        candidates = ends + z[idx, None] * (positions[chains] - ends)
        lp_new = log_density_rows(candidates)
        taken = []
        for i, j, lp_j, candidate in zip(members, chains.tolist(), lp_new.tolist(), candidates):
            acc = _accepts(lp[j], lp_j, candidate, log_volume[i], log_u[i])
            if acc:
                lp[j] = lp_j
            taken.append(acc)
        accepted[chains] = taken
        positions[chains[taken]] = candidates[taken]


def _single_update(method, target, state, j, gamma, law, jitter_sd, rng):
    """One update of chain ``j`` from scratch; ``(new_position, accepted)``."""
    positions = _positions(state, j, method, target.dim).copy()
    m, d = positions.shape
    jitter_sd = _checked_scales(gamma, jitter_sd, d)
    lp = {j: _checked(float(target.log_density(positions[j])), positions[j])}
    accepted = np.zeros(m, dtype=bool)
    rows = np.array([j])
    _sweep(method, target, positions, rows, lp, gamma, law, jitter_sd, rng, accepted, 1.0)
    return positions[j], bool(accepted[j])


def ensemble_gaussian_step(target, state, j: int, gamma: float, rng):
    """Update chain ``j`` with a Gaussian proposal shaped by the ensemble.

    Candidate ~ Normal(position_j, gamma^2 * C) where C is the covariance of
    the other chains.  The proposal is symmetric, so acceptance is the plain
    Metropolis ratio.  Returns ``(new_position, accepted)``.
    """
    return _single_update("gaussian", target, state, j, gamma, None, None, rng)


def de_trajectory_count(m: int) -> int:
    """Distinct difference-vector pairs, ignoring order: (m-1)(m-2)/2."""
    if m < MIN_CHAINS["de"]:
        raise ValueError(f"difference moves need at least {MIN_CHAINS['de']} chains")
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
    """Run ``n_sweeps`` sequential sweeps of an ensemble sampler.

    Within a sweep, chains update in ascending order and each sees the
    others' latest positions.  Chains start at ``theta0``, of shape (d,)
    (default the origin) or (m, d) for one point per chain, plus unit
    Gaussian jitter, since identical starts would give the covariance moves
    zero steps.  ``gamma`` (gaussian and de) must be finite and defaults to
    ``DEFAULT_DELTA[method] / sqrt(d)``, ``law`` (stretch) to
    ``StretchLaw()``, and ``jitter_sd`` is de's constant jitter, as in
    ``de_step``.  An argument the move does not read raises ``ValueError``.
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
    # the other chains, which is all of R^d only from d + 2 chains on
    shaped = method == "gaussian" or (method == "de" and jitter_sd is None)
    if shaped and m < d + 2:
        warnings.warn(
            f"covariance proposals want m >= d + 2 chains (m={m}, d={d}); "
            "their steps stay in the span of the other chains",
            RuntimeWarning,
            stacklevel=2,
        )
    positions = theta0 + rng.standard_normal((m, d))
    starts = positions.copy()
    # one cached log density per chain: each update evaluates the target
    # at its candidate only
    lp = [_checked(float(target.log_density(x)), x) for x in positions]
    history = np.empty((n_sweeps, m, d))
    accepted = np.empty((n_sweeps, m), dtype=bool)
    rows = np.arange(m)
    rate = 1.0
    for sweep in range(n_sweeps):
        _sweep(method, target, positions, rows, lp, gamma, law, jitter_sd, rng,
               accepted[sweep], rate)
        history[sweep] = positions
        rate = np.count_nonzero(accepted[sweep]) / m
    return EnsembleState(positions, history, accepted, starts)
