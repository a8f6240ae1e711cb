"""Single-chain Metropolis-Hastings.

The accept/reject decision is made in log space (accept iff
``log u <= min(0, dlogp + dlogq)``), and a uniform variate is drawn for
every step, even when acceptance is certain, so that random streams stay
aligned across proposal variants.  A random-walk chain draws in two
blocks: all of its steps first, then all of its uniforms.  Any other
proposal draws its candidate and then its uniform step by step.

A rejected proposal moves nothing, so while a random-walk chain sits
still, the candidate of step ``i`` is already known: ``current +
steps[i]``.  The chain updates in rejection runs, the rejection branch of
pre-fetching (Brockwell 2006), in segments of 256 steps.  A run takes
``K = _batch_size(rate)`` steps, about ``2 / rate`` and at most 256, and
stops at the end of its segment; ``rate`` is the acceptance of the segment
before, 1.0 for the first.  A run evaluates its candidates in one
``log_density_many`` call and decides them in order until the first
accept; the rows after it are discarded unchecked, and the next run starts
at the step after the accept.  The chain, its flags and its stream equal
one-at-a-time evaluation bit for bit.  A target whose ``log_density_many``
was not written with its ``log_density`` runs with ``K = 1``, one
``log_density`` call per step.  A ``-inf`` candidate is rejected, and a
NaN or ``+inf`` log density breaks the target contract and raises
``NumericalError``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .targets import (
    _checked, _checked_rows, _log_density_rows, _rows_agree, log_unnorm_density,
)

__all__ = [
    "MarkovProposal",
    "GaussianRandomWalk",
    "Chain",
    "transition_probability",
    "mh_step",
    "run_chain",
    "acceptance_fraction",
    "drop_burn_in",
]


class MarkovProposal:
    """Contract for a conditional proposal ``Q(to | from)``.

    ``propose(current, rng)`` draws a candidate; ``log_q(from_, to)``
    evaluates the conditional log density.  When ``symmetric`` is true the
    Hastings correction is identically zero and ``log_q`` is never needed
    by the sampler.  A symmetric random walk whose steps do not depend on
    the state may also define ``steps(n, d, rng)``, the ``(n, d)`` steps of
    an ``n``-step chain; ``run_chain`` then draws them all at once.
    """

    symmetric: bool = False

    def propose(self, current: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def log_q(self, from_, to) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianRandomWalk(MarkovProposal):
    """Isotropic Gaussian step: candidate = current + scale * z, z ~ N(0, I)."""

    scale: float
    symmetric = True

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def propose(self, current, rng):
        return current + self.scale * rng.standard_normal(current.shape)

    def steps(self, n, d, rng):
        """``n`` steps in one draw: ``scale * standard_normal((n, d))``."""
        out = rng.standard_normal((n, d))
        out *= self.scale
        return out

    def log_q(self, from_, to):
        z = (np.asarray(to, float) - np.asarray(from_, float)) / self.scale
        d = z.size
        return float(
            -0.5 * z @ z - d * np.log(self.scale) - 0.5 * d * np.log(2 * np.pi)
        )


@dataclass(frozen=True)
class Chain:
    """An ordered Metropolis-Hastings sample path.

    ``states[i]`` is the position after step ``i``; ``accepted[i]`` records
    whether that step's proposal was taken.  A rejected step repeats the
    previous state bit for bit.  ``start`` is the state the first step was
    proposed from.
    """

    states: np.ndarray    # (n, d)
    accepted: np.ndarray  # (n,) bool
    start: np.ndarray     # (d,)

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        accepted = np.asarray(self.accepted, dtype=bool)
        if accepted.shape != (states.shape[0],):
            raise ValueError("accepted must have one flag per state")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "accepted", accepted)
        object.__setattr__(
            self, "start", np.asarray(self.start, dtype=float).ravel()
        )

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _hastings_log_ratio(proposal, current, candidate) -> float:
    if getattr(proposal, "symmetric", False):
        return 0.0
    return proposal.log_q(candidate, current) - proposal.log_q(current, candidate)


def _log_accept_prob(lp_current, lp_candidate, candidate, log_correction=0.0) -> float:
    """The Metropolis accept rule: ``log min(1, T)`` for one proposed move.

    ``T`` is the density ratio times ``exp(log_correction)`` (the Hastings
    ratio, or the stretch move's volume factor).  A ``-inf`` candidate has
    probability 0; a NaN or ``+inf`` one raises ``NumericalError``.
    """
    if lp_candidate == -math.inf:
        return -math.inf
    log_t = (_checked(lp_candidate, candidate) - lp_current) + log_correction
    return 0.0 if log_t > 0.0 else log_t


def _accepts(lp_current, lp_candidate, candidate, log_correction, log_u) -> bool:
    """Whether the move is taken for the uniform ``u``: ``log u <= log min(1, T)``."""
    log_a = _log_accept_prob(lp_current, lp_candidate, candidate, log_correction)
    return log_a > -math.inf and log_u <= log_a


def _accept_rows(lp_current, lp_candidate, candidates, log_correction, log_u) -> np.ndarray:
    """``_accepts`` for each row of arrays, in the same operations: one flag per row.

    A ``-inf`` candidate is rejected; the first NaN or ``+inf`` one in row
    order raises ``NumericalError``, naming its row of ``candidates``.
    """
    _checked_rows(lp_candidate, candidates)
    with np.errstate(invalid="ignore"):  # -inf - -inf, at a rejected row
        log_t = (lp_candidate - lp_current) + log_correction
    log_a = np.where(lp_candidate == -math.inf, -math.inf, np.where(log_t > 0.0, 0.0, log_t))
    return (log_a > -math.inf) & (log_u <= log_a)


def _start_log_density(target, point) -> float:
    """Checked log density of the point a chain moves from, inside the support."""
    lp = _checked(log_unnorm_density(target, point), point)
    if np.isneginf(lp):
        raise ValueError("chain point has zero density; chains must stay in support")
    return lp


def transition_probability(target, proposal, current, candidate) -> float:
    """Metropolis-Hastings acceptance probability for one proposed move.

    The chain must currently sit inside the support; a candidate at zero
    density is accepted with probability 0.
    """
    current = np.asarray(current, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    lp_current = _start_log_density(target, current)
    lp_candidate = log_unnorm_density(target, candidate)
    log_a = _log_accept_prob(
        lp_current, lp_candidate, candidate,
        _hastings_log_ratio(proposal, current, candidate),
    )
    return float(np.exp(log_a))


# Rejection runs go in segments of _SEGMENT updates; each segment takes its
# run length from the acceptance of the one before.
_SEGMENT = 256


def _batch_size(rate: float) -> int:
    return _SEGMENT if rate * _SEGMENT <= 2.0 else max(2, int(2.0 / rate))


def _scalar_steps(target, proposal, start, lp, n, rng):
    """``(states, accepted)`` of a proposal without a ``steps`` hook, one step at a time.

    Each step draws its candidate, then its uniform.
    """
    states = np.empty((n, start.size))
    accepted = np.zeros(n, dtype=bool)
    current = start
    for i in range(n):
        candidate = proposal.propose(current, rng)
        log_correction = _hastings_log_ratio(proposal, current, candidate)
        log_u = np.log(rng.random())
        lp_candidate = float(target.log_density(candidate))
        if _accepts(lp, lp_candidate, candidate, log_correction, log_u):
            current, lp = candidate, lp_candidate
            accepted[i] = True
        states[i] = current
    return states, accepted


def _run_steps(target, proposal, start, lp, n, rng):
    """``(states, accepted)`` of ``n`` MH steps from ``start``, whose log density is ``lp``.

    With a ``steps`` hook, all steps are drawn first, into ``states`` (row
    ``i`` holds step ``i`` until the state after step ``i`` overwrites it),
    then all uniforms, and the steps run in rejection runs (module
    docstring).  Otherwise they go one at a time (``_scalar_steps``).
    """
    steps = getattr(proposal, "steps", None)
    if steps is None:
        return _scalar_steps(target, proposal, start, lp, n, rng)
    states = steps(n, start.size, rng)
    # a memoryview yields Python floats without holding n float objects
    log_us = memoryview(np.log(rng.random(n)))
    accepted = np.zeros(n, dtype=bool)
    rows = _log_density_rows(target)
    agree = _rows_agree(target)
    current, last, rate = start, 0, 1.0
    for lo in range(0, n, _SEGMENT):
        hi = min(lo + _SEGMENT, n)
        k = _batch_size(rate) if agree else 1
        i, taken = lo, 0
        while i < hi:
            stop = min(i + k, hi)
            candidates = current + states[i:stop]
            # indexing, not a zip: this loop runs once per step
            for j, lp_candidate in enumerate(rows(candidates).tolist()):
                if _accepts(lp, lp_candidate, candidates[j], 0.0, log_us[i + j]):
                    stop = i + j + 1
                    states[last:stop - 1] = current
                    current, lp = candidates[j], lp_candidate
                    states[stop - 1] = current
                    accepted[stop - 1] = True
                    last = stop
                    taken += 1
                    break
            i = stop
        rate = taken / (hi - lo)
    states[last:] = current
    return states, accepted


def mh_step(target, proposal, current, rng):
    """Propose once and accept or reject; returns ``(next_point, accepted)``.

    On rejection the returned point is the current one, unchanged.
    """
    current = np.asarray(current, dtype=float)
    lp_current = _start_log_density(target, current)
    states, accepted = _run_steps(target, proposal, current, lp_current, 1, rng)
    return states[0], bool(accepted[0])


def run_chain(target, proposal, theta0, n: int, rng) -> Chain:
    """Generate an ``n``-step chain from ``theta0``.

    Deterministic for a fixed generator state; acceptance is recorded per
    step.  ``theta0`` must have positive density.  A proposal with a
    ``steps`` hook (``GaussianRandomWalk``) has the chain's steps and then
    its uniforms drawn in one block each.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    theta0 = np.asarray(theta0, dtype=float).ravel()
    lp = _start_log_density(target, theta0)
    states, accepted = _run_steps(target, proposal, theta0, lp, n, rng)
    return Chain(states=states, accepted=accepted, start=theta0)


def acceptance_fraction(chain: Chain) -> float:
    """Fraction of steps whose proposal was accepted."""
    if len(chain) == 0:
        raise ValueError("chain is empty")
    return float(chain.accepted.mean())


def drop_burn_in(chain: Chain, fraction: float) -> Chain:
    """Remove the leading ``floor(fraction * n)`` states.

    The remaining states keep their order and flags; the new ``start`` is
    the last discarded state so the step-to-step invariants still hold.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("burn-in fraction must be in [0, 1)")
    n = len(chain)
    k = int(np.floor(fraction * n))
    if k == 0:
        return chain
    return Chain(
        states=chain.states[k:].copy(),
        accepted=chain.accepted[k:].copy(),
        start=chain.states[k - 1].copy(),
    )
