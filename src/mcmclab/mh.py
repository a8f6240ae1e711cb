"""Single-chain Metropolis-Hastings.

The accept/reject decision is made in log space (accept iff
``log u <= min(0, dlogp + dlogq)``), and a uniform variate is drawn for
every step, even when acceptance is certain, so that random streams stay
aligned across proposal variants.  A random-walk chain draws in two
blocks: all of its steps first, then all of its uniforms.  Any other
proposal draws its candidate and then its uniform step by step.  The same
rule drives the ensemble samplers: a ``-inf`` candidate is rejected, and a
NaN or ``+inf`` log density breaks the target contract and raises
``NumericalError``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .targets import _checked, log_unnorm_density

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


def transition_probability(target, proposal, current, candidate) -> float:
    """Metropolis-Hastings acceptance probability for one proposed move.

    The chain must currently sit inside the support; a candidate at zero
    density is accepted with probability 0.
    """
    current = np.asarray(current, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    lp_current = _checked(log_unnorm_density(target, current), current)
    if np.isneginf(lp_current):
        raise ValueError("current state has zero density; chains must stay in support")
    lp_candidate = log_unnorm_density(target, candidate)
    log_a = _log_accept_prob(
        lp_current, lp_candidate, candidate,
        _hastings_log_ratio(proposal, current, candidate),
    )
    return float(np.exp(log_a))


def _run_steps(target, proposal, start, lp, n, rng):
    """``(states, accepted)`` of ``n`` MH steps from ``start``, whose log density is ``lp``.

    With a ``steps`` hook, all steps are drawn first, into ``states`` (row
    ``i`` holds step ``i`` until the state after step ``i`` overwrites it),
    then all uniforms.  Otherwise each step draws its candidate, then its
    uniform.
    """
    steps = getattr(proposal, "steps", None)
    if steps is None:
        states, log_us = np.empty((n, start.size)), None
    else:
        states = steps(n, start.size, rng)
        # a memoryview yields Python floats without holding n float objects
        log_us = memoryview(np.log(rng.random(n)))
    accepted = np.empty(n, dtype=bool)
    current = start
    for i in range(n):
        if log_us is None:
            candidate = proposal.propose(current, rng)
            log_correction = _hastings_log_ratio(proposal, current, candidate)
            log_u = np.log(rng.random())
        else:
            candidate = current + states[i]
            log_correction, log_u = 0.0, log_us[i]
        lp_candidate = float(target.log_density(candidate))
        acc = _accepts(lp, lp_candidate, candidate, log_correction, log_u)
        if acc:
            current, lp = candidate, lp_candidate
        states[i] = current
        accepted[i] = acc
    return states, accepted


def mh_step(target, proposal, current, rng):
    """Propose once and accept or reject; returns ``(next_point, accepted)``.

    On rejection the returned point is the current one, unchanged.
    """
    current = np.asarray(current, dtype=float)
    lp_current = _checked(log_unnorm_density(target, current), current)
    if np.isneginf(lp_current):
        raise ValueError("current state has zero density; chains must stay in support")
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
    lp = _checked(log_unnorm_density(target, theta0), theta0)
    if np.isneginf(lp):
        raise ValueError("theta0 has zero density; start chains inside the support")
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
