"""Single-chain Metropolis-Hastings, and the accept rule of every sampler.

One rule, ``_accepts``, decides every move of every sampler, one on floats
or one per row on arrays: accept iff ``log T > -inf`` and ``log u <= log
T``, where ``log T = dlogp + dlogq`` (or the stretch move's volume factor
for ``dlogq``).  Callers pass checked log densities, since NaN or ``+inf``
raises ``NumericalError``, and chains start inside the support
(``_start_log_densities``), so the current log density is finite.  A
uniform variate is drawn for every step, even when acceptance is certain,
so that random streams stay aligned across proposal variants.  A
random-walk chain draws in two blocks: all of its steps first, then all of
its uniforms.  Any other proposal draws its candidate and then its uniform
step by step.

A rejected proposal moves nothing, so while a random-walk chain sits
still, the candidate of step ``i`` is already known: ``current +
steps[i]``.  The chain updates in rejection runs, the rejection branch of
pre-fetching (Brockwell 2006), in segments of 256 steps.  A run takes
``K = _batch_size(rate)`` steps, about ``2 / rate`` and at most 256, and
stops at the end of its segment; ``rate`` is the acceptance of the segment
before, 1.0 for the first.  A run costs one batch call, ``log_density_many``
on its candidates, and decides them in order until the first accept; the
rows after it are discarded unchecked, and the next run starts at the step
after the accept.  A decided row costs one comparison and one ``_accepts``:
only a value that is not below ``+inf`` goes to ``_checked``, which raises.
The chain, its flags and its stream equal one-at-a-time evaluation bit for
bit.  A target whose ``log_density_many`` was not written with its
``log_density`` runs with ``K = 1``, one ``log_density`` call per step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .targets import (
    _checked, _log_densities, _log_density_rows, _points, _rows_agree, log_unnorm_density,
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
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

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
        states = _points(self.states, name="states")
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


def _accepts(lp_current, lp_candidate, log_correction, log_u):
    """The Metropolis accept rule: whether ``log u <= log min(1, T)`` takes the move.

    ``T`` is the density ratio times ``exp(log_correction)`` (the Hastings
    ratio, or the stretch move's volume factor).  The caller passes checked
    log densities, ``lp_current`` finite, and ``log_u <= 0``, so the ``min``
    changes no flag; a ``-inf`` candidate is rejected.  The same body
    decides one move on floats and one move per row on arrays.
    """
    log_t = (lp_candidate - lp_current) + log_correction
    return (log_t > -math.inf) & (log_u <= log_t)


def _start_log_densities(target, points) -> np.ndarray:
    """Checked log densities of the ``(m, d)`` points that ``m`` chains start from.

    One ``_log_densities`` call evaluates them all, and NaN or ``+inf``
    raises ``NumericalError`` naming the first bad point.  A wrong length
    ``d`` and a start of zero density raise ``ValueError``: chains start
    inside the support.
    """
    lp = _log_densities(target, points)
    outside = np.flatnonzero(lp == -math.inf)
    if outside.size:
        raise ValueError(f"chain {outside[0]} sits at zero density; chains must stay in support")
    return lp


def transition_probability(target, proposal, current, candidate) -> float:
    """Metropolis-Hastings acceptance probability for one proposed move.

    The chain must currently sit inside the support; a candidate at zero
    density is accepted with probability 0.
    """
    current = np.asarray(current, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    lp_current = _start_log_densities(target, current.reshape(1, -1))[0]
    lp_candidate = _checked(log_unnorm_density(target, candidate), candidate)
    log_t = (lp_candidate - lp_current) + _hastings_log_ratio(proposal, current, candidate)
    return math.exp(min(log_t, 0.0))


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
        lp_candidate = _checked(float(target.log_density(candidate)), candidate)
        if _accepts(lp, lp_candidate, log_correction, log_u):
            current, lp = candidate, lp_candidate
            accepted[i] = True
        states[i] = current
    return states, accepted


def _run_steps(target, proposal, start, lp, n, rng):
    """``(states, accepted)`` of ``n`` MH steps from ``start``, whose log density is ``lp``.

    With a ``steps`` hook, all steps are drawn first, into ``states`` (row
    ``i`` holds step ``i`` until the next accept writes the state after step
    ``i`` there), then all uniforms, and the steps run in rejection runs
    (module docstring).  Otherwise they go one at a time (``_scalar_steps``).
    """
    steps = getattr(proposal, "steps", None)
    if steps is None:
        return _scalar_steps(target, proposal, start, lp, n, rng)
    states = steps(n, start.size, rng)
    # a memoryview yields Python floats without holding n float objects
    log_us = memoryview(np.log(rng.random(n)))
    accepted = np.zeros(n, dtype=bool)
    agree = _rows_agree(target)
    rows = _log_density_rows(target)
    # the states after steps last.. are current: the next accept or the end fills them
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
                if not lp_candidate < math.inf:
                    _checked(lp_candidate, candidates[j])
                if _accepts(lp, lp_candidate, 0.0, log_us[i + j]):
                    stop = i + j + 1
                    states[last:stop - 1] = current
                    current, lp, last = candidates[j], lp_candidate, stop - 1
                    accepted[last] = True
                    taken += 1
                    break
            i = stop
        rate = taken / (hi - lo)
    states[last:] = current
    return states, accepted


def mh_step(target, proposal, current, rng):
    """Propose once and accept or reject; returns ``(next_point, accepted)``.

    On rejection the returned point is the current one, unchanged.  It is
    the first step of ``run_chain`` from ``current``.
    """
    chain = run_chain(target, proposal, current, 1, rng)
    return chain.states[0], bool(chain.accepted[0])


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
    lp = float(_start_log_densities(target, theta0[None])[0])
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
