"""Single-chain Metropolis-Hastings.

The accept/reject decision is made in log space (accept iff
``log u <= min(0, dlogp + dlogq)``), and a uniform variate is drawn for
every step, even when acceptance is certain, so that random streams stay
aligned across proposal variants.  A random-walk chain draws in two
blocks: all of its steps first, then all of its uniforms.  Any other
proposal draws its candidate and then its uniform step by step.

Step ``i`` of a random-walk chain proposes ``current + steps[i]`` whatever
came before, so while the chain sits still its next candidates are known.
The chain runs in segments of 256 steps.  After a segment that accepted
under 38% of its steps, the next one pre-fetches: one ``log_density_many``
call evaluates about ``2 / rate`` candidates (at most 256) from the current
state, and they are decided in order until the first accept; the rows after
it are discarded unchecked.  This is the rejection branch of pre-fetching
(Brockwell 2006), and the chain, its flags and its stream equal the scalar
loop's bit for bit.  The first segment, and any after a busier one, take
one ``log_density`` call per step, as does a target whose
``log_density_many`` was not written with its ``log_density``.  The loop
that walks a batch to its first accept (``_first_accept``) is shared with
the ensemble's walk-move sweeps, which run the same way, and so is the
batch size rule.  The same accept rule drives the ensemble samplers: a
``-inf`` candidate is rejected, and a NaN or ``+inf`` log density breaks
the target contract and raises ``NumericalError``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .targets import _checked, _log_density_rows, _rows_agree, log_unnorm_density

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


# A random-walk chain runs in segments of _SEGMENT steps.  A segment whose
# predecessor accepted under _SCALAR_RATE of its steps is pre-fetched in
# batches of about 2 / rate candidates, at most _SEGMENT; the first segment,
# and any after a busier one, take one step at a time.
_SEGMENT = 256
_SCALAR_RATE = 0.38


def _batch_size(rate: float) -> int:
    return _SEGMENT if rate * _SEGMENT <= 2.0 else max(2, int(2.0 / rate))


def _first_accept(lps, lp_candidates, candidates, log_us):
    """Offset of the first accepted row of a batch of candidates, or None.

    Row ``j`` moves from log density ``lps[j]`` to ``candidates[j]``, of log
    density ``lp_candidates[j]``, with uniform ``log_us[j]``.  The rows are
    decided in order with ``_accepts``, so a NaN or ``+inf`` at a reached row
    raises for its point; the rows after the first accept are never checked.
    This is the run loop of every rejection run: a rejected row changes no
    state, so a batch is exact up to its first accept.
    """
    for j, lp_candidate in enumerate(lp_candidates):
        if _accepts(lps[j], lp_candidate, candidates[j], 0.0, log_us[j]):
            return j
    return None


def _scalar_steps(target, proposal, states, log_us, accepted, current, lp, lo, hi, rng):
    """Steps ``lo`` to ``hi``, one target evaluation each; the new ``(current, lp)``.

    ``log_us`` is None for a proposal without a ``steps`` hook: each step
    then draws its candidate, then its uniform.
    """
    for i in range(lo, hi):
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
    return current, lp


def _prefetched_steps(rows, states, log_us, accepted, current, lp, lo, hi, k):
    """Random-walk steps ``lo`` to ``hi`` in batches of ``k``; the new ``(current, lp)``.

    A batch evaluates the candidates ``current + states[i:i + k]`` in one
    ``rows`` call and decides them with ``_first_accept``.  The rows before
    the first accept repeat ``current``; the rows after it are discarded
    unchecked, as the scalar loop never reaches them, and the next batch
    starts at the step after the accept.  ``accepted`` must hold False.
    """
    i = lo
    while i < hi:
        stop = min(i + k, hi)
        candidates = current + states[i:stop]
        lp_candidates = rows(candidates).tolist()
        j = _first_accept([lp] * (stop - i), lp_candidates, candidates, log_us[i:stop])
        if j is None:
            states[i:stop] = current
            i = stop
        else:
            states[i:i + j] = current
            current, lp = candidates[j], lp_candidates[j]
            states[i + j] = current
            accepted[i + j] = True
            i += j + 1
    return current, lp


def _run_steps(target, proposal, start, lp, n, rng):
    """``(states, accepted)`` of ``n`` MH steps from ``start``, whose log density is ``lp``.

    With a ``steps`` hook, all steps are drawn first, into ``states`` (row
    ``i`` holds step ``i`` until the state after step ``i`` overwrites it),
    then all uniforms, and a segment of steps after a low acceptance is
    pre-fetched (``_prefetched_steps``) when ``target.log_density_many``
    agrees with its ``log_density``.  The chain equals the scalar loop's
    bit for bit.  Otherwise each step draws its candidate, then its
    uniform.
    """
    accepted = np.zeros(n, dtype=bool)
    steps = getattr(proposal, "steps", None)
    if steps is None:
        states = np.empty((n, start.size))
        _scalar_steps(target, proposal, states, None, accepted, start, lp, 0, n, rng)
        return states, accepted
    states = steps(n, start.size, rng)
    # a memoryview yields Python floats without holding n float objects
    log_us = memoryview(np.log(rng.random(n)))
    rows = _log_density_rows(target) if _rows_agree(target) else None
    current, rate = start, 1.0
    for lo in range(0, n, _SEGMENT):
        hi = min(lo + _SEGMENT, n)
        if rows is not None and rate < _SCALAR_RATE:
            current, lp = _prefetched_steps(
                rows, states, log_us, accepted, current, lp, lo, hi, _batch_size(rate)
            )
        else:
            current, lp = _scalar_steps(
                target, proposal, states, log_us, accepted, current, lp, lo, hi, rng
            )
        rate = np.count_nonzero(accepted[lo:hi]) / (hi - lo)
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
