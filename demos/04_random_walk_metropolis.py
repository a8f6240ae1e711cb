"""Random-walk Metropolis on the 2-D Gaussian, start to diagnostics.

Generates a chain, shows what a bad starting point does to short runs,
trims burn-in, estimates the autocorrelation time and effective sample
size, and recovers the evidence from the chain's own histogram density.
"""

import numpy as np

from mcmclab.diagnostics import (
    chain_ess,
    evidence_from_chain,
    integrated_autocorr_time,
    per_coordinate_tau,
)
from mcmclab.harness import default_evidence_histogram, exercise_2d_target
from mcmclab.mh import GaussianRandomWalk, acceptance_fraction, drop_burn_in, run_chain
from mcmclab.seeding import derive_rng
from mcmclab.summaries import DiscretizedPosterior, percentile_interval

target = exercise_2d_target()
proposal = GaussianRandomWalk(1.0)

chain = run_chain(target, proposal, np.zeros(2), 10_000,
                  derive_rng(31, "demo-mh", "origin"))
kept = drop_burn_in(chain, 0.2)
print(f"acceptance fraction: {acceptance_fraction(chain):.3f}")

taus = per_coordinate_tau(kept.states)
print(f"tau per coordinate : {taus[0].tau:.1f}, {taus[1].tau:.1f}")
print(f"chain ESS          : {chain_ess(kept.states):.0f} of {len(kept)} kept samples")

for axis, (name, true_mean) in enumerate((("x", -0.3), ("y", 0.8))):
    series = kept.states[:, axis]
    post = DiscretizedPosterior.from_samples(series)
    lo, hi = percentile_interval(post, 0.68)
    print(f"mean_{name} = {series.mean():+.3f} (truth {true_mean:+.1f}), "
          f"68% interval [{lo:+.3f}, {hi:+.3f}]")

hd = default_evidence_histogram(kept.states)
z = evidence_from_chain(target, kept.states, hd)
print(f"evidence from chain: {z:.4f} vs 2*pi = {2 * np.pi:.4f}\n")

print("the same chain started at (10, 10):")
far = run_chain(target, proposal, np.array([10.0, 10.0]), 1000,
                derive_rng(31, "demo-mh", "far"))
for i in (0, 25, 50, 100, 200, 400, 800, 999):
    x, y = far.states[i]
    print(f"  step {i:4d}: ({x:+7.3f}, {y:+7.3f})")
raw_mean = far.states[:, 0].mean()
trimmed_mean = drop_burn_in(far, 0.2).states[:, 0].mean()
print(f"mean_x raw {raw_mean:+.3f} vs burn-in trimmed {trimmed_mean:+.3f} "
      "(truth -0.3): the first steps remember the start, not the target")

tau_far = integrated_autocorr_time(far.states[:, 0])
print(f"tau from the short run: {tau_far.tau:.1f} "
      f"(window {tau_far.window}, truncated={tau_far.truncated})")
