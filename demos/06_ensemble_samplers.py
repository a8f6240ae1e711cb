"""Three ways to let an ensemble tune its own proposals.

Many chains run together: each one proposes using the others' current
positions, either through their covariance (scaled Gaussian), through a
difference vector plus jitter, or through a stretch along the line to one
partner.  The first two shrink with dimension automatically; the stretch
move cannot, and its acceptance decays as d grows.
"""

import numpy as np

from mcmclab.diagnostics import per_coordinate_tau
from mcmclab.ensemble import de_trajectory_count, run_ensemble
from mcmclab.seeding import derive_rng
from mcmclab.targets import IsotropicGaussianTarget

m, sweeps = 60, 400
print(f"ensembles of m={m} chains, {sweeps} sweeps, isotropic Gaussian targets\n")

print(f"{'d':>4} {'gaussian':>9} {'difference':>11} {'stretch':>8}")
for d in (2, 5, 10):
    accs = {}
    for method in ("gaussian", "de", "stretch"):
        state = run_ensemble(
            method, IsotropicGaussianTarget(d, 1.0), m=m, n_sweeps=sweeps,
            rng=derive_rng(88, "demo-ens", method, d),
        )
        accs[method] = state.acceptance_fraction()
    print(f"{d:>4} {accs['gaussian']:9.3f} {accs['de']:11.3f} {accs['stretch']:8.3f}")

print("\nmixing at d=5: mean per-chain autocorrelation time per method")
d = 5
for method in ("gaussian", "de", "stretch"):
    state = run_ensemble(
        method, IsotropicGaussianTarget(d, 1.0), m=m, n_sweeps=sweeps,
        rng=derive_rng(88, "demo-ens-tau", method),
    )
    # history is rebuilt from the accepted moves on each read: read it once
    history = state.history[sweeps // 4:]
    taus = []
    for j in range(0, m, 10):
        ests = per_coordinate_tau(history[:, j, :])
        taus.append(np.mean([e.tau for e in ests]))
    print(f"  {method:>8}: tau ~ {np.mean(taus):5.1f} sweeps")

print(f"\ndistinct difference trajectories of a single-chain step with m=60 chains: "
      f"{de_trajectory_count(60)} (vs only {60 - 1} stretch directions);")
print(f"a run_ensemble chain draws from the other half of {60 // 2} chains instead.")
print("the stretch move trades tuning knobs for a fixed [1/a, a] step range,")
print("which is exactly what stops shrinking when the shell does.")
