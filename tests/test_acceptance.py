"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured values.  Every criterion is seeded and deterministic.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from mcmclab.diagnostics import (
    chain_ess,
    evidence_from_chain,
    integrated_autocorr_time,
    kish_ess,
)
from mcmclab.grid import GridSpec, build_grid, grid_evidence
from mcmclab.harness import (
    ExperimentConfig,
    default_evidence_histogram,
    exercise_2d_target,
    noisy_mean_model,
    run_scaling,
    scaling_csv_text,
    write_scaling_csv,
)
from mcmclab.importance import DiagonalGaussianProposal, draw_iid, importance_weights, is_evidence, is_expectation
from mcmclab.mh import GaussianRandomWalk, acceptance_fraction, drop_burn_in, run_chain
from mcmclab.seeding import derive_rng
from mcmclab.summaries import DiscretizedPosterior, LossSpec, point_estimate
from mcmclab.targets import IsotropicGaussianTarget, shell_stats
from test_mh import ThreeState, UniformThreeState, three_state_transition_matrix
from test_targets import conjugate_posterior


def _line(num, name, ok, notes=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({notes})" if notes else ""
    print(f"[criterion {num:02d}] {name}: {status}{extra}")


def _stretch_equilibrium_acceptance(d, a, rng, n_draws=200_000, chunk=50_000):
    """Monte Carlo value of the stretch move's acceptance at equilibrium.

    With the walker x_j and its partner x_k both iid N(0, I_d) and
    z ~ z**(-1/2) on [1/a, a], the acceptance is
    E[min(1, z**(d-1) pi(x_k + z (x_j - x_k)) / pi(x_j))].  Written with
    plain numpy, independently of ``mcmclab.ensemble``.
    """
    total = 0.0
    for start in range(0, n_draws, chunk):
        size = min(chunk, n_draws - start)
        x_j = rng.standard_normal((size, d))
        x_k = rng.standard_normal((size, d))
        z = ((a - 1.0) * rng.random(size) + 1.0) ** 2 / a
        y = x_k + z[:, None] * (x_j - x_k)
        log_ratio = (d - 1) * np.log(z) - 0.5 * (
            np.einsum("ij,ij->i", y, y) - np.einsum("ij,ij->i", x_j, x_j)
        )
        total += np.exp(np.minimum(0.0, log_ratio)).sum()
    return total / n_draws


class TestAcceptance:
    def test_criterion_01_conjugate_oracle_match(self):
        ok, notes = False, {}
        t0 = time.perf_counter()
        try:
            oracle_mean, oracle_sd = conjugate_posterior(
                noisy_mean_model().observations, 25.0, 1.5
            )
            assert oracle_mean == pytest.approx(29.44, abs=0.005)
            assert oracle_sd == pytest.approx(0.396, abs=0.001)

            # (a) dense grid
            model = noisy_mean_model()
            cells = build_grid(GridSpec.regular([(10.0, 50.0)], 10_000))
            post = DiscretizedPosterior.from_grid(model, cells)
            grid_mean = point_estimate(post, LossSpec.squared())
            grid_sd = float(np.sqrt((post.points - grid_mean) ** 2 @ post.masses))
            assert grid_mean == pytest.approx(29.44, abs=0.01)
            assert grid_sd == pytest.approx(0.396, abs=0.005)

            # (b) long chain, judged against its own Monte Carlo error
            rng = derive_rng(2026, "acceptance", "noisy-mean-chain")
            chain = run_chain(model, GaussianRandomWalk(1.0), np.array([25.0]),
                              100_000, rng)
            kept = drop_burn_in(chain, 0.2).states[:, 0]
            tau = integrated_autocorr_time(kept).tau
            n_eff = kept.size / (1.0 + tau)
            se_mean = kept.std(ddof=1) / np.sqrt(n_eff)
            se_sd = kept.std(ddof=1) / np.sqrt(2.0 * n_eff)
            assert abs(kept.mean() - oracle_mean) < 4.0 * se_mean
            assert abs(kept.std(ddof=1) - oracle_sd) < 4.0 * se_sd

            elapsed = time.perf_counter() - t0
            notes = (
                f"grid mean={grid_mean:.4f} sd={grid_sd:.4f}; "
                f"chain mean={kept.mean():.4f}+-{se_mean:.4f}; {elapsed:.1f}s"
            )
            assert elapsed < 10.0
            ok = True
        finally:
            _line(1, "noisy-mean conjugate oracle", ok, notes)

    def test_criterion_02_evidence_convergence(self):
        ok, notes = False, ""
        t0 = time.perf_counter()
        try:
            target = exercise_2d_target()
            truth = 2.0 * np.pi

            z_grid = grid_evidence(
                target, build_grid(GridSpec.regular([(-8.0, 8.0)] * 2, 200))
            )
            assert z_grid == pytest.approx(truth, rel=0.01)

            proposal = DiagonalGaussianProposal((0.0, 0.0), (1.0, 1.0))
            estimates = []
            for rep in range(100):
                rng = derive_rng(2026, "acceptance", "is-evidence", rep)
                ws = importance_weights(
                    target, proposal, draw_iid(proposal, 10_000, rng)
                )
                estimates.append(is_evidence(ws))
            estimates = np.asarray(estimates)
            se = estimates.std(ddof=1) / np.sqrt(estimates.size)
            assert abs(estimates.mean() - truth) < 3.0 * se

            rng = derive_rng(2026, "acceptance", "chain-evidence")
            chain = run_chain(target, GaussianRandomWalk(1.0), np.zeros(2),
                              10_000, rng)
            samples = drop_burn_in(chain, 0.2).states
            hd = default_evidence_histogram(samples)
            z_chain = evidence_from_chain(target, samples, hd)
            assert z_chain == pytest.approx(truth, rel=0.25)

            elapsed = time.perf_counter() - t0
            notes = (
                f"grid={z_grid:.4f}, IS={estimates.mean():.4f}+-{se:.4f}, "
                f"chain={z_chain:.4f} vs 2pi={truth:.4f}; {elapsed:.1f}s"
            )
            assert elapsed < 60.0
            ok = True
        finally:
            _line(2, "2-D evidence by grid / IS / chain histogram", ok, notes)

    def test_criterion_03_fixed_proposal_scaling_law(self):
        ok, notes = False, ""
        t0 = time.perf_counter()
        try:
            # replicate-averaged acceptance: a single slowly-mixing chain at
            # d=20 measures its own excursion, not the law
            cfg = ExperimentConfig(
                "scaling", sampler="mh-fixed", dims=(2, 5, 10, 20),
                n=20_000, replicates=4, seed=2026,
            )
            rows = run_scaling(cfg)
            accs = {
                d: float(np.mean([r.acceptance_fraction for r in rows if r.dim == d]))
                for d in cfg.dims
            }
            for d, acc in accs.items():
                law = np.exp(-d / 4.0 - 0.5)
                assert law / 2.0 <= acc <= law * 2.0, (d, acc, law)
            ordered = [accs[d] for d in (2, 5, 10, 20)]
            assert all(a > b for a, b in zip(ordered, ordered[1:]))
            elapsed = time.perf_counter() - t0
            notes = (
                "acc=" + ", ".join(f"d{d}:{accs[d]:.4f}" for d in (2, 5, 10, 20))
                + f"; {elapsed:.1f}s"
            )
            assert elapsed < 120.0
            ok = True
        finally:
            _line(3, "fixed-scale acceptance tracks exp(-d/4 - 1/2)", ok, notes)

    def test_criterion_04_adaptive_proposal_scaling(self):
        ok, notes = False, ""
        t0 = time.perf_counter()
        try:
            cfg = ExperimentConfig(
                "scaling", sampler="mh-adaptive", dims=(5, 10, 25, 50),
                n=20_000, replicates=1, seed=2026,
            )
            rows = run_scaling(cfg)
            for row in rows:
                assert 0.15 <= row.acceptance_fraction <= 0.35, row
                assert 1.5 * row.dim <= row.tau_hat <= 6.0 * row.dim, row
            elapsed = time.perf_counter() - t0
            notes = (
                "; ".join(
                    f"d{r.dim}: acc={r.acceptance_fraction:.3f} tau={r.tau_hat:.1f}"
                    for r in rows
                )
                + f"; {elapsed:.1f}s"
            )
            assert elapsed < 180.0
            ok = True
        finally:
            _line(4, "adaptive scale holds 25% band and tau ~ 3d", ok, notes)

    def test_criterion_05_ensemble_behavior(self):
        ok, notes = False, ""
        t0 = time.perf_counter()
        dims = (2, 5, 10, 20)
        measured = {}
        try:
            for sampler in ("ens-gaussian", "ens-de", "ens-stretch"):
                cfg = ExperimentConfig(
                    "scaling", sampler=sampler, dims=dims,
                    n=1500, m=100, replicates=1, seed=2026,
                )
                rows = run_scaling(cfg)
                measured[sampler] = {r.dim: r.acceptance_fraction for r in rows}
            elapsed = time.perf_counter() - t0
            # walkers start at 0 + N(0, I) on an N(0, I) target, so the
            # ensemble is at equilibrium from the first sweep
            oracle = {
                d: _stretch_equilibrium_acceptance(
                    d, cfg.a,
                    derive_rng(2026, "acceptance", "stretch-oracle", d),
                )
                for d in dims
            }
            notes = "; ".join(
                f"{s}=" + ",".join(f"{measured[s][d]:.3f}" for d in dims)
                for s in measured
            ) + (
                "; A(d)=" + ",".join(f"{oracle[d]:.3f}" for d in dims)
                + f"; {elapsed:.0f}s"
            )
            for sampler in ("ens-gaussian", "ens-de"):
                for d, acc in measured[sampler].items():
                    assert 0.15 <= acc <= 0.35, (sampler, d, acc)
            stretch = [measured["ens-stretch"][d] for d in dims]
            assert all(a > b for a, b in zip(stretch, stretch[1:]))
            tol = 0.02
            for d in dims:
                acc = measured["ens-stretch"][d]
                assert abs(acc - oracle[d]) <= tol, (
                    f"stretch acceptance at d={d} is {acc:.4f}, but its "
                    f"equilibrium value A(d) is {oracle[d]:.4f} "
                    f"(tolerance {tol})"
                )
            assert elapsed < 300.0, (
                f"criterion 05 samplers took {elapsed:.0f}s, over the 300s bound"
            )
            ok = True
        finally:
            _line(5, "ensemble acceptance bands and stretch decay", ok, notes)

    def test_criterion_06_stationarity_oracle(self):
        ok, notes = False, ""
        try:
            tm = three_state_transition_matrix()
            pi = np.array([0.2, 0.3, 0.5])
            for a in range(3):
                for b in range(3):
                    assert abs(pi[a] * tm[a, b] - pi[b] * tm[b, a]) < 1e-12

            rng = derive_rng(2026, "acceptance", "three-state")
            chain = run_chain(
                ThreeState(), UniformThreeState(), np.array([0.0]), 1_000_000, rng
            )
            occupancy = np.bincount(
                chain.states[:, 0].astype(int), minlength=3
            ) / len(chain)
            l1 = np.abs(occupancy - pi).sum()
            assert l1 < 0.02
            notes = f"occupancy={np.round(occupancy, 4)}, L1={l1:.4f}"
            ok = True
        finally:
            _line(6, "three-state occupancy and detailed balance", ok, notes)

    def test_criterion_07_typical_set_geometry(self):
        ok, notes = False, ""
        try:
            # long enough that the conservative chain ESS clears 500 at
            # tau ~ 3d (n = 2e4 would leave roughly 390 effective samples)
            d = 10
            target = IsotropicGaussianTarget(d, 1.0)
            rng = derive_rng(2026, "acceptance", "typical-set")
            theta0 = rng.standard_normal(d)
            chain = run_chain(
                target, GaussianRandomWalk(2.5 / np.sqrt(d)), theta0, 40_000, rng
            )
            kept = drop_burn_in(chain, 0.2)
            ess = chain_ess(kept.states)
            assert ess > 500, ess

            radii = np.linalg.norm(kept.states, axis=1)
            counts, edges = np.histogram(radii, bins=30, range=(0.0, 6.0))
            peak = 0.5 * (edges[np.argmax(counts)] + edges[np.argmax(counts) + 1])
            stats = shell_stats(d, 1.0)
            assert abs(peak - 3.0) <= 0.3
            assert radii.mean() == pytest.approx(stats.r_mean, rel=0.02)
            notes = (
                f"ess={ess:.0f}, histogram peak={peak:.2f} (r_peak=3), "
                f"mean radius={radii.mean():.3f} vs {stats.r_mean:.3f}"
            )
            ok = True
        finally:
            _line(7, "d=10 samples live on the radius-3 shell", ok, notes)

    def test_criterion_08_diagnostics_oracles(self):
        ok, notes = False, ""
        try:
            rng = derive_rng(2026, "acceptance", "ar1")
            phi, n = 0.9, 100_000
            x = np.empty(n)
            x[0] = rng.standard_normal() / np.sqrt(1 - phi**2)
            eps = rng.standard_normal(n - 1)
            for i in range(1, n):
                x[i] = phi * x[i - 1] + eps[i - 1]
            tau_ar1 = integrated_autocorr_time(x).tau
            assert tau_ar1 == pytest.approx(18.0, rel=0.2)

            rng = derive_rng(2026, "acceptance", "iid")
            tau_iid = integrated_autocorr_time(rng.standard_normal(100_000)).tau
            assert abs(tau_iid) < 0.1

            assert kish_ess(np.full(5, 2.0)) == pytest.approx(5.0, rel=1e-12)
            assert kish_ess(np.array([0.0, 7.0, 0.0, 0.0])) == pytest.approx(1.0, rel=1e-12)
            assert kish_ess(np.array([2.0, 1.0, 1.0])) == pytest.approx(16.0 / 6.0, rel=1e-12)
            notes = f"AR(1) tau={tau_ar1:.2f} (18 expected), iid tau={tau_iid:.4f}"
            ok = True
        finally:
            _line(8, "autocorrelation and Kish oracles", ok, notes)

    def test_criterion_09_error_scaling(self):
        ok, notes = False, ""
        try:
            target = exercise_2d_target()
            ns = (100, 1000, 10_000)
            reps = 60

            proposal = DiagonalGaussianProposal((0.0, 0.0), (2.0, 2.0))
            is_rmse = []
            for n in ns:
                errs = []
                for rep in range(reps):
                    rng = derive_rng(2026, "acceptance", "is-scaling", n, rep)
                    ws = importance_weights(
                        target, proposal, draw_iid(proposal, n, rng)
                    )
                    errs.append(is_expectation(ws, lambda p: p[:, 0]) + 0.3)
                is_rmse.append(np.sqrt(np.mean(np.square(errs))))
            is_slope = np.polyfit(np.log(ns), np.log(is_rmse), 1)[0]
            assert is_slope == pytest.approx(-0.5, abs=0.1)

            mh_rmse = []
            for n in ns:
                errs = []
                for rep in range(reps):
                    rng = derive_rng(2026, "acceptance", "mh-scaling", n, rep)
                    chain = run_chain(
                        target, GaussianRandomWalk(1.0), np.zeros(2), n, rng
                    )
                    errs.append(chain.states[:, 0].mean() + 0.3)
                mh_rmse.append(np.sqrt(np.mean(np.square(errs))))
            mh_slope = np.polyfit(np.log(ns), np.log(mh_rmse), 1)[0]
            assert mh_slope == pytest.approx(-0.5, abs=0.1)
            notes = f"IS slope={is_slope:.3f}, MH slope={mh_slope:.3f}"
            ok = True
        finally:
            _line(9, "mean-estimate RMSE scales as n^(-1/2)", ok, notes)

    def test_criterion_10_reproducibility(self, tmp_path):
        ok, notes = False, ""
        try:
            cfg = ExperimentConfig(
                "scaling", sampler="ens-de", dims=(2, 3), n=80, m=20,
                replicates=2, seed=777,
            )
            path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
            write_scaling_csv(str(path_a), run_scaling(cfg))
            write_scaling_csv(str(path_b), run_scaling(cfg))

            def strip(text):
                return "\n".join(ln.rsplit(",", 1)[0] for ln in text.splitlines())

            assert strip(path_a.read_text()) == strip(path_b.read_text())
            assert path_a.read_text().startswith("# schema=1\n")
            # and the in-memory renderer agrees with the files
            assert strip(scaling_csv_text(run_scaling(cfg))) == strip(path_a.read_text())
            notes = "byte-identical rows across three runs (wall time excluded)"
            ok = True
        finally:
            _line(10, "same seed, byte-identical scaling CSV", ok, notes)
