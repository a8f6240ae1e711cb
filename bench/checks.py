"""Validity checks on the CLI's output CSVs, against analytic values.

The checks do not depend on the random stream: every tolerance scales with
the effective sample size the run reports, so a changed draw order or
float-level rounding passes, while a sampler that accepts everything or
uses a wrong covariance moves acceptance, means or the 68% interval far
outside them.  Only the standard library is used, so nothing here shares
code with the package under test.
"""

import csv
import hashlib
import io
import math
from statistics import NormalDist

# Deviations are allowed up to Z_MAX standard errors.
Z_MAX = 6.0
# Absolute slack on interval endpoints (interpolation between support points).
CI_SLACK = 0.05
# Acceptance bands of the scaling samplers on N(0, I), d = 2..20.
ACCEPTANCE_BANDS = {
    "mh-fixed": (0.0003, 0.8),
    "mh-adaptive": (0.1, 0.6),
    "ens-gaussian": (0.1, 0.6),
    "ens-de": (0.1, 0.6),
    "ens-stretch": (0.1, 0.7),
}
# How much wider than the reported ess implies the scatter of a scaling
# row's means and 68% endpoints is: the windowed tau of a series shorter than
# about 50 tau reads low, and ensemble walkers move by each other's
# positions, so ``ess * m`` overstates the pooled sample.  Measured as the
# rms of (estimate - truth) / standard error over 30 seeds of each workload
# command (ens-stretch 1.91, ens-de 1.86, ens-gaussian 1.47, mh-fixed 1.35
# and mh-adaptive 1.16 at their worst dimension), plus a tenth, rounded up.
SE_INFLATION = {
    "mh-fixed": 1.5,
    "mh-adaptive": 1.5,
    "ens-gaussian": 1.75,
    "ens-de": 2.25,
    "ens-stretch": 2.25,
}
# The histogram evidence is biased at low d (about +16% at d = 2); a factor
# of two still catches a sampler that targets the wrong law.
EVIDENCE_FACTOR = 2.0

_STD = NormalDist()
Q84 = _STD.inv_cdf(0.84)
# Standard error of an empirical 16% / 84% quantile of N(0, 1) per 1/sqrt(ess).
QUANTILE_SE = math.sqrt(0.16 * 0.84) / _STD.pdf(Q84)

# Constants of the exercises (mcmclab.harness): the noisy-mean data and
# priors, and the 2-D Gaussian of the grid / importance / MH exercises.
NOISY_MEAN_OBSERVATIONS = ((26.3, 1.7), (30.2, 1.8), (29.4, 1.2), (30.1, 0.5), (29.8, 1.3))
NOISY_MEAN_PRIOR = (25.0, 1.5)
NOISY_MEAN_ALT_PRIOR = (30.0, 3.0)
GAUSSIAN_2D_MEAN = (-0.3, 0.8)
GAUSSIAN_2D_SIGMAS = (math.sqrt(2.0), math.sqrt(0.5))
GAUSSIAN_2D_EVIDENCE = 2.0 * math.pi * GAUSSIAN_2D_SIGMAS[0] * GAUSSIAN_2D_SIGMAS[1]


class Outcome:
    """Problems found in one command's output, and the work it reports."""

    def __init__(self):
        self.problems = []
        self.updates = 0
        self.ess = 0.0

    def require(self, ok, message):
        if not ok:
            self.problems.append(message)

    def near(self, label, value, expected, tol):
        self.require(
            math.isfinite(value) and abs(value - expected) <= tol,
            f"{label}={value!r}, expected {expected:.6g} +- {tol:.3g}",
        )


def _flags(argv):
    return dict(zip(argv[2::2], argv[3::2]))


def _data_rows(text):
    return list(csv.DictReader(ln for ln in io.StringIO(text) if not ln.startswith("#")))


def fingerprint(text):
    """sha256 of a CSV's fields with its ``wall_time_s`` column blanked."""
    out = []
    column = None
    for line in text.splitlines():
        if line.startswith("#"):
            out.append(line)
            continue
        fields = next(csv.reader([line]))
        if column is None:
            column = fields.index("wall_time_s") if "wall_time_s" in fields else -1
        elif column >= 0:
            fields[column] = ""
        out.append("\x1f".join(fields))
    return hashlib.sha256("\n".join(out).encode("utf-8")).hexdigest()


def check_command(argv, text):
    """Check the CSV written by ``mcmclab <argv>``; returns an ``Outcome``."""
    outcome = Outcome()
    if argv[0] == "scaling":
        _check_scaling(outcome, argv, _data_rows(text))
    else:
        rows = _data_rows(text)
        values = {(r["case"], r["quantity"]): float(r["value"]) for r in rows if not r["index"]}
        traces = sum(1 for r in rows if r["quantity"] == "trace_x")
        _EXERCISE_CHECKS[argv[1]](outcome, values, traces)
    return outcome


def _float(row, key):
    return float(row[key]) if row[key] else None


def _check_scaling(outcome, argv, rows):
    """Every scaling cell targets N(0, I_d)."""
    sampler = argv[1]
    flags = _flags(argv)
    dims = [int(d) for d in flags["--dims"].split(",")]
    reps = int(flags.get("--replicates", 1))
    cells = sorted((int(r["dim"]), int(r["replicate"])) for r in rows)
    outcome.require(
        cells == sorted((d, r) for d in dims for r in range(reps)),
        f"{sampler}: rows cover cells {cells}",
    )
    lo, hi = ACCEPTANCE_BANDS[sampler]
    for row in rows:
        dim = int(row["dim"])
        label = f"{sampler} d={dim} rep={row['replicate']}"
        n = int(row["n"])
        m = int(row["m"]) if row["m"] else 1
        if "--n" in flags:
            outcome.require(n == int(flags["--n"]), f"{label}: n={n}")
        if "--m" in flags:
            outcome.require(m == int(flags["--m"]), f"{label}: m={m}")
        accept = float(row["acceptance_fraction"])
        outcome.require(lo <= accept <= hi, f"{label}: acceptance {accept} outside [{lo}, {hi}]")
        tau, ess = _float(row, "tau_hat"), _float(row, "ess")
        if not (tau is not None and ess is not None and math.isfinite(tau)
                and math.isfinite(ess) and tau > 0 and ess > 0):
            outcome.problems.append(f"{label}: tau_hat={tau} ess={ess}")
            continue
        # the pooled sample of an m-chain ensemble carries about m * ess
        pooled = ess * m
        outcome.ess += pooled
        outcome.updates += n * m
        se = SE_INFLATION[sampler] / math.sqrt(pooled)
        for k in range(min(dim, 2)):
            outcome.near(f"{label}: mean_{k}", float(row[f"mean_{k}"]), 0.0, Z_MAX * se)
            ci_tol = Z_MAX * QUANTILE_SE * se + CI_SLACK
            outcome.near(f"{label}: ci68_lo_{k}", float(row[f"ci68_lo_{k}"]), -Q84, ci_tol)
            outcome.near(f"{label}: ci68_hi_{k}", float(row[f"ci68_hi_{k}"]), Q84, ci_tol)
        evidence = _float(row, "evidence_hat")
        if evidence is not None:
            ratio = evidence / (2.0 * math.pi) ** (dim / 2.0)
            outcome.require(
                1.0 / EVIDENCE_FACTOR <= ratio <= EVIDENCE_FACTOR,
                f"{label}: evidence_hat / (2 pi)^(d/2) = {ratio}",
            )


def _conjugate(prior):
    """Posterior mean, sd and log evidence of the noisy-mean model."""
    mu0, s0 = prior
    precision = 1.0 / s0 ** 2 + sum(1.0 / s ** 2 for _, s in NOISY_MEAN_OBSERVATIONS)
    b = mu0 / s0 ** 2 + sum(x / s ** 2 for x, s in NOISY_MEAN_OBSERVATIONS)
    c = mu0 ** 2 / s0 ** 2 + sum(x ** 2 / s ** 2 for x, s in NOISY_MEAN_OBSERVATIONS)
    n = len(NOISY_MEAN_OBSERVATIONS)
    log_z = (
        -0.5 * n * math.log(2.0 * math.pi) - math.log(s0)
        - sum(math.log(s) for _, s in NOISY_MEAN_OBSERVATIONS)
        - 0.5 * math.log(precision) + 0.5 * b * b / precision - 0.5 * c
    )
    return b / precision, 1.0 / math.sqrt(precision), log_z


def _check_noisy_mean(outcome, values, traces):
    mean, sd, log_z = _conjugate(NOISY_MEAN_PRIOR)
    _, _, log_z_alt = _conjugate(NOISY_MEAN_ALT_PRIOR)
    v = lambda case, q: values[(case, q)]  # noqa: E731
    for q in ("posterior_mean", "posterior_median", "posterior_mode"):
        outcome.near(q, v("default", q), mean, 0.01)
    outcome.near("posterior_sd", v("default", "posterior_sd"), sd, 1e-3 * sd)
    for cov in (50, 80, 95):
        half = _STD.inv_cdf(0.5 + cov / 200.0) * sd
        for kind in ("ci", "hpd"):
            outcome.near(f"{kind}{cov}_lo", v("default", f"{kind}{cov}_lo"), mean - half, 0.01)
            outcome.near(f"{kind}{cov}_hi", v("default", f"{kind}{cov}_hi"), mean + half, 0.01)
    half95 = _STD.inv_cdf(0.975) * sd
    outcome.near("asymmetric_estimate", v("default", "asymmetric_estimate"), mean, half95)
    for s in (0.0, 0.5, 2.0):
        outcome.near(f"predictive mean_sigma_{s:g}", v("predictive", f"mean_sigma_{s:g}"), mean, 0.01)
        want = math.hypot(sd, s)
        outcome.near(f"predictive sd_sigma_{s:g}", v("predictive", f"sd_sigma_{s:g}"), want, 0.01 * want)
    z, z_alt = math.exp(log_z), math.exp(log_z_alt)
    mc = "model-comparison"
    outcome.near("evidence_default_prior", v(mc, "evidence_default_prior"), z, 1e-3 * z)
    outcome.near("evidence_alt_prior", v(mc, "evidence_alt_prior"), z_alt, 1e-3 * z_alt)
    outcome.near("bayes_factor", v(mc, "bayes_factor"), z / z_alt, 2e-3 * z / z_alt)


def _box_mass(mu, sigma, lo, hi):
    dist = NormalDist(mu, sigma)
    return dist.cdf(hi) - dist.cdf(lo)


def _check_gaussian_2d_moments(outcome, values, case, n_eff):
    """Means and 68% intervals of the 2-D Gaussian from ``n_eff`` samples."""
    for axis, mu, sigma in zip("xy", GAUSSIAN_2D_MEAN, GAUSSIAN_2D_SIGMAS):
        se = sigma / math.sqrt(n_eff)
        outcome.near(f"{case} mean_{axis}", values[(case, f"mean_{axis}")], mu, Z_MAX * se + 0.01)
        ci_tol = Z_MAX * QUANTILE_SE * se + CI_SLACK
        outcome.near(f"{case} ci68_{axis}_lo", values[(case, f"ci68_{axis}_lo")], mu - Q84 * sigma, ci_tol)
        outcome.near(f"{case} ci68_{axis}_hi", values[(case, f"ci68_{axis}_hi")], mu + Q84 * sigma, ci_tol)


def _check_grid_2d(outcome, values, traces):
    # the finest full-extent grid; the coarse and clipped cases show how
    # grids fail and have no tight analytic target
    case = "100x100[-5,5]"
    mass = 1.0
    for mu, sigma in zip(GAUSSIAN_2D_MEAN, GAUSSIAN_2D_SIGMAS):
        mass *= _box_mass(mu, sigma, -5.0, 5.0)
    z = GAUSSIAN_2D_EVIDENCE * mass
    outcome.near(f"{case} evidence", values[(case, "evidence")], z, 5e-3 * z)
    outcome.near(f"{case} n_cells", values[(case, "n_cells")], 10_000.0, 0.0)
    # a 0.1-wide grid pins moments to discretization error, not sampling error
    _check_gaussian_2d_moments(outcome, values, case, n_eff=1e6)


def _check_importance_2d(outcome, values, traces):
    z = GAUSSIAN_2D_EVIDENCE
    kish = values[("sigma1", "kish_ess")]
    outcome.require(math.isfinite(kish) and kish > 1.0, f"sigma1 kish_ess={kish}")
    # unit-width proposals give the x axis (variance 2) weights of infinite
    # variance; only the wide proposal has a usable error bar
    kish = values[("sigma2", "kish_ess")]
    outcome.near("sigma2 evidence", values[("sigma2", "evidence")], z, Z_MAX * z / math.sqrt(kish))
    _check_gaussian_2d_moments(outcome, values, "sigma2", n_eff=kish)
    se = values[("replicates", "evidence_se")]
    outcome.near("replicates evidence_mean", values[("replicates", "evidence_mean")], z,
                 Z_MAX * se + 0.01 * z)
    outcome.near("replicates count", values[("replicates", "count")], 100.0, 0.0)


def _check_mh_2d(outcome, values, traces):
    case = "start-origin"
    accept = values[(case, "acceptance_fraction")]
    outcome.require(0.2 <= accept <= 0.9, f"mh-2d acceptance {accept}")
    tau, ess = values[(case, "tau_hat")], values[(case, "ess")]
    if not (math.isfinite(tau) and math.isfinite(ess) and tau > 0 and ess > 0):
        outcome.problems.append(f"mh-2d tau_hat={tau} ess={ess}")
        return
    _check_gaussian_2d_moments(outcome, values, case, n_eff=ess)
    ratio = values[(case, "evidence_hat")] / GAUSSIAN_2D_EVIDENCE
    outcome.require(1.0 / EVIDENCE_FACTOR <= ratio <= EVIDENCE_FACTOR, f"mh-2d evidence ratio {ratio}")
    outcome.require(traces > 0, "mh-2d far-start trace missing")
    outcome.ess += ess
    # the origin run and the far-start run have the same length
    outcome.updates += 2 * traces


_EXERCISE_CHECKS = {
    "noisy-mean": _check_noisy_mean,
    "grid-2d": _check_grid_2d,
    "importance-2d": _check_importance_2d,
    "mh-2d": _check_mh_2d,
}
