"""Experiment runners behind the command-line interface.

Four self-contained exercises (a 1-D noisy-mean inference, grid /
importance / Metropolis-Hastings studies of a fixed 2-D Gaussian) and a
dimensional-scaling battery for five samplers on an isotropic Gaussian.
Results are emitted as CSV rows; every run derives its random stream from
``(master seed, experiment, dim, replicate)`` so output is byte-for-byte
reproducible no matter how work is scheduled.
"""

import csv
import io
import os
import time
import typing
from dataclasses import dataclass, field, fields
from itertools import product, repeat
from types import MappingProxyType

import numpy as np

from . import diagnostics, summaries
from .ensemble import DEFAULT_DELTA, MIN_CHAINS, StretchLaw, run_ensemble
from .errors import ConfigError, ResourceLimitError, ZeroVarianceError
from .grid import GridSpec, build_grid, grid_evidence, grid_log_weights
from .importance import (
    DiagonalGaussianProposal,
    draw_iid,
    importance_weights,
    is_evidence,
    is_expectation,
)
from .mh import GaussianRandomWalk, acceptance_fraction, drop_burn_in, run_chain
from .seeding import derive_rng, stream_id
from .summaries import DiscretizedPosterior, LossSpec
from .targets import DiagonalGaussianTarget, IsotropicGaussianTarget, NoisyMeanModel

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "SamplerSpec",
    "EXERCISES",
    "SAMPLERS",
    "SCALING_SAMPLERS",
    "noisy_mean_model",
    "noisy_mean_alt_model",
    "exercise_2d_target",
    "run_exercise",
    "run_scaling",
    "write_exercise_csv",
    "write_scaling_csv",
    "read_scaling_rows",
    "report_table",
    "parse_dims",
]

DEFAULT_SEED = 1905
DEFAULT_BUDGET = 500_000_000  # total chain updates allowed per scaling run

EXERCISES = ("noisy-mean", "grid-2d", "importance-2d", "mh-2d")


@dataclass(frozen=True)
class SamplerSpec:
    """One row of the sampler table: what the scaling battery knows of a sampler."""

    move: str | None            # ensemble move; None for a single chain
    n: int                      # default iterations (single chain) or sweeps
    gamma: float | None = None  # default fixed proposal scale, or
    delta: float | None = None  # default scale delta / sqrt(d); neither: no scale
    in_band: bool = False       # tuned for ACCEPTANCE_BAND, flagged in reports


SAMPLERS = MappingProxyType({
    "mh-fixed": SamplerSpec(None, 20_000, gamma=float(np.sqrt(2.0))),
    # the rule of the covariance-shaped ensemble step, with unit covariance
    "mh-adaptive": SamplerSpec(None, 20_000, delta=DEFAULT_DELTA["gaussian"], in_band=True),
    "ens-gaussian": SamplerSpec("gaussian", 1500, delta=DEFAULT_DELTA["gaussian"], in_band=True),
    "ens-de": SamplerSpec("de", 1500, delta=DEFAULT_DELTA["de"], in_band=True),
    "ens-stretch": SamplerSpec("stretch", 1500),
})
SCALING_SAMPLERS = tuple(SAMPLERS)
ACCEPTANCE_BAND = (0.15, 0.35)

# Evidence-from-chain histograms get 10 bins per axis; beyond a few
# dimensions the bin lattice itself becomes the curse of dimensionality,
# so the column is left empty there.
_EVIDENCE_MAX_DIM = 5

# Measurement series of the 1-D noisy-mean model: (value, sigma) pairs,
# with a Normal(25, 1.5) prior and a Normal(30, 3) alternative prior.
NOISY_MEAN_OBSERVATIONS = (
    (26.3, 1.7),
    (30.2, 1.8),
    (29.4, 1.2),
    (30.1, 0.5),
    (29.8, 1.3),
)
NOISY_MEAN_PRIOR = (25.0, 1.5)
NOISY_MEAN_ALT_PRIOR = (30.0, 3.0)
# The noisy-mean posterior grid: (lower, upper, cells).
NOISY_MEAN_GRID = (10.0, 50.0, 10_000)

# The fixed 2-D Gaussian studied by the grid / importance / MH exercises:
# means (-0.3, 0.8), variances (2, 0.5), hence evidence 2*pi*sx*sy = 2*pi.
EXERCISE_2D_MEAN = (-0.3, 0.8)
EXERCISE_2D_SIGMAS = (np.sqrt(2.0), np.sqrt(0.5))
EXERCISE_2D_PROPOSAL_SIGMA = 1.0  # random-walk scale of the mh-2d exercise

EXERCISE_CSV_HEADER = ("experiment", "case", "quantity", "index", "value")
SCHEMA_LINE = "# schema=1"


def noisy_mean_model() -> NoisyMeanModel:
    return NoisyMeanModel(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_PRIOR)


def noisy_mean_alt_model() -> NoisyMeanModel:
    return NoisyMeanModel(NOISY_MEAN_OBSERVATIONS, *NOISY_MEAN_ALT_PRIOR)


def exercise_2d_target() -> DiagonalGaussianTarget:
    return DiagonalGaussianTarget(EXERCISE_2D_MEAN, EXERCISE_2D_SIGMAS)


# The keys each run reads beyond ``seed`` and ``out``; a scaling sampler
# also reads those its SAMPLERS row calls for (see _keys_used).
_RUN_KEYS = MappingProxyType({
    "noisy-mean": set(),
    "grid-2d": set(),
    "importance-2d": {"n", "replicates"},
    "mh-2d": {"n", "burn_in"},
    "scaling": {"dims", "n", "replicates", "burn_in", "jobs", "budget"},
})
# Defaults of the exercises' ``n`` and ``replicates``; a scaling run takes
# ``n`` from its SAMPLERS row and one replicate.
_RUN_DEFAULTS = MappingProxyType({
    "importance-2d": {"n": 10_000, "replicates": 100},
    "mh-2d": {"n": 1000},
})


def _keys_used(experiment: str, sampler: str | None = None) -> set:
    """Config keys the run reads; setting any other key is an error."""
    if experiment not in _RUN_KEYS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    keys = {"seed", "out"} | _RUN_KEYS[experiment]
    if experiment == "scaling":
        if sampler not in SAMPLERS:
            raise ConfigError(f"unknown sampler {sampler!r}")
        spec = SAMPLERS[sampler]
        if spec.gamma is not None or spec.delta is not None:
            keys |= {"gamma", "delta"}
        if spec.move is not None:
            keys.add("m")
        if spec.move == "stretch":
            keys.add("a")
    return keys


def _key(default, help_text: str):
    """A config key: its default and the one-line help of its ``--`` flag."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; CLI flags override file values override defaults.

    Each key's name, type, default and flag help are defined here once.  An
    unset ``n`` or ``replicates`` takes the run's default.
    """

    experiment: str
    sampler: str | None = None
    dims: tuple = _key((2, 5, 10, 20), "comma-separated dimensions, e.g. 2,5,10,20")
    n: int | None = _key(None, "iterations (chain), sweeps (ensemble) or draws (importance-2d)")
    m: int = _key(100, "ensemble size")
    replicates: int | None = _key(None, "independent replicates per dimension, or of "
                                        "the estimate (importance-2d)")
    burn_in: float = _key(0.2, "burn-in fraction")
    gamma: float | None = _key(None, "fixed proposal scale")
    delta: float | None = _key(None, "proposal scale as delta/sqrt(d)")
    a: float = _key(2.0, "stretch range parameter")
    seed: int = _key(DEFAULT_SEED, "master seed")
    out: str | None = _key(None, "output CSV path")
    jobs: int = _key(1, "worker processes")
    budget: int = _key(DEFAULT_BUDGET, "total chain-update budget")

    def __post_init__(self):
        _keys_used(self.experiment, self.sampler)  # rejects unknown names
        defaults = _RUN_DEFAULTS.get(self.experiment, {})
        if self.experiment == "scaling":
            if not self.dims or min(self.dims) < 1 or len(set(self.dims)) < len(self.dims):
                raise ConfigError(f"dims {self.dims} must be distinct positive integers")
            move = SAMPLERS[self.sampler].move
            if move is not None and self.m < MIN_CHAINS[move]:
                raise ConfigError(f"{self.sampler} needs m >= {MIN_CHAINS[move]}")
            defaults = {"n": SAMPLERS[self.sampler].n, "replicates": 1}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        for name in ("n", "m", "replicates", "jobs", "budget"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0.0 <= self.burn_in < 1.0:
            raise ConfigError("burn_in must lie in [0, 1)")
        if self.gamma is not None and self.delta is not None:
            raise ConfigError("set gamma or delta, not both")
        if self.gamma is not None and not 0.0 < self.gamma < np.inf:
            raise ConfigError("gamma must be positive and finite")
        if self.delta is not None and not 0.0 < self.delta < np.inf:
            raise ConfigError("delta must be positive and finite")
        if not 1.0 < self.a < np.inf:
            raise ConfigError("a must exceed 1 and be finite")

    def proposal_scale(self, dim: int) -> float | None:
        """Resolved gamma for one dimension (None for a sampler without a scale).

        A set ``gamma`` or ``delta`` beats the table's default.
        """
        spec = SAMPLERS[self.sampler]
        if spec.gamma is None and spec.delta is None:
            return None
        gamma, delta = spec.gamma, spec.delta
        if self.gamma is not None or self.delta is not None:
            gamma, delta = self.gamma, self.delta
        return gamma if gamma is not None else delta / np.sqrt(dim)


def _value_type(annotation):
    """The type a field holds when set: ``int`` for ``int | None``."""
    return next((t for t in typing.get_args(annotation) if t is not type(None)), annotation)


_CONFIG_TYPES = {f.name: _value_type(f.type) for f in fields(ExperimentConfig)}


def parse_dims(text: str) -> tuple:
    """Dimensions from comma-separated text such as ``2,5,10,20``; an empty
    entry is an error."""
    return tuple(int(tok) for tok in text.split(","))


def parse_config_file(path: str, section: str) -> dict:
    """Read ``key=value`` lines from the named section of a config file.

    Sections are introduced by ``[name]`` headers, each naming an exercise
    or a scaling sampler.  Another header, a key before the first header, or
    one that names no config field, is rejected in any section.
    Blank lines and ``#`` comments are ignored.
    """
    values: dict = {}
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.startswith("[") and line.endswith("]"):
                    current = line[1:-1].strip()
                    if current not in EXERCISES and current not in SAMPLERS:
                        raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if current is None:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} before any [section]")
                if key not in _CONFIG_TYPES:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown key {key!r} for [{current}]"
                    )
                if current == section:
                    values[key] = _parse_value(key, val, f"{path}:{lineno}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_value(key: str, val: str, where: str):
    """The one parse rule of flag, file and ``MCMCLAB_SEED`` text; ``where`` is the source."""
    value_type = _CONFIG_TYPES[key]
    try:
        return parse_dims(val) if value_type is tuple else value_type(val)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {val!r}") from exc


def config_from_sources(experiment, sampler=None, config_path=None, overrides=None):
    """Merge defaults, config-file values, and CLI overrides into a config.

    A file or flag key the run does not read (see ``_keys_used``) is an
    error.
    """
    name = sampler if experiment == "scaling" else experiment
    values = parse_config_file(config_path, name) if config_path is not None else {}
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    unused = values.keys() - _keys_used(experiment, sampler)
    if unused:
        raise ConfigError(f"{name} does not use {', '.join(sorted(unused))}")
    env = os.environ.get("MCMCLAB_SEED")
    if "seed" not in values and env is not None:
        values["seed"] = _parse_value("seed", env, "MCMCLAB_SEED")
    try:
        return ExperimentConfig(experiment=experiment, sampler=sampler, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ResultRow:
    """One (experiment, dim, replicate) outcome in the scaling CSV schema."""

    experiment: str
    dim: int
    replicate: int
    seed: int
    sampler: str
    n: int
    m: int | None
    acceptance_fraction: float
    tau_hat: float | None
    ess: float | None
    evidence_hat: float | None
    mean_0: float | None
    mean_1: float | None
    ci68_lo_0: float | None
    ci68_hi_0: float | None
    ci68_lo_1: float | None
    ci68_hi_1: float | None
    wall_time_s: float


# The scaling CSV has one column per ResultRow field, in field order; an
# empty cell is None.
_ROW_TYPES = {
    f.name: (_value_type(f.type), type(None) in typing.get_args(f.type))
    for f in fields(ResultRow)
}
SCALING_CSV_HEADER = tuple(_ROW_TYPES)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _axis_posterior(samples: np.ndarray, axis: int) -> DiscretizedPosterior:
    return DiscretizedPosterior.from_samples(samples[:, axis])


def _coordinate_summaries(samples: np.ndarray) -> dict:
    """First-two-coordinate means and 68% intervals of a sample cloud."""
    out = {"mean_0": float(samples[:, 0].mean())}
    lo0, hi0 = summaries.percentile_interval(_axis_posterior(samples, 0), 0.68)
    out["ci68_lo_0"], out["ci68_hi_0"] = lo0, hi0
    if samples.shape[1] >= 2:
        out["mean_1"] = float(samples[:, 1].mean())
        lo1, hi1 = summaries.percentile_interval(_axis_posterior(samples, 1), 0.68)
        out["ci68_lo_1"], out["ci68_hi_1"] = lo1, hi1
    else:
        out["mean_1"] = out["ci68_lo_1"] = out["ci68_hi_1"] = None
    return out


def default_evidence_histogram(samples: np.ndarray):
    """Histogram for evidence estimation: 10 bins per axis on [-5, 5],
    widened to cover all samples when they spill outside it."""
    bounds = [(min(-5.0, float(col.min())), max(5.0, float(col.max()))) for col in samples.T]
    return diagnostics.histogram_density(samples, bins=10, bounds=bounds)


def _scaling_row(cfg: ExperimentConfig, dim: int, replicate: int) -> ResultRow:
    """Run one (sampler, dim, replicate) cell of the scaling battery."""
    labels = ("scaling", cfg.sampler, dim, replicate)
    rng = derive_rng(cfg.seed, *labels)
    seed_id = stream_id(cfg.seed, *labels)
    target = IsotropicGaussianTarget(dim, 1.0)
    t0 = time.perf_counter()

    move = SAMPLERS[cfg.sampler].move
    burn = int(np.floor(cfg.burn_in * cfg.n))
    if move is None:
        # start from a draw of the target itself: at the exact mode a
        # wide fixed proposal in high dimension essentially never accepts
        # its first move, so the run would measure the start, not the law
        theta0 = rng.standard_normal(dim)
        chain = run_chain(
            target, GaussianRandomWalk(cfg.proposal_scale(dim)), theta0, cfg.n, rng
        )
        # a single chain is an ensemble of one: (n,) flags, one (n - burn, d) block
        accepted, samples = chain.accepted, chain.states[burn:]
        blocks = (samples,)
        m_col = None
    else:
        law = StretchLaw(cfg.a) if move == "stretch" else None
        state = run_ensemble(
            move, target, m=cfg.m, n_sweeps=cfg.n, rng=rng,
            gamma=cfg.proposal_scale(dim), law=law, burn_in=burn,
        )
        # tau reads whole walkers rebuilt into one small buffer, and the
        # summaries two coordinates: the cell holds a dense history only
        # where the evidence histogram reads every coordinate
        accepted, blocks = state.accepted, state.history_blocks()
        width = dim if dim <= _EVIDENCE_MAX_DIM else 2
        samples = state.coordinate_history(slice(width)).reshape(-1, width)
        m_col = cfg.m

    accept = float(accepted.mean())
    try:
        # one tau call over every chain's coordinates: column c is chain
        # c // dim, coordinate c % dim
        taus = diagnostics._taus(blocks, None)
    except ZeroVarianceError as exc:
        # a chain that never moved: name the cell, and in an ensemble the walker
        where = f"{cfg.sampler} d={dim} replicate {replicate}"
        if m_col is not None:
            where += f" walker {exc.column // dim} coordinate {exc.column % dim}"
        raise ZeroVarianceError(f"{where}: {exc}") from exc
    # a series too short for a window has tau NaN, and so has its chain's mean
    chain_taus = np.array([t.tau for t in taus]).reshape(-1, dim).mean(axis=1)
    tau = float(chain_taus.mean())
    ess = float(diagnostics.ess_from_tau(cfg.n - burn, chain_taus).mean())
    evidence = None
    if dim <= _EVIDENCE_MAX_DIM:
        hd = default_evidence_histogram(samples)
        evidence = diagnostics.evidence_from_chain(target, samples, hd)
    coords = _coordinate_summaries(samples)
    wall = time.perf_counter() - t0
    return ResultRow(
        experiment="scaling", dim=dim, replicate=replicate, seed=seed_id,
        sampler=cfg.sampler, n=cfg.n, m=m_col, acceptance_fraction=accept,
        tau_hat=tau, ess=ess, evidence_hat=evidence, wall_time_s=wall,
        **coords,
    )


def run_scaling(cfg: ExperimentConfig) -> list:
    """All (dim, replicate) rows for one sampler, in deterministic order.

    Cells fan out over a process pool of ``jobs`` workers, capped at the
    number of cells; rows are ordered by (dim, replicate) regardless of
    completion order.
    """
    if cfg.experiment != "scaling":
        raise ConfigError("run_scaling needs a scaling config")
    per_iter = 1 if SAMPLERS[cfg.sampler].move is None else cfg.m
    total_updates = cfg.n * per_iter * len(cfg.dims) * cfg.replicates
    if total_updates > cfg.budget:
        raise ResourceLimitError(
            f"requested {total_updates} chain updates exceeds budget {cfg.budget}"
        )
    dims, replicates = zip(*product(cfg.dims, range(cfg.replicates)))
    # the pool starts all its workers at the first submit
    jobs = min(cfg.jobs, len(dims))
    if jobs > 1:
        # imported here: a serial run loads neither the pool nor multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_scaling_row, repeat(cfg), dims, replicates))
    return list(map(_scaling_row, repeat(cfg), dims, replicates))


# ---------------------------------------------------------------------------
# Exercises
# ---------------------------------------------------------------------------


def _row(experiment, case, quantity, value, index=None):
    return (experiment, case, quantity, index, value)


def run_noisy_mean_exercise(cfg: ExperimentConfig):
    """Point estimates, intervals, predictive widths, and model comparison
    for the five-measurement noisy-mean dataset, all from a dense 1-D grid."""
    model = noisy_mean_model()
    grid_lo, grid_hi, grid_cells = NOISY_MEAN_GRID
    cells = build_grid(GridSpec.regular([(grid_lo, grid_hi)], grid_cells))
    post = DiscretizedPosterior.from_grid(model, cells)
    mean = summaries.point_estimate(post, LossSpec.squared())
    sd = float(np.sqrt((post.points - mean) ** 2 @ post.masses))
    median = summaries.point_estimate(post, LossSpec.absolute())
    mode = summaries.point_estimate(post, LossSpec.catastrophic())
    asym = summaries.point_estimate(
        post, LossSpec.piecewise_power(model.prior_mean)
    )
    rows = [
        _row("noisy-mean", "default", "posterior_mean", mean),
        _row("noisy-mean", "default", "posterior_sd", sd),
        _row("noisy-mean", "default", "posterior_median", median),
        _row("noisy-mean", "default", "posterior_mode", mode),
        _row("noisy-mean", "default", "asymmetric_estimate", asym),
    ]
    for cov in (0.50, 0.80, 0.95):
        tag = f"{int(round(cov * 100)):02d}"
        lo, hi = summaries.percentile_interval(post, cov)
        rows += [
            _row("noisy-mean", "default", f"ci{tag}_lo", lo),
            _row("noisy-mean", "default", f"ci{tag}_hi", hi),
        ]
        _, member = summaries.threshold_credible_region(post, cov)
        rows += [
            _row("noisy-mean", "default", f"hpd{tag}_lo", float(post.points[member].min())),
            _row("noisy-mean", "default", f"hpd{tag}_hi", float(post.points[member].max())),
        ]
    t_grid = np.linspace(grid_lo, grid_hi, 2001)
    for sigma_new in (0.0, 0.5, 2.0):
        dens = summaries.posterior_predictive_noisy_mean(model, sigma_new, t_grid)
        mass = dens / dens.sum()
        pmean = float(t_grid @ mass)
        psd = float(np.sqrt((t_grid - pmean) ** 2 @ mass))
        tag = f"{sigma_new:g}"
        rows += [
            _row("noisy-mean", "predictive", f"mean_sigma_{tag}", pmean),
            _row("noisy-mean", "predictive", f"sd_sigma_{tag}", psd),
        ]
    z_default = grid_evidence(model, cells)
    z_alt = grid_evidence(noisy_mean_alt_model(), cells)
    ratio = summaries.bayes_factor(z_default, z_alt)
    rows += [
        _row("noisy-mean", "model-comparison", "evidence_default_prior", z_default),
        _row("noisy-mean", "model-comparison", "evidence_alt_prior", z_alt),
        _row("noisy-mean", "model-comparison", "bayes_factor", ratio),
    ]
    text = (
        f"noisy-mean: mean={mean:.4f} sd={sd:.4f} median={median:.4f} "
        f"mode={mode:.4f} asym={asym:.4f}\n"
        f"evidence: default={z_default:.4e} alt={z_alt:.4e} ratio={ratio:.3f}"
    )
    return rows, text


def _grid_2d_case(target, bound, k):
    cells = build_grid(GridSpec.regular([(-bound, bound)] * 2, k))
    z = grid_evidence(target, cells)
    lw = grid_log_weights(target, cells)
    kish = diagnostics.kish_ess(log_weights=lw)
    post = DiscretizedPosterior.from_log_masses(cells.midpoints, lw)
    mass_xy = post.masses.reshape(k, k)
    xs = cells.midpoints[:, 0].reshape(k, k)[:, 0]
    ys = cells.midpoints[:, 1].reshape(k, k)[0, :]
    margin_x = DiscretizedPosterior(points=xs, masses=mass_xy.sum(axis=1))
    margin_y = DiscretizedPosterior(points=ys, masses=mass_xy.sum(axis=0))
    mean_x = summaries.point_estimate(margin_x, LossSpec.squared())
    mean_y = summaries.point_estimate(margin_y, LossSpec.squared())
    ci_x = summaries.percentile_interval(margin_x, 0.68)
    ci_y = summaries.percentile_interval(margin_y, 0.68)
    return z, mean_x, mean_y, ci_x, ci_y, kish


def run_grid_2d_exercise(cfg: ExperimentConfig):
    """Evidence, means, intervals, and weight ESS of the 2-D Gaussian on
    grids of growing resolution and extent."""
    target = exercise_2d_target()
    rows = []
    lines = []
    for bound in (2.0, 5.0):
        for k in (5, 20, 100):
            case = f"{k}x{k}[-{bound:g},{bound:g}]"
            z, mx, my, ci_x, ci_y, kish = _grid_2d_case(target, bound, k)
            rows += [
                _row("grid-2d", case, "evidence", z),
                _row("grid-2d", case, "mean_x", mx),
                _row("grid-2d", case, "mean_y", my),
                _row("grid-2d", case, "ci68_x_lo", ci_x[0]),
                _row("grid-2d", case, "ci68_x_hi", ci_x[1]),
                _row("grid-2d", case, "ci68_y_lo", ci_y[0]),
                _row("grid-2d", case, "ci68_y_hi", ci_y[1]),
                _row("grid-2d", case, "kish_ess", kish),
                _row("grid-2d", case, "n_cells", float(k * k)),
            ]
            lines.append(
                f"grid-2d {case}: Z={z:.5f} mean=({mx:+.3f},{my:+.3f}) ess={kish:.1f}"
            )
    return rows, "\n".join(lines)


def _weighted_axis_interval(ws, axis, coverage):
    post = DiscretizedPosterior.from_log_masses(ws.points[:, axis], ws.log_weights)
    return summaries.percentile_interval(post, coverage)


def run_importance_2d_exercise(cfg: ExperimentConfig):
    """Importance sampling of the 2-D Gaussian from centered proposals of
    width 1 and 2, plus a replicate study of the evidence estimator."""
    target = exercise_2d_target()
    rows = []
    lines = []
    for sigma_q in (1.0, 2.0):
        case = f"sigma{sigma_q:g}"
        proposal = DiagonalGaussianProposal((0.0, 0.0), (sigma_q, sigma_q))
        rng = derive_rng(cfg.seed, "importance-2d", case)
        ws = importance_weights(target, proposal, draw_iid(proposal, cfg.n, rng))
        z = is_evidence(ws)
        mean_xy = np.asarray(is_expectation(ws, lambda p: p))
        kish = diagnostics.kish_ess(log_weights=ws.log_weights)
        ci_x = _weighted_axis_interval(ws, 0, 0.68)
        ci_y = _weighted_axis_interval(ws, 1, 0.68)
        rows += [
            _row("importance-2d", case, "evidence", z),
            _row("importance-2d", case, "mean_x", float(mean_xy[0])),
            _row("importance-2d", case, "mean_y", float(mean_xy[1])),
            _row("importance-2d", case, "ci68_x_lo", ci_x[0]),
            _row("importance-2d", case, "ci68_x_hi", ci_x[1]),
            _row("importance-2d", case, "ci68_y_lo", ci_y[0]),
            _row("importance-2d", case, "ci68_y_hi", ci_y[1]),
            _row("importance-2d", case, "kish_ess", kish),
        ]
        lines.append(f"importance-2d {case}: Z={z:.4f} ess={kish:.1f}")
    # replicate spread of the evidence estimate at sigma_q = 1
    proposal = DiagonalGaussianProposal((0.0, 0.0), (1.0, 1.0))
    estimates = []
    for r in range(cfg.replicates):
        rng = derive_rng(cfg.seed, "importance-2d", "replicates", r)
        ws = importance_weights(target, proposal, draw_iid(proposal, cfg.n, rng))
        estimates.append(is_evidence(ws))
    estimates = np.asarray(estimates)
    z = float(estimates.mean())
    se = np.nan  # one replicate has no spread to measure
    if cfg.replicates > 1:
        se = float(estimates.std(ddof=1) / np.sqrt(cfg.replicates))
    rows += [
        _row("importance-2d", "replicates", "evidence_mean", z),
        _row("importance-2d", "replicates", "evidence_se", se),
        _row("importance-2d", "replicates", "count", float(cfg.replicates)),
    ]
    lines.append(f"importance-2d replicates: Z={z:.4f} +- {se:.4f}")
    return rows, "\n".join(lines)


def _mh_2d_run(cfg: ExperimentConfig, start, rng):
    target = exercise_2d_target()
    chain = run_chain(
        target, GaussianRandomWalk(EXERCISE_2D_PROPOSAL_SIGMA), np.asarray(start, float),
        cfg.n, rng,
    )
    return target, chain


def run_mh_2d_exercise(cfg: ExperimentConfig):
    """Random-walk Metropolis on the 2-D Gaussian: estimates, diagnostics,
    histogram evidence, and a second run from a far-away start whose trace
    is emitted for burn-in inspection."""
    rows = []
    rng = derive_rng(cfg.seed, "mh-2d", "origin")
    target, chain = _mh_2d_run(cfg, (0.0, 0.0), rng)
    accept = acceptance_fraction(chain)
    kept = drop_burn_in(chain, cfg.burn_in)
    samples = kept.states
    coords = _coordinate_summaries(samples)
    taus = diagnostics.per_coordinate_tau(samples)
    tau = max(t.tau for t in taus) if not any(t.insufficient_data for t in taus) else float("nan")
    ess = min(diagnostics.ess_from_tau(len(samples), t.tau) for t in taus)
    hd = default_evidence_histogram(samples)
    z = diagnostics.evidence_from_chain(target, samples, hd)
    case = "start-origin"
    rows += [
        _row("mh-2d", case, "acceptance_fraction", accept),
        _row("mh-2d", case, "mean_x", coords["mean_0"]),
        _row("mh-2d", case, "mean_y", coords["mean_1"]),
        _row("mh-2d", case, "ci68_x_lo", coords["ci68_lo_0"]),
        _row("mh-2d", case, "ci68_x_hi", coords["ci68_hi_0"]),
        _row("mh-2d", case, "ci68_y_lo", coords["ci68_lo_1"]),
        _row("mh-2d", case, "ci68_y_hi", coords["ci68_hi_1"]),
        _row("mh-2d", case, "tau_hat", tau),
        _row("mh-2d", case, "ess", ess),
        _row("mh-2d", case, "evidence_hat", z),
    ]
    far_rng = derive_rng(cfg.seed, "mh-2d", "far-start")
    _, far_chain = _mh_2d_run(cfg, (10.0, 10.0), far_rng)
    for i, (x, y) in enumerate(far_chain.states):
        rows.append(_row("mh-2d", "start-10-10", "trace_x", x, index=i))
        rows.append(_row("mh-2d", "start-10-10", "trace_y", y, index=i))
    text = (
        f"mh-2d: accept={accept:.3f} mean=({coords['mean_0']:+.3f},"
        f"{coords['mean_1']:+.3f}) tau={tau:.2f} ess={ess:.1f} Z={z:.4f}\n"
        f"mh-2d far start (10,10): trace of {len(far_chain)} steps emitted"
    )
    return rows, text


_EXERCISE_RUNNERS = {
    "noisy-mean": run_noisy_mean_exercise,
    "grid-2d": run_grid_2d_exercise,
    "importance-2d": run_importance_2d_exercise,
    "mh-2d": run_mh_2d_exercise,
}


def run_exercise(cfg: ExperimentConfig):
    """Dispatch one named exercise; returns (csv rows, summary text)."""
    if cfg.experiment not in _EXERCISE_RUNNERS:
        raise ConfigError(f"unknown exercise {cfg.experiment!r}")
    return _EXERCISE_RUNNERS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# CSV input/output and reporting
# ---------------------------------------------------------------------------


def write_exercise_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(SCHEMA_LINE + "\n")
        writer = csv.writer(fh)
        writer.writerow(EXERCISE_CSV_HEADER)
        for experiment, case, quantity, index, value in rows:
            writer.writerow([
                experiment, case, quantity,
                "" if index is None else index, _fmt(float(value)),
            ])


def scaling_csv_text(rows) -> str:
    """Render scaling rows as CSV text (deterministic apart from wall time)."""
    buf = io.StringIO()
    buf.write(SCHEMA_LINE + "\n")
    writer = csv.writer(buf)
    writer.writerow(SCALING_CSV_HEADER)
    for row in rows:
        cells = {name: _fmt(getattr(row, name)) for name in SCALING_CSV_HEADER}
        cells["wall_time_s"] = f"{row.wall_time_s:.3f}"
        writer.writerow(cells.values())
    return buf.getvalue()


def write_scaling_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(scaling_csv_text(rows))


def _parse_row(rec, where: str) -> ResultRow:
    if len(rec) != len(_ROW_TYPES):
        raise ConfigError(f"{where}: {len(rec)} fields, expected {len(_ROW_TYPES)}")
    values = {}
    for (name, (value_type, optional)), cell in zip(_ROW_TYPES.items(), rec):
        try:
            values[name] = None if optional and not cell else value_type(cell)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad {name} value {cell!r}") from exc
    return ResultRow(**values)


def read_scaling_rows(paths) -> list:
    """Parse ResultRow CSVs; a wrong version line or header is a schema mismatch."""
    rows = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                version = fh.readline().rstrip("\r\n")
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if version != SCHEMA_LINE:
            raise ConfigError(f"{path}: first line {version!r} is not {SCHEMA_LINE!r}")
        reader = csv.reader(io.StringIO(text))
        header = tuple(next(reader, ()))
        if header != SCALING_CSV_HEADER:
            raise ConfigError(f"{path}: CSV header does not match the row schema")
        for i, rec in enumerate(reader, start=1):
            if rec:
                rows.append(_parse_row(rec, f"{path}: row {i}"))
    return rows


def _mean_spread(values) -> str:
    vals = [v for v in values if v is not None and np.isfinite(v)]
    if not vals:
        return "-"
    if len(vals) == 1:
        return f"{vals[0]:.4g}"
    return f"{np.mean(vals):.4g} +- {np.std(vals, ddof=1):.4g}"


def report_table(rows) -> str:
    """Aggregate rows per (experiment, sampler, dim): mean and spread over
    replicates, with a flag when a 25%-target sampler leaves the acceptance
    band."""
    header = (
        f"{'experiment':<14}{'sampler':<14}{'dim':>4}{'reps':>6}  "
        f"{'acceptance':<22}{'tau_hat':<22}{'ess':<22}{'evidence':<22}flags"
    )
    if not rows:
        return header + "\n(no rows)"
    keys = sorted({(r.experiment, r.sampler, r.dim) for r in rows})
    lines = [header]
    for experiment, sampler, dim in keys:
        group = [r for r in rows
                 if (r.experiment, r.sampler, r.dim) == (experiment, sampler, dim)]
        accs = [r.acceptance_fraction for r in group]
        flags = []
        spec = SAMPLERS.get(sampler)
        if spec is not None and spec.in_band and not (
            ACCEPTANCE_BAND[0] <= float(np.mean(accs)) <= ACCEPTANCE_BAND[1]
        ):
            flags.append("ACCEPTANCE-BAND")
        lines.append(
            f"{experiment:<14}{sampler:<14}{dim:>4}{len(group):>6}  "
            f"{_mean_spread(accs):<22}"
            f"{_mean_spread([r.tau_hat for r in group]):<22}"
            f"{_mean_spread([r.ess for r in group]):<22}"
            f"{_mean_spread([r.evidence_hat for r in group]):<22}"
            f"{' '.join(flags)}"
        )
    return "\n".join(lines)
