"""Experiment harness: configs, CSV schema, determinism, reporting."""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mcmclab import cli, diagnostics, ensemble, harness
from mcmclab.ensemble import ENSEMBLE_METHODS, MIN_CHAINS, EnsembleState
from mcmclab.errors import ConfigError, ResourceLimitError, ZeroVarianceError
from mcmclab.harness import (
    _keys_used,
    EXERCISE_CSV_HEADER,
    EXERCISES,
    SAMPLERS,
    SCALING_CSV_HEADER,
    SCALING_SAMPLERS,
    ExperimentConfig,
    config_from_sources,
    parse_config_file,
    read_scaling_rows,
    report_table,
    run_exercise,
    run_scaling,
    scaling_csv_text,
    write_exercise_csv,
    write_scaling_csv,
)


# every run: each exercise, and the scaling battery with each sampler
RUNS = [(name, None) for name in EXERCISES] + [("scaling", name) for name in SAMPLERS]


def strip_wall_time(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def blank_wall_time(csv_text: str) -> str:
    """``csv_text`` with every ``wall_time_s`` field emptied, if it has that column."""
    lines = csv_text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[header].split(",")
    if "wall_time_s" not in names:
        return csv_text
    col = names.index("wall_time_s")
    for i in range(header + 1, len(lines)):
        fields = lines[i].split(",")
        fields[col] = ""
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def quantities(rows):
    return {(case, quantity): value for _, case, quantity, _, value in rows}


class TestConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig("scaling", sampler="mh-fixed")
        assert cfg.n == 20_000
        assert cfg.proposal_scale(9) == pytest.approx(np.sqrt(2.0))
        adaptive = ExperimentConfig("scaling", sampler="mh-adaptive")
        assert adaptive.proposal_scale(25) == pytest.approx(0.5)
        de = ExperimentConfig("scaling", sampler="ens-de")
        assert de.n == 1500
        assert de.proposal_scale(4) == pytest.approx(1.7 / 2.0)

    def test_explicit_gamma_overrides_delta_rule(self):
        cfg = ExperimentConfig("scaling", sampler="mh-adaptive", gamma=0.7)
        assert cfg.proposal_scale(100) == 0.7

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("unknown-thing")
        with pytest.raises(ConfigError):
            ExperimentConfig("scaling", sampler="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig("scaling", sampler="mh-fixed", dims=(0,))
        with pytest.raises(ConfigError):
            ExperimentConfig("mh-2d", burn_in=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig("scaling", sampler="ens-stretch", a=1.0)

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text(
            "[mh-adaptive]\n"
            "dims = 2,5\n"
            "n = 500\n"
            "replicates = 3\n"
            "seed = 99\n"
            "\n"
            "[importance-2d]\n"
            "n = 2000  # comment\n"
        )
        vals = parse_config_file(str(path), "mh-adaptive")
        assert vals == {"dims": (2, 5), "n": 500, "replicates": 3, "seed": 99}
        vals = parse_config_file(str(path), "importance-2d")
        assert vals == {"n": 2000}

    def test_exercise_keys(self):
        # the exercises are fixed problems: only their sizes are settable
        assert _keys_used("noisy-mean") == _keys_used("grid-2d") == {"seed", "out"}
        assert _keys_used("mh-2d") == {"seed", "out", "n", "burn_in"}

    def test_every_key_parses_to_its_field_type(self, tmp_path):
        # one valid value per annotated type; each fails to parse as the others
        text = {int: "3", float: "1.25", tuple: "2,5", str: "rows.csv"}
        annotations = {
            f.name: f.type for f in dataclasses.fields(ExperimentConfig)
        }

        def value_type(key):
            return next(t for t in (int, float, tuple, str)
                        if annotations[key] in (t, t | None))

        path = tmp_path / "every.cfg"
        for experiment, sampler in RUNS:
            name = sampler or experiment
            keys = _keys_used(experiment, sampler)
            path.write_text(f"[{name}]\n" + "".join(
                f"{key} = {text[value_type(key)]}\n" for key in keys
            ))
            vals = parse_config_file(str(path), name)
            assert set(vals) == keys
            for key, val in vals.items():
                assert type(val) is value_type(key), (name, key, val)
            for key in annotations.keys() - keys:
                path.write_text(f"[{name}]\n{key} = {text[value_type(key)]}\n")
                with pytest.raises(ConfigError, match=f"^{name} does not use {key}$"):
                    config_from_sources(experiment, sampler, config_path=str(path))

    @pytest.mark.parametrize("experiment, sampler", RUNS)
    def test_seed_out_and_jobs_accepted(self, experiment, sampler):
        # every run takes --seed and --out, and every sampler --jobs
        overrides = {"seed": 3, "out": "rows.csv"}
        if sampler is not None:
            overrides["jobs"] = 2
        cfg = config_from_sources(experiment, sampler, overrides=overrides)
        for key, val in overrides.items():
            assert getattr(cfg, key) == val

    def test_run_defaults(self):
        assert ExperimentConfig("scaling", sampler="ens-de").replicates == 1
        importance = ExperimentConfig("importance-2d")
        assert (importance.n, importance.replicates) == (10_000, 100)
        assert ExperimentConfig("mh-2d").n == 1000

    def test_sampler_table_matches_cli_and_ensemble(self):
        subcommands = next(
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices
        scaling = subcommands["scaling"]
        sampler = next(a for a in scaling._actions if a.dest == "sampler")
        assert tuple(sampler.choices) == SCALING_SAMPLERS == tuple(SAMPLERS)
        for spec in SAMPLERS.values():
            assert spec.move is None or spec.move in ENSEMBLE_METHODS
            assert spec.gamma is None or spec.delta is None
        # each subcommand has a flag for exactly the keys its runs read,
        # generated in field order, and no argparse type of its own
        order = [f.name for f in dataclasses.fields(ExperimentConfig)]
        for command, runs in [("exercise", [(n, None) for n in EXERCISES]),
                              ("scaling", [("scaling", s) for s in SAMPLERS])]:
            flags = [a for a in subcommands[command]._actions
                     if a.option_strings and a.dest not in ("help", "config")]
            used = set().union(*(_keys_used(*run) for run in runs))
            assert [a.dest for a in flags] == [key for key in order if key in used]
            for action in flags:
                assert action.option_strings == ["--" + action.dest.replace("_", "-")]
                assert action.type is None
        # the samplers between them read every key
        assert used == set(order) - {"experiment", "sampler"}
        for f in dataclasses.fields(ExperimentConfig):
            if f.name not in ("experiment", "sampler"):
                assert f.metadata["help"].strip(), f.name

    # text a flag or a file line may hold for each key, and the value it means
    KEY_TEXT = {"dims": ("3,7", (3, 7)), "n": ("321", 321), "m": ("12", 12),
                "replicates": ("3", 3), "burn_in": ("0.25", 0.25),
                "gamma": ("0.75", 0.75), "delta": ("1.5", 1.5), "a": ("2.5", 2.5),
                "seed": ("42", 42), "out": ("rows.csv", "rows.csv"),
                "jobs": ("2", 2), "budget": ("123456789", 123456789)}

    @pytest.mark.parametrize("experiment, sampler", RUNS)
    def test_flag_and_file_text_give_equal_configs(self, experiment, sampler, tmp_path):
        name = sampler or experiment
        for key in sorted(_keys_used(experiment, sampler)):
            # gamma and delta exclude each other, so each is set alone
            text, value = self.KEY_TEXT[key]
            path = tmp_path / "lab.cfg"
            path.write_text(f"[{name}]\n{key} = {text}\n")
            from_file = config_from_sources(experiment, sampler, config_path=str(path))
            command = ["scaling", sampler] if sampler else ["exercise", experiment]
            args = cli._build_parser().parse_args(
                [*command, "--" + key.replace("_", "-"), text])
            from_flag = config_from_sources(experiment, sampler,
                                            overrides=cli._overrides(args))
            assert from_flag == from_file
            assert getattr(from_flag, key) == value

    @pytest.mark.parametrize("name", [n for n, s in SAMPLERS.items() if s.move])
    def test_too_few_chains_rejected(self, name):
        fewest = MIN_CHAINS[SAMPLERS[name].move]
        ExperimentConfig("scaling", sampler=name, m=fewest)
        with pytest.raises(ConfigError):
            ExperimentConfig("scaling", sampler=name, m=fewest - 1)

    @pytest.mark.parametrize("name", ["n", "replicates", "jobs", "budget"])
    def test_counts_below_one_rejected(self, name):
        ExperimentConfig("scaling", sampler="mh-fixed", **{name: 1})
        with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
            ExperimentConfig("scaling", sampler="mh-fixed", **{name: 0})

    def test_override_of_the_wrong_type_is_a_config_error(self):
        # the config's own comparison raises TypeError on text; the caller
        # sees the one error type a bad config gets
        with pytest.raises(ConfigError):
            config_from_sources("scaling", sampler="mh-fixed", overrides={"n": "5"})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[noisy-mean]\nwalkers = 7\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path), "noisy-mean")

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "lab.cfg"
        path.write_text("[mh-adaptive]\nn = 500\nseed = 99\n")
        cfg = config_from_sources(
            "scaling", sampler="mh-adaptive", config_path=str(path),
            overrides={"n": 750, "seed": None},
        )
        assert cfg.n == 750
        assert cfg.seed == 99

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("MCMCLAB_SEED", "314")
        cfg = config_from_sources("noisy-mean")
        assert cfg.seed == 314
        monkeypatch.setenv("MCMCLAB_SEED", "pi")
        with pytest.raises(ConfigError):
            config_from_sources("noisy-mean")


@pytest.fixture(scope="module")
def small_scaling_rows():
    cfg = ExperimentConfig(
        "scaling", sampler="mh-adaptive", dims=(2, 3), n=1200, replicates=2, seed=11
    )
    return cfg, run_scaling(cfg)


class TestScaling:
    def test_rows_in_deterministic_order(self, small_scaling_rows):
        _, rows = small_scaling_rows
        assert [(r.dim, r.replicate) for r in rows] == [
            (2, 0), (2, 1), (3, 0), (3, 1)
        ]

    def test_row_invariants(self, small_scaling_rows):
        cfg, rows = small_scaling_rows
        for row in rows:
            assert 0.0 <= row.acceptance_fraction <= 1.0
            assert row.ess <= row.n
            assert row.tau_hat >= 0.0

    def test_csv_bytes_reproducible(self, small_scaling_rows):
        cfg, rows = small_scaling_rows
        text_a = strip_wall_time(scaling_csv_text(rows))
        text_b = strip_wall_time(scaling_csv_text(run_scaling(cfg)))
        assert text_a == text_b

    def test_adding_replicates_keeps_earlier_rows(self, small_scaling_rows):
        cfg, rows = small_scaling_rows
        bigger = dataclasses.replace(cfg, replicates=3)
        rows3 = run_scaling(bigger)
        by_key = {(r.dim, r.replicate): r for r in rows3}
        for row in rows:
            other = by_key[(row.dim, row.replicate)]
            assert other.seed == row.seed
            assert other.acceptance_fraction == row.acceptance_fraction
            assert other.mean_0 == row.mean_0

    def test_csv_round_trip(self, small_scaling_rows, tmp_path):
        _, rows = small_scaling_rows
        ensemble = run_scaling(ExperimentConfig(
            "scaling", sampler="ens-stretch", dims=(2,), n=60, m=12, seed=5,
        ))
        one_dim = run_scaling(ExperimentConfig(
            "scaling", sampler="mh-fixed", dims=(1,), n=300, seed=5,
        ))
        rows = [*rows, *ensemble, *one_dim]
        assert ensemble[0].m == 12 and one_dim[0].mean_1 is None
        path = tmp_path / "rows.csv"
        write_scaling_csv(str(path), rows)
        text = path.read_text()
        assert text.startswith("# schema=1\n")
        assert text.splitlines()[1] == ",".join(SCALING_CSV_HEADER)
        back = read_scaling_rows([str(path)])
        assert len(back) == len(rows)
        for a, b in zip(back, rows):
            for name in SCALING_CSV_HEADER[:-1]:
                # repr tells None, types and every float bit apart
                assert repr(getattr(a, name)) == repr(getattr(b, name)), name
            assert f"{a.wall_time_s:.3f}" == f"{b.wall_time_s:.3f}"

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=1\nfoo,bar\n1,2\n")
        with pytest.raises(ConfigError):
            read_scaling_rows([str(path)])

    def test_budget_guard(self):
        cfg = ExperimentConfig(
            "scaling", sampler="ens-gaussian", dims=(10,), n=10_000,
            m=100, replicates=100, budget=10_000_000,
        )
        with pytest.raises(ResourceLimitError):
            run_scaling(cfg)

    def test_ensemble_rows_have_m_and_empty_evidence_above_dim5(self):
        cfg = ExperimentConfig(
            "scaling", sampler="ens-stretch", dims=(2, 6), n=60, m=12,
            replicates=1, seed=5,
        )
        rows = run_scaling(cfg)
        assert all(r.m == 12 for r in rows)
        assert rows[0].evidence_hat is not None
        assert rows[1].evidence_hat is None

    @pytest.mark.parametrize("dims, replicates, jobs, workers", [
        ((2,), 1, 64, []),
        ((1, 2), 1, 64, [2]),
        ((1, 2), 3, 64, [6]),
        ((1, 2), 3, 4, [4]),
    ])
    def test_jobs_capped_at_cells(self, dims, replicates, jobs, workers, monkeypatch):
        created = []

        class InProcessPool:
            """Records ``max_workers`` and maps in this process."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = ExperimentConfig("scaling", sampler="mh-fixed", dims=dims, n=50,
                               replicates=replicates, jobs=jobs)
        rows = run_scaling(cfg)
        assert created == workers
        assert [(r.dim, r.replicate) for r in rows] == [
            (d, r) for d in dims for r in range(replicates)
        ]

    def test_jobs_do_not_change_rows(self):
        cfg1 = ExperimentConfig(
            "scaling", sampler="mh-adaptive", dims=(2,), n=800, replicates=2,
            seed=21, jobs=1,
        )
        cfg2 = ExperimentConfig(
            "scaling", sampler="mh-adaptive", dims=(2,), n=800, replicates=2,
            seed=21, jobs=2,
        )
        assert strip_wall_time(scaling_csv_text(run_scaling(cfg1))) == (
            strip_wall_time(scaling_csv_text(run_scaling(cfg2)))
        )

    @pytest.mark.parametrize("sampler, n, dim, m", [
        ("mh-adaptive", 1200, 3, 8), ("ens-stretch", 200, 3, 8), ("ens-de", 60, 3, 8),
        ("ens-gaussian", 300, 20, 100),
    ])
    def test_cell_tau_matches_the_per_chain_loop(self, sampler, n, dim, m, monkeypatch):
        # one tau call per cell gives each chain's mean bit for bit as one
        # call per chain did (n=60 leaves too few samples: NaN either way);
        # d=20, m=100 is the bench's width, 2000 columns in 30 blocks
        runs = []

        def recording(run):
            def recorded(*args, **kwargs):
                runs.append(run(*args, **kwargs))
                return runs[-1]
            return recorded

        for name in ("run_chain", "run_ensemble"):
            monkeypatch.setattr(harness, name, recording(getattr(harness, name)))
        cfg = ExperimentConfig("scaling", sampler=sampler, dims=(dim,), n=n, m=m, seed=7)
        row = harness._scaling_row(cfg, dim, 0)
        (run,) = runs
        # an ensemble records only the sweeps after its burn-in
        burn = int(np.floor(cfg.burn_in * n))
        hist = run.history if sampler.startswith("ens-") else run.states[burn:, None, :]
        assert hist.shape[0] == n - burn
        chain_taus = []
        for j in range(hist.shape[1]):
            taus = diagnostics.per_coordinate_tau(hist[:, j, :])
            chain_taus.append(float("nan") if any(t.insufficient_data for t in taus)
                              else float(np.mean([t.tau for t in taus])))
        ess = np.mean([diagnostics.ess_from_tau(hist.shape[0], t) for t in chain_taus])
        assert repr((row.tau_hat, row.ess)) == repr((float(np.mean(chain_taus)), float(ess)))

    def test_frozen_walker_is_named(self, monkeypatch):
        run_ensemble = harness.run_ensemble

        def freeze_walker(*args, **kwargs):
            # history is rebuilt from the trail: pin walker 3's coordinate 1
            # in its start and in every move it keeps
            state = run_ensemble(*args, **kwargs)
            walker = np.nonzero(state.accepted[state.burn_in:])[1]
            m = state.positions.shape[0]
            state.trail[3, 1] = 0.25
            state.trail[m:][walker == 3, 1] = 0.25
            return state

        monkeypatch.setattr(harness, "run_ensemble", freeze_walker)
        cfg = ExperimentConfig("scaling", sampler="ens-stretch", dims=(2,), n=200, m=8)
        with pytest.raises(ZeroVarianceError, match=(
            "^ens-stretch d=2 replicate 0 walker 3 coordinate 1: "
            "series column 7 has zero variance$"
        )):
            harness._scaling_row(cfg, 2, 0)

    def test_ensemble_cell_records_only_kept_sweeps(self):
        # the bench's ens-stretch cell: its 1200 kept sweeps are 18.3 MiB of
        # history; storing all 1500 and slicing after the run peaked at 26.4
        # MiB, and the dense history of the kept sweeps alone at 21.7 MiB.
        # Their accepted moves, about 30% of it, peak at 11.2 MiB.
        cfg = ExperimentConfig("scaling", sampler="ens-stretch", dims=(20,), n=1500, m=100)
        tracemalloc.start()
        try:
            harness._scaling_row(cfg, 20, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20

    def test_ensemble_cell_beyond_the_evidence_builds_no_history(self, monkeypatch):
        # tau reads whole-walker blocks and the summaries two rebuilt
        # coordinates; only the evidence histogram, at d <= 5, reads them all
        rebuild, widths = EnsembleState.coordinate_history, []

        def recorded(state, coords):
            widths.append(rebuild(state, coords).shape[2])
            return rebuild(state, coords)

        def dense(state):
            raise AssertionError("the dense history was built")

        monkeypatch.setattr(EnsembleState, "coordinate_history", recorded)
        monkeypatch.setattr(EnsembleState, "history", property(dense))
        for dim in (6, 5):
            cfg = ExperimentConfig("scaling", sampler="ens-stretch", dims=(dim,), n=200, m=12)
            assert (harness._scaling_row(cfg, dim, 0).evidence_hat is None) == (dim == 6)
        assert widths == [2, 5]

    @pytest.mark.parametrize("sampler, dim, m", [
        ("ens-stretch", 3, 9), ("ens-de", 7, 20), ("ens-gaussian", 20, 100)])
    @pytest.mark.parametrize("block_bytes", [1, 8 * 160 * 20 * 3])
    def test_walker_blocks_leave_the_row_unchanged(self, sampler, dim, m, block_bytes,
                                                   monkeypatch):
        # one walker per block, and blocks that split the walkers unevenly,
        # give the row one dense block gives, to the bit
        cfg = ExperimentConfig("scaling", sampler=sampler, dims=(dim,), n=200, m=m, seed=3)
        monkeypatch.setattr(ensemble, "_BLOCK_BYTES", 2**40)
        whole = harness._scaling_row(cfg, dim, 0)
        monkeypatch.setattr(ensemble, "_BLOCK_BYTES", block_bytes)
        blocked = harness._scaling_row(cfg, dim, 0)
        assert repr(dataclasses.replace(blocked, wall_time_s=0.0)) == repr(
            dataclasses.replace(whole, wall_time_s=0.0))


class TestExercises:
    def test_noisy_mean_quantities(self):
        cfg = ExperimentConfig("noisy-mean")
        rows, text = run_exercise(cfg)
        vals = quantities(rows)
        assert vals[("default", "posterior_mean")] == pytest.approx(29.44, abs=0.01)
        assert vals[("default", "posterior_sd")] == pytest.approx(0.396, abs=0.005)
        assert vals[("default", "ci95_lo")] < vals[("default", "ci50_lo")]
        assert "noisy-mean" in text

    def test_grid_2d_consistency_story(self):
        cfg = ExperimentConfig("grid-2d")
        rows, _ = run_exercise(cfg)
        vals = quantities(rows)
        z_small = vals[("5x5[-2,2]", "evidence")]
        z_refined_small_box = vals[("100x100[-2,2]", "evidence")]
        z_big = vals[("100x100[-5,5]", "evidence")]
        # converged on the small box, but to the wrong value
        assert abs(z_refined_small_box - vals[("20x20[-2,2]", "evidence")]) < 0.01
        assert abs(z_refined_small_box - 2 * np.pi) > 1.0
        assert z_big == pytest.approx(2 * np.pi, rel=0.01)
        assert z_small != pytest.approx(2 * np.pi, rel=0.01)

    def test_importance_2d_quantities(self):
        cfg = ExperimentConfig("importance-2d", n=4000, replicates=25)
        rows, _ = run_exercise(cfg)
        vals = quantities(rows)
        se = vals[("replicates", "evidence_se")]
        assert vals[("replicates", "evidence_mean")] == pytest.approx(
            2 * np.pi, abs=4 * se
        )
        assert vals[("sigma2", "kish_ess")] < 4000

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("replicates, count", [(None, "100.0"), (1, "1.0")])
    def test_importance_2d_replicate_count(self, replicates, count, tmp_path):
        config = "[importance-2d]\nn = 200\n"
        if replicates is not None:
            config += f"replicates = {replicates}\n"
        (tmp_path / "lab.cfg").write_text(config)
        out = tmp_path / "is.csv"
        argv = ["exercise", "importance-2d", "--config", str(tmp_path / "lab.cfg")]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert f"importance-2d,replicates,count,,{count}" in out.read_text().splitlines()

    def test_mh_2d_trace_emitted(self):
        cfg = ExperimentConfig("mh-2d", n=400)
        rows, _ = run_exercise(cfg)
        trace_rows = [r for r in rows if r[1] == "start-10-10"]
        assert len(trace_rows) == 2 * 400
        # trace starts near the far start and ends near the mode
        xs = [r[4] for r in trace_rows if r[2] == "trace_x"]
        assert xs[0] > 5.0
        assert abs(xs[-1]) < 5.0

    def test_exercise_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig("noisy-mean")
        rows, _ = run_exercise(cfg)
        path = tmp_path / "ex.csv"
        write_exercise_csv(str(path), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == ",".join(EXERCISE_CSV_HEADER)
        assert len(lines) == 2 + len(rows)


class TestReport:
    def test_empty_input(self):
        table = report_table([])
        assert "(no rows)" in table

    def test_single_row_aggregates_to_itself(self, small_scaling_rows):
        _, rows = small_scaling_rows
        table = report_table(rows[:1])
        assert f"{rows[0].acceptance_fraction:.4g}" in table

    def test_acceptance_band_flag(self, small_scaling_rows):
        _, rows = small_scaling_rows
        bad = [dataclasses.replace(rows[0], acceptance_fraction=0.02)]
        table = report_table(bad)
        assert "ACCEPTANCE-BAND" in table
        good_table = report_table(rows)
        assert "ACCEPTANCE-BAND" not in good_table

    def test_replicate_spread_consistent_with_ess(self):
        # 30 replicates of the 2-D chain: the spread of mean_0 should match
        # the ESS-based standard error prediction within a factor of 2
        cfg = ExperimentConfig(
            "scaling", sampler="mh-adaptive", dims=(2,), n=1000, replicates=30,
            seed=2024,
        )
        rows = run_scaling(cfg)
        assert len(rows) == 30
        means = np.array([r.mean_0 for r in rows])
        esses = np.array([r.ess for r in rows])
        observed = means.std(ddof=1)
        predicted = np.sqrt(1.0 / esses).mean()  # unit-variance target
        assert observed == pytest.approx(predicted, rel=1.0)  # within factor 2
        table = report_table(rows)
        assert "mh-adaptive" in table


class TestCli:
    def _run(self, *args, env=None):
        full_env = dict(os.environ)
        if env:
            full_env.update(env)
        return subprocess.run(
            [sys.executable, "-m", "mcmclab.cli", *args],
            capture_output=True, text=True, env=full_env,
        )

    def test_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; a fresh interpreter is needed
        # because the tests themselves import scipy as their oracle
        code = ("import sys, mcmclab, mcmclab.cli, mcmclab.harness; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    def test_serial_runs_load_no_process_pool(self, tmp_path):
        # the pool is imported by a scaling run with --jobs > 1 only; the
        # --jobs 2 tests cover that path
        out = str(tmp_path / "sc.csv")
        code = ("import sys\nfrom mcmclab.cli import main\n"
                "pool = ('concurrent.futures', 'multiprocessing')\n"
                "print([m for m in pool if m in sys.modules])\n"
                "main(['scaling', 'mh-fixed', '--dims', '2', '--n', '200', '--jobs', '1', "
                f"'--out', {out!r}])\n"
                "print([m for m in pool if m in sys.modules])")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == lines[-1] == "[]"

    def test_exercises_load_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on first use, 0.02 s per interpreter
        out = str(tmp_path / "ex.csv")
        code = ("import sys\nfrom mcmclab.cli import main\n"
                f"for name in {list(EXERCISES)!r}:\n"
                f"    main(['exercise', name, '--out', {out!r}])\n"
                "print('numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(harness.__file__))}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "False"

    def test_exercise_command(self, tmp_path):
        out = tmp_path / "nm.csv"
        res = self._run("exercise", "noisy-mean", "--seed", "3", "--out", str(out))
        assert res.returncode == 0
        assert out.exists()
        assert "noisy-mean" in res.stdout

    def test_scaling_command_and_report(self, tmp_path):
        out = tmp_path / "rows.csv"
        res = self._run(
            "scaling", "mh-adaptive", "--dims", "2", "--n", "600",
            "--replicates", "2", "--seed", "8", "--out", str(out),
        )
        assert res.returncode == 0
        rep = self._run("report", str(out))
        assert rep.returncode == 0
        assert "mh-adaptive" in rep.stdout

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[noisy-mean]\nnot_a_key = 1\n")
        res = self._run("exercise", "noisy-mean", "--config", str(bad))
        assert res.returncode == 2

    def test_unknown_sampler_exit_code(self):
        res = self._run("scaling", "mh-warp")
        assert res.returncode == 2

    @pytest.mark.parametrize("fault", ["dim", "short"])
    def test_malformed_report_row_exit_code(self, fault, small_scaling_rows, tmp_path):
        _, rows = small_scaling_rows
        path = tmp_path / "rows.csv"
        write_scaling_csv(str(path), rows)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        if fault == "dim":
            cells[1] = "two"
        else:
            cells = cells[:4]
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        res = self._run("report", str(path))
        assert res.returncode == 2
        assert f"{path}: row 2" in res.stderr

    @pytest.mark.parametrize("args, env, config", [
        (("mh-fixed", "--seed", "-1"), None, None),
        (("mh-fixed",), {"MCMCLAB_SEED": "-1"}, None),
        (("mh-fixed",), None, "[mh-fixed]\nseed = -1\n"),
        (("ens-stretch", "--m", "1"), None, None),
        (("ens-gaussian", "--m", "2"), None, None),
        (("ens-de", "--m", "2"), None, None),
    ], ids=["seed-flag", "seed-env", "seed-file", "stretch-m1", "gaussian-m2", "de-m2"])
    def test_bad_seed_or_chain_count_exit_code(self, args, env, config, tmp_path,
                                               monkeypatch):
        argv = ["scaling", *args, "--dims", "2", "--out", str(tmp_path / "never.csv")]
        if config is not None:
            (tmp_path / "lab.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "lab.cfg")]
        for key, val in (env or {}).items():
            monkeypatch.setenv(key, val)
        assert cli.main(argv) == 2
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("args, config, named", [
        (("mh-fixed", "--gamma", "nan"), None, "gamma must be positive and finite"),
        (("mh-adaptive", "--delta", "nan"), None, "delta must be positive and finite"),
        (("ens-stretch", "--a", "nan"), None, "a must exceed 1 and be finite"),
        (("ens-stretch", "--a", "inf"), None, "a must exceed 1 and be finite"),
        (("ens-gaussian", "--gamma", "inf", "--m", "10"), None,
         "gamma must be positive and finite"),
        (("mh-adaptive", "--gamma", "1", "--delta", "2"), None, "not both"),
        (("mh-adaptive", "--delta", "2"), "[mh-adaptive]\ngamma = 1\n", "not both"),
    ], ids=["gamma-nan", "delta-nan", "a-nan", "a-inf", "gamma-inf", "gamma-and-delta",
            "gamma-file-and-delta-flag"])
    def test_bad_scale_exit_code(self, args, config, named, tmp_path, capsys):
        argv = ["scaling", *args, "--dims", "2", "--n", "200",
                "--out", str(tmp_path / "never.csv")]
        if config is not None:
            (tmp_path / "lab.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "lab.cfg")]
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("args, config, named", [
        (("ens-stretch", "--gamma", "5"), None, "gamma"),
        (("ens-stretch", "--delta", "3"), None, "delta"),
        (("ens-stretch",), "[ens-stretch]\ngamma = 5\n", "gamma"),
        (("mh-fixed", "--m", "77"), None, "m"),
        (("mh-adaptive",), "[mh-adaptive]\nm = 77\n", "m"),
        (("mh-fixed", "--a", "3"), None, "a"),
        (("ens-gaussian", "--a", "3"), None, "a"),
        (("ens-de",), "[ens-de]\na = 3\n", "a"),
    ], ids=["stretch-gamma", "stretch-delta", "stretch-gamma-file", "fixed-m",
            "adaptive-m-file", "fixed-a", "gaussian-a", "de-a-file"])
    def test_key_the_sampler_ignores_exit_code(self, args, config, named, tmp_path, capsys):
        argv = ["scaling", *args, "--dims", "2", "--out", str(tmp_path / "never.csv")]
        if config is not None:
            (tmp_path / "lab.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "lab.cfg")]
        assert cli.main(argv) == 2
        assert f"{args[0]} does not use {named}" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("name, config, named", [
        ("mh-2d", "replicates = 7", "replicates"),
        ("noisy-mean", "n = 5", "n"),
    ])
    def test_key_the_exercise_ignores_exit_code(self, name, config, named, tmp_path,
                                                capsys):
        (tmp_path / "lab.cfg").write_text(f"[{name}]\n{config}\n")
        argv = ["exercise", name, "--config", str(tmp_path / "lab.cfg"),
                "--out", str(tmp_path / "never.csv")]
        assert cli.main(argv) == 2
        assert f"{name} does not use {named}" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("dims", ["2,2", "2,,5", "2,5,", "5,2,5"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_repeated_or_empty_dims_exit_code(self, dims, source, tmp_path):
        argv = ["scaling", "mh-fixed", "--n", "50", "--out", str(tmp_path / "never.csv")]
        if source == "flag":
            argv += ["--dims", dims]
        else:
            (tmp_path / "lab.cfg").write_text(f"[mh-fixed]\ndims = {dims}\n")
            argv += ["--config", str(tmp_path / "lab.cfg")]
        assert cli.main(argv) == 2
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("argv, config", [
        (["exercise", "importance-2d", "--n", "2000", "--replicates", "3"],
         "n = 2000\nreplicates = 3"),
        (["exercise", "mh-2d", "--n", "500", "--burn-in", "0.3"], "n = 500\nburn_in = 0.3"),
    ], ids=["importance-2d", "mh-2d"])
    def test_exercise_flags_match_the_file(self, argv, config, tmp_path):
        (tmp_path / "lab.cfg").write_text(f"[{argv[1]}]\n{config}\n")
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
        assert cli.main([*argv, "--out", str(by_flag)]) == 0
        assert cli.main([*argv[:2], "--config", str(tmp_path / "lab.cfg"),
                         "--out", str(by_file)]) == 0
        assert by_flag.read_bytes() == by_file.read_bytes()

    def test_exercise_flag_the_run_ignores_exit_code(self, tmp_path, capsys):
        argv = ["exercise", "noisy-mean", "--n", "5", "--out", str(tmp_path / "never.csv")]
        assert cli.main(argv) == 2
        assert "noisy-mean does not use n" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("args, config, env, source", [
        (("--n", "abc"), None, None, "--n: bad value for n: 'abc'"),
        (("--dims", "2,,5"), None, None, "--dims: bad value for dims: '2,,5'"),
        ((), "n = abc", None, "lab.cfg:2: bad value for n: 'abc'"),
        ((), None, "pi", "MCMCLAB_SEED: bad value for seed: 'pi'"),
    ], ids=["n-flag", "dims-flag", "n-file", "seed-env"])
    def test_bad_value_names_its_source(self, args, config, env, source, tmp_path,
                                        monkeypatch, capsys):
        argv = ["scaling", "mh-fixed", *args, "--out", str(tmp_path / "never.csv")]
        if config is not None:
            (tmp_path / "lab.cfg").write_text(f"[mh-fixed]\n{config}\n")
            argv += ["--config", str(tmp_path / "lab.cfg")]
        if env is not None:
            monkeypatch.setenv("MCMCLAB_SEED", env)
        assert cli.main(argv) == 2
        assert source in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("config, where", [
        ("n = 50\n[mh-fixed]\n", ":1: key 'n' before any [section]"),
        ("[mh-fixed]\nn = 50\n[noisy-mean]\nwalkers = 7\n",
         ":4: unknown key 'walkers' for [noisy-mean]"),
        ("[mh-fixed]\nn = 50\n\n[noisy-mean]\ngrid_cells = 20000\n",
         ":5: unknown key 'grid_cells' for [noisy-mean]"),
        ("[mh-fixd]\nn = 50\n", ":1: unknown section [mh-fixd]"),
        ("[mh-fixed]\nn = 50\n\n[scaling]\nseed = 3\n", ":4: unknown section [scaling]"),
    ], ids=["before-section", "other-section", "removed-key", "misspelt-section",
            "experiment-section"])
    def test_unchecked_config_line_exit_code(self, config, where, tmp_path, capsys):
        path = tmp_path / "lab.cfg"
        path.write_text(config)
        argv = ["scaling", "mh-fixed", "--dims", "2", "--config", str(path),
                "--out", str(tmp_path / "never.csv")]
        assert cli.main(argv) == 2
        assert f"{path}{where}" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    def test_undecodable_config_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[mh-fixed]\n\xae\xff\n")
        argv = ["scaling", "mh-fixed", "--dims", "2", "--config", str(path),
                "--out", str(tmp_path / "never.csv")]
        assert cli.main(argv) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    def test_keys_the_sampler_uses_are_accepted(self):
        for sampler, overrides in [
            ("mh-adaptive", {"gamma": 0.5}),
            ("mh-fixed", {"delta": 2.0}),
            ("ens-de", {"gamma": 0.3, "m": 10}),
            ("ens-stretch", {"a": 3.0, "m": 10}),
        ]:
            cfg = config_from_sources("scaling", sampler=sampler, overrides=overrides)
            for key, val in overrides.items():
                assert getattr(cfg, key) == val

    # None drops the version line, so the header comes first
    @pytest.mark.parametrize("first", ["# schema=2", None])
    def test_report_checks_the_schema_line(self, first, small_scaling_rows, tmp_path, capsys):
        _, rows = small_scaling_rows
        path = tmp_path / "rows.csv"
        write_scaling_csv(str(path), rows)
        lines = path.read_text().splitlines()
        assert cli.main(["report", str(path)]) == 0
        if first is None:
            del lines[0]
        else:
            lines[0] = first
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["report", str(path)]) == 2
        assert f"{path}: first line" in capsys.readouterr().err

    def test_report_rejects_an_undecodable_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        path.write_bytes(b"# schema=1\n\xae\xff\n")
        assert cli.main(["report", str(path)]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_frozen_scaling_chain_names_its_cell(self, jobs, tmp_path, capsys):
        # at d=60 this fixed-scale chain accepts no step in 300, so its
        # tau series has zero variance
        out = tmp_path / "never.csv"
        argv = ["scaling", "mh-fixed", "--dims", "60", "--n", "300", "--seed", "1905",
                "--replicates", "2", "--jobs", jobs, "--out", str(out)]
        assert cli.main(argv) == 4
        assert capsys.readouterr().err == (
            "numerical failure: mh-fixed d=60 replicate 0: series column 0 has zero variance\n"
        )
        assert not out.exists()

    def test_resource_guard_exit_code(self, tmp_path):
        res = self._run(
            "scaling", "ens-gaussian", "--dims", "10", "--n", "100000",
            "--replicates", "1000", "--budget", "1000",
            "--out", str(tmp_path / "never.csv"),
        )
        assert res.returncode == 3

    def test_env_seed_changes_output(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        out_c = tmp_path / "c.csv"
        base = ("scaling", "mh-adaptive", "--dims", "2", "--n", "400")
        self._run(*base, "--out", str(out_a), env={"MCMCLAB_SEED": "1"})
        self._run(*base, "--out", str(out_b), env={"MCMCLAB_SEED": "2"})
        self._run(*base, "--out", str(out_c), env={"MCMCLAB_SEED": "1"})
        assert strip_wall_time(out_a.read_text()) != strip_wall_time(out_b.read_text())
        assert strip_wall_time(out_a.read_text()) == strip_wall_time(out_c.read_text())


# sha256 of each fixed-seed CSV with its wall_time_s fields blanked.  The
# single-chain and ensemble samplers' output is pinned bit for bit: a change
# to any digest is a change to the chains' streams or arithmetic, made on
# purpose and recorded with its size.  Recorded with numpy 2.4.6, the
# version .github/constraints.txt pins: another numpy, or another CPU's BLAS
# or FFT kernels, may change a CSV's last bits with no fault in the code.
PINNED_CSV_DIGESTS = {
    "scaling mh-fixed": "ad62e1e502ec0e43b2d1c837144d24947c5a37f665cae335993b11298360713e",
    "scaling mh-adaptive": "58da67776bfa7d2b14e4afcd44d1417ee1ab79a7e2b8bc1aca91bed1ff25ac88",
    "exercise mh-2d": "9dd930990a042f4ea06c70652e5c32eeda72f560a6f1c4d0ac55996f4d59a840",
    "exercise noisy-mean": "4240d8f249ebeb1c31b3a19daac1ecedff9d02f4f8c49baaf9427c7905385abb",
    "exercise grid-2d": "bf9ad1dc1ecff4d923dce3315f53fcba30f5d6d1ebf4a88304ca2ac134736ad8",
    "exercise importance-2d": "5158135e5a89d6544ec413b8863fe4264d263f3b349b5810d3453eba24e44489",
    "scaling ens-gaussian": "c1c94346a5479d3625e477b89282be1cc4ef6807e18ac1e40da4658a632d3133",
    "scaling ens-de": "a6ab1ea79bd0a4e8ec0eb7758d81d6b1173e0b5aded4acb8b23f30dd77be7c63",
    "scaling ens-stretch": "7a076b1fe20fcc9bf79ddf8645dd877b40809ff4542051149f00e7a4032ec7eb",
}


@pytest.mark.parametrize("command", sorted(PINNED_CSV_DIGESTS))
def test_fixed_seed_csv_is_pinned(command, tmp_path):
    out = tmp_path / "out.csv"
    argv = command.split()
    if argv[1].startswith("ens-"):
        argv += ["--dims", "2,20", "--n", "200", "--m", "20"]
    elif argv[0] == "scaling":
        argv += ["--dims", "2,20", "--n", "2000"]
    assert cli.main([*argv, "--seed", "1905", "--out", str(out)]) == 0
    text = blank_wall_time(out.read_text(encoding="utf-8"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CSV_DIGESTS[command]
