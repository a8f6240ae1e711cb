"""Outside-in benchmark of mcmclab.

Usage, from the repository root::

    python3 bench/run.py --workload ens-covariance --seed 1905 --seconds 30 --trace 0

Each workload is a closed loop: one caller runs its CLI commands in order,
with ``--jobs 1``, through ``mcmclab.cli.main`` in a fresh single-threaded
interpreter (``bench/worker.py``).  One such interpreter is a *pass*.

``--trace 0`` repeats passes until ``--seconds`` have elapsed, pass ``k``
using the CLI seed ``seed + k * PASS_SEED_STRIDE``.  ``wall_s`` and
``peak_rss_mb`` are medians over passes; ``updates_per_s`` and
``ess_per_s`` divide the mean work per pass by the median ``wall_s``.
``setup_s`` is the median over the passes and ``SETUP_SPAWNS_PER_PASS``
set-up-only interpreters per pass.

The shared host's speed drifts by tens of percent over minutes, and each
core drifts on its own.  So every worker also times a fixed reference loop
(no mcmclab code) after set-up and after each command, and ``wall_s`` and
``setup_s`` are seconds at reference speed: their medians times
``REFERENCE_S`` over the median reference time of the run.  A slower
program still reads slower; a slower host does not.  The raw medians are
printed next to them.

``--trace 1`` makes one untraced pass and two traced passes, all at
``--seed`` (``--seconds`` does not apply), and reports per-layer metrics:
calls, total and self time of each wrapped public function, and work
counters read from arguments and return values (see ``tracer.py``).  The
two traced passes must repeat every count exactly, the CSV size aside.

Every command's CSV is checked against analytic values (``checks.py``);
the last stdout line is one JSON object with ``correct``, ``attempted``
(commands run), ``failed`` (commands that exited nonzero or failed a
check) and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Why each workload exists: which layer it stresses and which it bypasses.
WORKLOADS = {
    "ens-covariance": {
        "why": "60,000 ensemble_covariance calls (ens-gaussian + ens-de, d=20): "
               "the workload where a cheaper leave-one-out covariance must show",
        "commands": [
            ["scaling", "ens-gaussian", "--dims", "20", "--n", "300", "--m", "100", "--jobs", "1"],
            ["scaling", "ens-de", "--dims", "20", "--n", "300", "--m", "100", "--jobs", "1"],
        ],
    },
    "ens-stretch": {
        "why": "criterion-05 d=20 stretch cell: no covariance calls; stretch steps, "
               "2 log densities per update and 2,000 short-series tau estimates",
        "commands": [
            ["scaling", "ens-stretch", "--dims", "20", "--n", "1500", "--m", "100", "--jobs", "1"],
        ],
    },
    "serial-lab": {
        "why": "single-chain MH scaling plus the four exercises: few long tau series, "
               "grid, importance, summaries and the predictive kernel; no ensemble work",
        "commands": [
            ["scaling", "mh-fixed", "--dims", "2,5,10,20", "--replicates", "2", "--jobs", "1"],
            ["scaling", "mh-adaptive", "--dims", "2,5,10,20", "--replicates", "2", "--jobs", "1"],
            ["exercise", "noisy-mean"],
            ["exercise", "grid-2d"],
            ["exercise", "importance-2d"],
            ["exercise", "mh-2d"],
        ],
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "updates_per_s": "1/s",
    "ess_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
SETUP_SPAWNS_PER_PASS = 2
# Typical time of the worker's reference loop on a 2-vCPU cloud host.  It
# sets only the scale of the time metrics.
REFERENCE_S = 0.25
PASS_SEED_STRIDE = 7919
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def per_layer_units():
    """Per-layer metric names and units, in report order."""
    units = {}
    for name in tracer.layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "targets.log_density.per_update": "ratio",
        "mh.accept_ratio": "ratio",
        "ensemble.accept_ratio": "ratio",
        "diagnostics.tau.lags": "count",
        "diagnostics.tau.truncated": "count",
        "diagnostics.tau.insufficient": "count",
        "diagnostics.histogram.overflow_mass": "frac",
        "ensemble.history_bytes": "B",
        "summaries.predictive.kernel_bytes": "B",
        "importance.samples": "count",
        "grid.cells": "count",
        "harness.csv_bytes": "B",
        "trace.updates": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
    })
    return units


def spawn(spec):
    """Run ``worker.py`` on ``spec`` in a fresh interpreter; its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), repr(time.monotonic()), json.dumps(spec)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                          timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(commands, seed, trace, out_dir):
    """One pass of a workload: run, then check each command's CSV."""
    argvs = []
    for i, command in enumerate(commands):
        argvs.append(command + ["--seed", str(seed), "--out", str(out_dir / f"cmd{i}.csv")])
    report = spawn({"commands": argvs, "trace": trace, "setup_only": False})
    report["updates"] = 0
    report["ess"] = 0.0
    report["failed"] = 0
    report["fingerprints"] = []
    for argv, result in zip(argvs, report["commands"]):
        path = Path(argv[-1])
        problems = []
        if result["exit"] != 0:
            problems.append(f"exit code {result['exit']}")
        elif not path.exists():
            problems.append("no output CSV")
        else:
            text = path.read_text(encoding="utf-8")
            outcome = checks.check_command(argv, text)
            problems += outcome.problems
            report["updates"] += outcome.updates
            report["ess"] += outcome.ess
            report["fingerprints"].append((" ".join(argv[:2]), checks.fingerprint(text)))
            path.unlink()
        if problems:
            report["failed"] += 1
            print(f"FAILED {' '.join(argv[:-2])}: " + "; ".join(problems[:5]), file=sys.stderr)
    report["wall_s"] = sum(c["seconds"] for c in report["commands"])
    return report


def describe_pass(label, seed, report):
    print(f"pass {label} seed={seed} wall_s={report['wall_s']:.4f} "
          f"ref_s={statistics.median(report['ref_s']):.4f} "
          f"updates={report['updates']} ess={report['ess']:.2f} "
          f"peak_rss_mb={report['peak_rss_mb']:.1f} setup_s={report['setup_s']:.4f} "
          f"failed={report['failed']}")
    for command, digest in report["fingerprints"]:
        print(f"  fingerprint {command} sha256={digest}")


def measure_end_to_end(commands, seed, seconds, out_dir):
    setup_spec = {"commands": [c + ["--seed", str(seed)] for c in commands],
                  "trace": False, "setup_only": True}
    setup = []
    ref = []
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        # set-up samples are spread over the run, next to the passes
        for _ in range(SETUP_SPAWNS_PER_PASS):
            report = spawn(setup_spec)
            setup.append(report["setup_s"])
            ref += report["ref_s"]
        pass_seed = seed + len(passes) * PASS_SEED_STRIDE
        report = run_pass(commands, pass_seed, False, out_dir)
        describe_pass(len(passes), pass_seed, report)
        passes.append(report)
        ref += report["ref_s"]
    setup += [p["setup_s"] for p in passes]
    raw_wall = statistics.median(p["wall_s"] for p in passes)
    raw_setup = statistics.median(setup)
    speed = REFERENCE_S / statistics.median(ref)
    print(f"samples: {len(passes)} passes, {len(setup)} set-ups, {len(ref)} reference loops")
    print(f"raw medians: wall_s {raw_wall:.4f} setup_s {raw_setup:.4f} "
          f"reference loop {REFERENCE_S / speed:.4f} s")
    wall = raw_wall * speed
    # work per pass depends on the pass seed, not on the host: average it
    # over the passes, and divide by the typical pass time
    metrics = {
        "wall_s": wall,
        "setup_s": raw_setup * speed,
        "updates_per_s": statistics.mean(p["updates"] for p in passes) / wall,
        "ess_per_s": statistics.mean(p["ess"] for p in passes) / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics


def measure_per_layer(commands, seed, out_dir):
    """Per-layer metrics, and whether the two traced passes' counts agree."""
    plain = run_pass(commands, seed, False, out_dir)
    describe_pass("untraced", seed, plain)
    traced = []
    for k in range(2):
        report = run_pass(commands, seed, True, out_dir)
        describe_pass(f"traced-{k}", seed, report)
        traced.append(report)
    first, second = (r["trace"] for r in traced)
    # times vary, and so does the CSV size: wall_time_s is written as text
    drift = [k for k in first if not k.endswith("_s") and k != "harness.csv_bytes"
             and first[k] != second[k]]
    if traced[0]["updates"] != traced[1]["updates"]:
        drift.append("trace.updates")
    for key in drift:
        print(f"COUNT MISMATCH {key}: {first[key]!r} != {second[key]!r}", file=sys.stderr)

    metrics = {}
    for key in per_layer_units():
        if key in first:
            metrics[key] = (first[key] + second[key]) / 2 if key.endswith("_s") else first[key]
    updates = traced[0]["updates"]
    metrics["targets.log_density.per_update"] = first["targets.log_density.calls"] / updates
    metrics["mh.accept_ratio"] = _ratio(first["mh.accepted"], first["mh.steps"])
    metrics["ensemble.accept_ratio"] = _ratio(first["ensemble.accepted"], first["ensemble.updates"])
    metrics["trace.updates"] = updates
    metrics["trace.wall_s"] = statistics.mean(r["wall_s"] for r in traced)
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    print(f"tracing overhead: traced wall_s {metrics['trace.wall_s']:.4f} "
          f"vs untraced {plain['wall_s']:.4f}")
    return [plain] + traced, metrics, not drift


def _ratio(num, den):
    return num / den if den else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1905)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mcmclab" / "cli.py").is_file():
        print(f"error: mcmclab sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {workload['why']}")
    print(f"env nproc={os.cpu_count()} seed={args.seed} jobs=1 "
          + " ".join(f"{v}=1" for v in THREAD_VARS))
    scratch_root = ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        if args.trace:
            passes, metrics, counts_repeat = measure_per_layer(
                workload["commands"], args.seed, out_dir)
            units = per_layer_units()
        else:
            passes, metrics = measure_end_to_end(
                workload["commands"], args.seed, args.seconds, out_dir)
            counts_repeat = True
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch_root.rmdir()
    first = passes[0]
    print(f"env python={first['python']} numpy={first['numpy']} scipy={first['scipy']}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} commands)")
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
