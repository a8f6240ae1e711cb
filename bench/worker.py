"""One workload pass in a fresh interpreter.

Usage (from ``run.py``)::

    python3 bench/worker.py <spawned_at> <spec-json>

``spawned_at`` is the parent's ``time.monotonic()`` just before the spawn
(the clock is system-wide on Linux), so ``setup_s`` covers interpreter
start, ``import mcmclab`` and config resolution.  The spec holds the CLI
argument lists to run, and flags for a traced or a setup-only pass.  The
result is printed as one JSON line; the CLI's own output is discarded.

``ref_s`` holds times of a fixed reference loop, taken after set-up and
after each command, from which the runner reads the host's speed.
"""

import contextlib
import io
import json
import math
import platform
import resource
import sys
import time
import traceback


# Sweeps of the reference loop: about 0.25 s on a 2-vCPU cloud host.
REFERENCE_SWEEPS = 160


def reference_seconds(numpy):
    """Seconds for a fixed imitation of the samplers' work, free of mcmclab.

    Stretch-move sweeps on N(0, I) (m = 100, d = 20) with leave-one-out
    covariances and their Cholesky factors, then a lag loop over one
    coordinate's trace: the workloads' mix of Python steps and small linear
    algebra.  Kinds of work speed up and slow down by different amounts as
    the host's load changes, so the mix follows the workloads more closely
    than any one kind would.  The work is the same on every call, so its
    time moves with the host's speed only.  It allocates next to nothing,
    which keeps it out of the peak memory the worker reports.
    """
    rng = numpy.random.default_rng(0)
    m, d = 100, 20
    pos = rng.standard_normal((m, d))
    lp = -0.5 * numpy.einsum("ij,ij->i", pos, pos)
    trace = numpy.empty(REFERENCE_SWEEPS)
    numpy.linalg.cholesky(numpy.cov(pos, rowvar=False))  # load lazy parts
    t0 = time.perf_counter()
    for sweep in range(REFERENCE_SWEEPS):
        for j in range(m):
            k = int(rng.integers(m - 1))
            k += k >= j
            z = (rng.random() + 1.0) ** 2 / 2.0
            candidate = pos[k] + z * (pos[j] - pos[k])
            lc = -0.5 * float(candidate @ candidate)
            if math.log(rng.random()) <= (d - 1) * math.log(z) + lc - lp[j]:
                pos[j], lp[j] = candidate, lc
            if sweep % 8 == 0:
                numpy.linalg.cholesky(numpy.cov(numpy.delete(pos, j, axis=0), rowvar=False))
        trace[sweep] = pos[0, 0]
    trace -= trace.mean()
    for t in range(1, REFERENCE_SWEEPS // 2):
        float(trace[:-t] @ trace[t:])
    return time.perf_counter() - t0


def resolve_config(harness, argv):
    """The config ``argv`` asks for, resolved through the public harness API."""
    kind, name, *flags = argv
    overrides = {}
    for flag, value in zip(flags[::2], flags[1::2]):
        key = flag.removeprefix("--")
        if key == "dims":
            overrides[key] = tuple(int(v) for v in value.split(","))
        elif key != "out":
            overrides[key] = int(value)
    if kind == "scaling":
        return harness.config_from_sources("scaling", sampler=name, overrides=overrides)
    return harness.config_from_sources(name, overrides=overrides)


def main():
    spawned_at = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    import numpy
    import scipy
    from mcmclab import cli, harness

    for argv in spec["commands"]:
        resolve_config(harness, argv)
    result = {
        "setup_s": time.monotonic() - spawned_at,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    result["ref_s"] = [reference_seconds(numpy)]
    if spec["setup_only"]:
        print(json.dumps(result))
        return

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    commands = []
    for argv in spec["commands"]:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = -1
        commands.append({"exit": code, "seconds": time.perf_counter() - t0})
        result["ref_s"].append(reference_seconds(numpy))
    result["commands"] = commands
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
