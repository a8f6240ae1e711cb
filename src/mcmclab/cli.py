"""Command-line entry point.

Subcommands::

    mcmclab exercise <name> [--config PATH] [--seed N] [--out PATH]
    mcmclab scaling <sampler> --dims 2,5,10,20 [--n N] [--m M]
                    [--replicates R] [--jobs J] [--seed N] [--out PATH]
    mcmclab report <csv...>

Exit codes: 0 success, 2 configuration error, 3 resource guard,
4 numerical failure.
"""

import argparse
import sys

from . import harness
from .errors import ConfigError, NumericalError, ResourceLimitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmclab",
        description="Posterior-integration experiments: exercises, scaling runs, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("exercise", help="run a named worked exercise")
    ex.add_argument("name", choices=harness.EXERCISES)
    ex.add_argument("--config", help="config file (key=value with [sections])")
    ex.add_argument("--seed", type=int, help="master seed")
    ex.add_argument("--out", help="output CSV path")

    sc = sub.add_parser("scaling", help="run a sampler across dimensions")
    sc.add_argument("sampler", choices=harness.SCALING_SAMPLERS)
    sc.add_argument("--dims", type=harness.parse_dims,
                    help="comma-separated dimensions, e.g. 2,5,10,20")
    sc.add_argument("--n", type=int, help="iterations (single chain) or sweeps (ensemble)")
    sc.add_argument("--m", type=int, help="ensemble size")
    sc.add_argument("--replicates", type=int, help="independent replicates per dimension")
    sc.add_argument("--jobs", type=int, help="worker processes")
    sc.add_argument("--burn-in", type=float, dest="burn_in", help="burn-in fraction")
    sc.add_argument("--gamma", type=float, help="fixed proposal scale")
    sc.add_argument("--delta", type=float, help="proposal scale as delta/sqrt(d)")
    sc.add_argument("--a", type=float, dest="stretch_a", help="stretch range parameter")
    sc.add_argument("--budget", type=int, help="total chain-update budget")
    sc.add_argument("--config", help="config file (key=value with [sections])")
    sc.add_argument("--seed", type=int, help="master seed")
    sc.add_argument("--out", help="output CSV path")

    rp = sub.add_parser("report", help="aggregate scaling CSVs into a table")
    rp.add_argument("csvs", nargs="*", help="row CSVs to aggregate")
    return parser


def _overrides(args) -> dict:
    """Config values from the flags: every parsed option but ``--config``."""
    return {key: val for key, val in vars(args).items()
            if key not in ("command", "name", "sampler", "config")}


def _cmd_exercise(args) -> int:
    cfg = harness.config_from_sources(
        args.name, config_path=args.config, overrides=_overrides(args)
    )
    rows, text = harness.run_exercise(cfg)
    out = cfg.out or f"mcmclab_{args.name}.csv"
    harness.write_exercise_csv(out, rows)
    print(text)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def _cmd_scaling(args) -> int:
    cfg = harness.config_from_sources(
        "scaling", sampler=args.sampler, config_path=args.config,
        overrides=_overrides(args),
    )
    rows = harness.run_scaling(cfg)
    out = cfg.out or f"mcmclab_scaling_{args.sampler}.csv"
    harness.write_scaling_csv(out, rows)
    print(harness.report_table(rows))
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    rows = harness.read_scaling_rows(args.csvs)
    print(harness.report_table(rows))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "exercise":
            return _cmd_exercise(args)
        if args.command == "scaling":
            return _cmd_scaling(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
