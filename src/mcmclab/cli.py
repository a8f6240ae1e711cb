"""Command-line entry point.

Subcommands::

    mcmclab exercise <name> [--config PATH] [--n N] [--replicates R]
                     [--burn-in F] [--seed N] [--out PATH]
    mcmclab scaling <sampler> [--config PATH] [--dims 2,5,10,20] [--n N] [--m M]
                    [--replicates R] [--burn-in F] [--gamma G | --delta D]
                    [--a A] [--seed N] [--out PATH] [--jobs J] [--budget B]
    mcmclab report <csv...>

Exit codes: 0 success, 2 configuration error, 3 resource guard,
4 numerical failure.
"""

import argparse
import sys
from dataclasses import fields

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
    ex.set_defaults(sampler=None)
    _add_run_flags(ex, [(name, None) for name in harness.EXERCISES])

    sc = sub.add_parser("scaling", help="run a sampler across dimensions")
    sc.add_argument("sampler", choices=harness.SCALING_SAMPLERS)
    sc.set_defaults(name="scaling")
    _add_run_flags(sc, [("scaling", name) for name in harness.SCALING_SAMPLERS])

    rp = sub.add_parser("report", help="aggregate scaling CSVs into a table")
    rp.add_argument("csvs", nargs="*", help="row CSVs to aggregate")
    return parser


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_run_flags(parser, runs) -> None:
    """``--config`` and, in field order, a flag for each key one of ``runs`` reads."""
    parser.add_argument("--config", help="config file (key=value with [sections])")
    used = set().union(*(harness._keys_used(*run) for run in runs))
    for f in fields(harness.ExperimentConfig):
        if f.name in used:
            parser.add_argument(_flag(f.name), dest=f.name, help=f.metadata["help"])


def _overrides(args) -> dict:
    """Config values from the flags given, each through ``_parse_value``."""
    return {key: harness._parse_value(key, text, _flag(key))
            for key, text in vars(args).items()
            if key not in ("command", "name", "sampler", "config") and text is not None}


def _cmd_run(args) -> int:
    cfg = harness.config_from_sources(args.name, args.sampler, args.config, _overrides(args))
    if args.command == "scaling":
        rows = harness.run_scaling(cfg)
        out = cfg.out or f"mcmclab_scaling_{args.sampler}.csv"
        harness.write_scaling_csv(out, rows)
        print(harness.report_table(rows))
    else:
        rows, text = harness.run_exercise(cfg)
        out = cfg.out or f"mcmclab_{args.name}.csv"
        harness.write_exercise_csv(out, rows)
        print(text)
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
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_run(args)
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
