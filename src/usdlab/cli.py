"""Command-line entry point for the experiment runner.

Subcommands map one to one onto experiment kinds; every subcommand takes a
JSON config file plus optional overrides.  Exit codes: 0 all assertions
passed, 1 assertion failure, 2 configuration error (including a malformed
input file or a non-integer ``$USDLAB_THREADS``), 3 a runtime cap was
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import jsonio
from .errors import CapExceededError, ConfigError
from .experiments import KINDS, run, validate_config

THREADS_ENV = "USDLAB_THREADS"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, so every ``main`` call shares it.  The subcommands
    share one set of flag actions, which keeps the parser that stays
    resident small."""
    parser = argparse.ArgumentParser(
        prog="usdlab",
        description="Sampling-discretization experiments: point-set search "
                    "and certification, entropy profiles, error-rate sweeps, "
                    "sparse recovery, and rate fitting.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed (u64)")
    common.add_argument("--out", default=None, help="override the output directory")
    common.add_argument("--threads", type=int, default=None,
                        help=f"worker threads (default: ${THREADS_ENV} or 1)")
    common.add_argument("--strict", action="store_true",
                        help="fail when a certificate is only heuristically verified")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, spec in KINDS.items():
        sub.add_parser(spec.subcommand, parents=[common],
                       help=f"run a {kind} experiment").set_defaults(kind=kind)
    return parser


def _load_config(args):
    try:
        raw = jsonio.load_path(args.config)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}")
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if raw.get("kind") != args.kind:
        raise ConfigError(
            f"kind: subcommand {args.command!r} expects kind {args.kind!r}, "
            f"config has {raw.get('kind')!r}", path="kind")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    if args.threads is not None:
        raw["threads"] = args.threads
    elif "threads" not in raw:
        text = os.environ.get(THREADS_ENV, "1")
        try:
            raw["threads"] = int(text)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV}: expected an integer, got {text!r}",
                              path=THREADS_ENV) from None
    return validate_config(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        outcome = run(config, strict=args.strict)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    for check in outcome.summary["assertions"]:
        state = "PASS" if check["passed"] else "FAIL"
        print(f"{state} {check['name']} {check['detail']}")
    print(f"summary: {outcome.summary_path}")
    return EXIT_OK if outcome.passed else EXIT_ASSERTION


if __name__ == "__main__":
    raise SystemExit(main())
