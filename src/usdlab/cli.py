"""Command-line entry point for the experiment runner.

Subcommands map one to one onto experiment kinds; every subcommand takes a
JSON config file plus optional overrides.  Exit codes: 0 all assertions
passed, 1 assertion failure, 2 configuration error (including a malformed
input file or a non-integer ``$USDLAB_THREADS``), 3 a runtime cap was
exceeded.
"""

from __future__ import annotations

import argparse
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usdlab",
        description="Sampling-discretization experiments: point-set search "
                    "and certification, entropy profiles, error-rate sweeps, "
                    "sparse recovery, and rate fitting.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, spec in KINDS.items():
        sp = sub.add_parser(spec.subcommand, help=f"run a {kind} experiment")
        sp.set_defaults(kind=kind)
        sp.add_argument("--config", required=True, help="JSON config path")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed (u64)")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument("--threads", type=int, default=None,
                        help=f"worker threads (default: ${THREADS_ENV} or 1)")
        sp.add_argument("--strict", action="store_true",
                        help="fail when a certificate is only heuristically verified")
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
