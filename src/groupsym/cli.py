"""Command-line harness: run, verify, certify, spectral.

Exit codes: 0 run converged / checks passed, 3 completed without converging
(or no certificate found), 4 configuration or verification failure, 5 runtime
failure.  GROUPSYM_OUTPUT_ROOT sets the default artifact root for runs whose
config names no output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .config import ConfigError, RunConfig, parse_config
from .harness import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_RUNTIME,
    VERIFY_CHECKS,
    certify_run,
    execute,
    spectral_run,
    verify,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupsym",
        description="Symmetrization dynamics over finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config and write artifacts")
    run.add_argument("config", help="path to a JSON run config")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--steps", type=int, help="override the step count")
    run.add_argument("--out", help="artifact directory (overrides config output)")
    run.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="KEY=VAL",
        help="override a tolerance, e.g. residual=1e-9 (repeatable)",
    )

    ver = sub.add_parser("verify", help="check a run's artifacts")
    ver.add_argument("directory", help="artifact directory written by run")
    ver.add_argument(
        "--checks",
        action="append",
        default=[],
        metavar="NAMES",
        help=f"comma-separated subset of: {', '.join(VERIFY_CHECKS)}",
    )

    cert = sub.add_parser("certify", help="scan a config's schedule for a mixing window")
    cert.add_argument("config", help="path to a JSON run config")
    cert.add_argument("--max-T", type=int, required=True, dest="max_T", help="largest window to try")
    cert.add_argument("--horizon", type=int, help="how many steps of the schedule to scan")
    cert.add_argument("--seed", type=int, help="override the config seed")
    cert.add_argument("--steps", type=int, help="override the step count")

    spec = sub.add_parser("spectral", help="compare consensus and lifted contraction factors")
    spec.add_argument("config", help="path to a gossip JSON run config")
    spec.add_argument("--seed", type=int, help="override the config seed")

    return parser


def _load_config(path: str, args) -> RunConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file does not exist: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    if getattr(args, "steps", None) is not None:
        doc["steps"] = args.steps
    for item in getattr(args, "tolerance", []):
        if "=" not in item:
            raise ConfigError(f"--tolerance expects KEY=VAL, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"--tolerance {key}: not a number: {raw!r}")
        tolerances = doc.get("tolerances")
        if tolerances is None:
            tolerances = doc["tolerances"] = {}
        # anything else that is not an object fails in parse_config
        if isinstance(tolerances, dict):
            tolerances[key.strip()] = value
    base = os.path.dirname(os.path.abspath(path))
    return parse_config(doc, base_dir=base)


def _cmd_run(args) -> int:
    config = _load_config(args.config, args)
    artifacts = execute(config, out_dir=args.out)
    result = artifacts.result
    print(f"application: {config.application}")
    print(f"artifacts: {artifacts.directory}")
    print(
        f"converged: {str(result.converged).lower()} "
        f"(steps_run={result.steps_run}, final_residual={result.residuals[-1]:.6e})"
    )
    if result.certificate is not None:
        c = result.certificate
        print(
            f"certificate: T={c.T} delta={c.delta:.6g} "
            f"({'satisfied' if c.satisfied else 'not satisfied'})"
        )
    return artifacts.exit_code


def _cmd_verify(args) -> int:
    checks: List[str] = []
    for item in args.checks:
        checks.extend(name.strip() for name in item.split(",") if name.strip())
    if not os.path.isdir(args.directory):
        raise ConfigError(f"artifact directory does not exist: {args.directory}")
    report = verify(args.directory, checks or None)
    for line in report.lines():
        print(line)
    print(f"verification: {'passed' if report.passed else 'FAILED'} ({report.directory})")
    return EXIT_OK if report.passed else EXIT_CONFIG


def _cmd_certify(args) -> int:
    config = _load_config(args.config, args)
    if args.max_T < 1:
        raise ConfigError(f"--max-T must be >= 1, got {args.max_T}")
    if args.horizon is not None and args.horizon < 1:
        raise ConfigError(f"--horizon must be >= 1, got {args.horizon}")
    outcome = certify_run(config, args.max_T, horizon=args.horizon)
    if outcome["satisfied"]:
        print(
            f"certificate: T={outcome['T']} delta={outcome['delta']:.17g} "
            f"rho={outcome['rho']:.17g} (horizon={outcome['horizon']})"
        )
        return EXIT_OK
    print(
        f"no certificate up to T={outcome['T']} over horizon={outcome['horizon']}; "
        f"witness: {json.dumps(outcome['witness'])}"
    )
    return EXIT_NOT_CONVERGED


def _cmd_spectral(args) -> int:
    config = _load_config(args.config, args)
    comp = spectral_run(config)
    print(f"sigma_consensus: {comp['sigma_consensus']:.17g}")
    print(f"sigma_lifted: {comp['sigma_lifted']:.17g}")
    if comp["degenerate_consensus"] or comp["degenerate_lifted"]:
        print("degenerate: contraction factor undefined for at least one operator")
    elif comp["sigma_lifted"] > comp["sigma_consensus"]:
        print("lifted factor is strictly larger: the lift can converge more slowly")
    else:
        print("lifted factor is no larger than the consensus factor")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "certify": _cmd_certify,
        "spectral": _cmd_spectral,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
