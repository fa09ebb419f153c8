"""Command-line front end for the experiment drivers.

A single JSON config document (schema 1) can set any ExperimentConfig field;
CLI flags override the file. Exit code is 0 iff every solve converged,
otherwise a machine-readable error summary goes to stderr and the exit code
is nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import InvalidInputError, RobustLqgError
from .experiments import RUNNERS, ExperimentConfig, run_experiment
from .frank_wolfe import FwConfig


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per experiment of RUNNERS, each with the same flags.
    Each flag's dest is its config key (ExperimentConfig, or FwConfig for
    the Frank-Wolfe flags); a flag not given is absent from the namespace,
    so the config file or the ExperimentConfig default sets that key."""
    parser = argparse.ArgumentParser(prog="robustlqg",
                                     description="Distributionally robust LQG experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        sub = subs.add_parser(name, argument_default=argparse.SUPPRESS)
        sub.add_argument("--config", help="JSON config file (schema 1); flags override it")
        sub.add_argument("--seed", type=int, action="append", dest="seeds",
                         help="seed (repeatable)")
        sub.add_argument("--rho", type=float, action="append",
                         help="ambiguity radius (repeatable for grids)")
        sub.add_argument("--horizon", type=int, action="append", dest="T",
                         help="horizon (repeatable for a sweep)")
        sub.add_argument("--dim", type=int, dest="d")
        sub.add_argument("--divergence", choices=["wasserstein2", "kl", "fisher", "entropic_ot"])
        sub.add_argument("--out", dest="output_dir")
        sub.add_argument("--max-iters", type=int)
        sub.add_argument("--gap-tol", type=float)
        sub.add_argument("--step-rule", choices=["vanishing", "line_search"],
                         help="FW step size: line_search (default; the full step, else "
                              "the concave quadratic model's maximizer, else 2/(2+k)) or "
                              "vanishing (2/(2+k))")
    return parser


def _check_keys(raw: dict, cls, prefix: str) -> None:
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise InvalidInputError(
            "unknown config key(s): " + ", ".join(prefix + key for key in unknown)
        )


def _object(raw, name: str) -> dict:
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{name} must be a JSON object")
    return raw


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = dict(vars(args))
    command, path = flags.pop("command"), flags.pop("config", None)
    raw: dict = {}
    if path:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
            raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
        raw = _object(raw, "config")
        schema = raw.pop("schema", 1)
        if schema != 1:
            raise RobustLqgError(f"unsupported config schema {schema}")
    for key in ("rho", "T"):  # one --rho or --horizon is a scalar
        if len(flags.get(key, ())) == 1:
            flags[key] = flags[key][0]
    fw_flags = {f.name: flags.pop(f.name) for f in dataclasses.fields(FwConfig) if f.name in flags}
    raw.update(flags, experiment=command)
    _check_keys(raw, ExperimentConfig, "")
    fw_raw = dict(_object(raw.pop("fw", {}), "config key fw"))
    _check_keys(fw_raw, FwConfig, "fw.")
    raw["fw"] = FwConfig(**fw_raw | fw_flags)
    return ExperimentConfig(**raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        result = run_experiment(cfg)
    except RobustLqgError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    if not result.get("all_converged", True):
        json.dump({"error": "NotConverged",
                   "message": "one or more solves did not reach the gap tolerance"},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
