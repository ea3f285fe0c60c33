"""Command-line entry point: run experiments, list them, validate configs.

Exit codes: 0 all checks passed, 1 an experiment ran and failed, 2 the
configuration was invalid.  Reports are JSON, written atomically; the
output directory may be overridden with the MONGEVAL_OUT environment
variable (flags beat the environment).  For a fixed seed the report file
is byte-identical across reruns and across --threads settings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .serialize import write_json_atomic
from .verify import EXPERIMENTS, run_experiment, smoothing_schedule

_EXPERIMENT_FLAGS = {
    "valuation-identity": {"fields", "pairs", "seed", "threads"},
    "linear-invariance": {"fields", "trials", "seed", "threads"},
    "continuity": {"sigmas", "resolution", "seed", "threads"},
    "parity-break": {"dim", "degree", "widths", "seed", "threads"},
    "volume-identity": {"bodies", "body", "b-height", "seed", "threads"},
    "kernel-laplacian": {"eps", "resolution", "seed", "threads"},
}


class ConfigError(ValueError):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mongeval",
        description="verification experiments for Hessian-determinant valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (or 'all') and write its report")
    run.add_argument("experiment", help="experiment name from 'mongeval list', or 'all'")
    run.add_argument("--config", help="JSON config file; flags override its entries")
    run.add_argument("--fields", help="comma-separated subset of R,C,H,O2")
    run.add_argument("--pairs", type=int, help="number of union-convex pairs per field")
    run.add_argument("--trials", type=int, help="number of random linear functionals")
    run.add_argument("--dim", type=int, help="ambient dimension")
    run.add_argument("--degree", type=int, help="homogeneity degree")
    run.add_argument("--widths", help="comma-separated bump-approximation widths")
    run.add_argument("--sigmas", help="comma-separated smoothing widths in cells")
    run.add_argument("--eps", help="comma-separated perturbation sizes")
    run.add_argument("--resolution", type=int, help="grid resolution per axis")
    run.add_argument("--bodies", type=int, help="number of random test bodies")
    run.add_argument("--body", help="named body (cube3, ccube3, simplex3)")
    run.add_argument("--b-height", type=float, help="scalar weight value at its center")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--threads", type=int, default=1,
                     help="evaluation threads; reductions stay deterministic")
    run.add_argument("--out", help="output directory (default ./reports or $MONGEVAL_OUT)")
    run.add_argument("--quiet", action="store_true")

    sub.add_parser("list", help="list experiments with what each one checks")

    val = sub.add_parser("validate-config", help="validate a JSON config file")
    val.add_argument("path")
    return parser


def _parse_float_list(text):
    try:
        return [float(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    return config


def _config_from_args(args) -> dict:
    config = {}
    if getattr(args, "config", None):
        config = _read_config(args.config)
    for key in ("pairs", "trials", "dim", "degree", "resolution", "bodies",
                "seed", "threads", "body"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    if getattr(args, "b_height", None) is not None:
        config["b_height"] = args.b_height
    if getattr(args, "fields", None):
        config["fields"] = [f.strip() for f in args.fields.split(",") if f.strip()]
    if getattr(args, "widths", None):
        config["widths"] = _parse_float_list(args.widths)
    if getattr(args, "sigmas", None):
        config["sigmas_cells"] = _parse_float_list(args.sigmas)
    if getattr(args, "eps", None):
        config["eps_schedule"] = _parse_float_list(args.eps)
    return config


_KEY_ALIASES = {
    "pairs": "n_pairs",
    "bodies": "n_bodies",
    "sigmas": "sigmas_cells",
    "eps": "eps_schedule",
}


_INT_KEYS = ("n_pairs", "n_bodies", "trials", "dim", "degree", "resolution", "seed", "threads")
_LIST_KEYS = ("widths", "sigmas_cells", "eps_schedule")
_COERCE = {
    **dict.fromkeys(_INT_KEYS, int),
    **dict.fromkeys(_LIST_KEYS, lambda value: [float(v) for v in value]),
    "b_height": float,
    "fields": list,
}


def validate_config(name: str, config: dict) -> dict:
    """Check names/types/ranges before any computation; returns kwargs."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; see 'mongeval list'")
    allowed = _EXPERIMENT_FLAGS[name]
    allowed_keys = {k.replace("-", "_") for k in allowed}
    allowed_keys |= {_KEY_ALIASES.get(k, k) for k in allowed_keys}
    kwargs = {}
    for key, value in config.items():
        if key == "experiment":
            continue
        norm = _KEY_ALIASES.get(key, key)
        if norm not in allowed_keys:
            raise ConfigError(f"option {key!r} does not apply to {name}")
        if norm in _COERCE:
            try:
                value = _COERCE[norm](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{key} has the wrong type: {value!r}") from exc
        if norm in _INT_KEYS and norm != "seed" and value <= 0:
            raise ConfigError(f"{key} must be positive, got {value}")
        if norm in _LIST_KEYS and any(v <= 0 for v in value):
            raise ConfigError(f"{key} entries must be positive")
        kwargs[norm] = value
    if "sigmas_cells" in kwargs:
        try:
            smoothing_schedule(kwargs["sigmas_cells"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if name == "parity-break":
        dim = int(kwargs.get("dim", 3))
        degree = int(kwargs.get("degree", 1))
        if not 1 <= degree <= dim - 1:
            raise ConfigError(f"degree out of range 1..{dim - 1}")
    if "fields" in kwargs:
        bad = [f for f in kwargs["fields"] if f not in ("R", "C", "H", "O2")]
        if bad:
            raise ConfigError(f"unknown fields {bad}; choose from R, C, H, O2")
    return kwargs


def _out_dir(args) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.environ.get("MONGEVAL_OUT", "reports")


def _run_one(name, kwargs, out_dir, quiet):
    report = run_experiment(name, **kwargs)
    path = os.path.join(out_dir, f"{name}.json")
    write_json_atomic(path, report.canonical())
    if not quiet:
        for line in report.summary_lines():
            print(line)
        print(f"report: {path}  ({report.runtime_seconds:.1f}s)")
    return report


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, (_fn, desc) in sorted(EXPERIMENTS.items()):
            print(f"{name.ljust(width)}  {desc}")
        return 0

    if args.command == "validate-config":
        try:
            config = _read_config(args.path)
            name = config.get("experiment")
            if not name:
                raise ConfigError("config must name an 'experiment'")
            validate_config(name, config)
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        print("config ok")
        return 0

    # run
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        config = _config_from_args(args)
        jobs = [(name, validate_config(name, config if args.experiment != "all" else
                                       {k: v for k, v in config.items()
                                        if k in ("seed", "threads")}))
                for name in names]
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    out_dir = _out_dir(args)
    reports = []
    for name, kwargs in jobs:
        reports.append(_run_one(name, kwargs, out_dir, args.quiet))
    if len(reports) > 1:
        index = {
            "experiments": [r.name for r in reports],
            "passed": sum(r.passed for r in reports),
            "failed": sum(not r.passed for r in reports),
        }
        write_json_atomic(os.path.join(out_dir, "index.json"), index)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
