"""Command-line entry point: run experiments, list them, validate configs.

Exit codes: 0 all checks passed, 1 an experiment ran and failed, 2 the
configuration was invalid.  Reports are JSON, written atomically by
``write_json_atomic``; the output directory may be overridden with the
MONGEVAL_OUT environment variable (flags beat the environment).  For a
fixed seed the report file is byte-identical across reruns and across
--threads settings.

The options of ``run`` are the keyword parameters of the experiment
functions in ``verify.EXPERIMENTS``, given as flags or in a config file
keyed by flag name.  The CLI only parses text: a flag or a config string
becomes the kind its parameter's default fixes, and any other config
entry is passed on as it is.  Every rule, whole and finite numbers
included, is the experiment's registry check, which a library call runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import tempfile
import time

from .verify import EXPERIMENTS, NAMED_BODIES, run_experiment

# parameter -> flag, where the flag is not the parameter's own name
_FLAG_NAMES = {
    "n_pairs": "pairs",
    "sigmas_cells": "sigmas",
    "eps_schedule": "eps",
}

_KIND_HELP = {
    "int": "integer",
    "float": "number",
    "floats": "comma-separated numbers",
    "fields": "comma-separated subset of R,C,H,O2",
    "body": f"named body ({', '.join(NAMED_BODIES)})",
}


class ConfigError(ValueError):
    pass


def _parameters(name) -> dict:
    """The keyword parameters of one experiment, by name."""
    return {p.name: p for p in inspect.signature(EXPERIMENTS[name][0]).parameters.values()
            if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}


def _kind(default) -> str:
    """How a parameter's value is read, from the type of its default."""
    if default is None:
        return "body"
    if isinstance(default, (int, float)):
        return type(default).__name__
    return "fields" if isinstance(default[0], str) else "floats"


def _options() -> dict:
    """flag key -> (default, names of the experiments that take it)."""
    options = {}
    for name in EXPERIMENTS:
        for param in _parameters(name).values():
            key = _FLAG_NAMES.get(param.name, param.name)
            options.setdefault(key, (param.default, []))[1].append(name)
    return options


def _build_parser(options):
    parser = argparse.ArgumentParser(
        prog="mongeval",
        description="verification experiments for Hessian-determinant valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment (or 'all') and write its report",
                         description="'run all' takes only --seed and --threads, and "
                                     "passes each to the experiments that take it")
    run.add_argument("experiment", help="experiment name from 'mongeval list', or 'all'")
    run.add_argument("--config", help="JSON config file; flags override its entries")
    for key, (default, names) in options.items():
        takers = ", ".join(names) if len(names) < len(EXPERIMENTS) else "every experiment"
        run.add_argument("--" + key.replace("_", "-"), dest=key,
                         help=f"{_KIND_HELP[_kind(default)]}; for {takers}")
    run.add_argument("--out", help="output directory (default ./reports or $MONGEVAL_OUT)")
    run.add_argument("--quiet", action="store_true")

    sub.add_parser("list", help="list experiments with what each one checks")

    val = sub.add_parser("validate-config", help="validate a JSON config file")
    val.add_argument("path")
    return parser


def _coerce(key, param, value):
    """Parse text as its parameter's kind; pass any other value on as it is."""
    kind = _kind(param.default)
    if kind == "body" or not isinstance(value, str):
        return value
    try:
        if kind in ("int", "float"):
            return int(value) if kind == "int" else float(value)
        parts = [v.strip() for v in value.split(",") if v.strip()]
        return parts if kind == "fields" else [float(v) for v in parts]
    except ValueError as exc:
        raise ConfigError(f"{key} has the wrong type: {value!r}") from exc


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    return config


def validate_config(name: str, config: dict) -> dict:
    """Read a config before any computation; returns kwargs.

    A key is an option's flag name, as ``mongeval run --help`` lists it
    (``pairs``, not ``n_pairs``); any other key raises with the keys the
    experiment takes.  Its registry check then sees every argument,
    defaults filled in, and its ValueError is raised as a ConfigError.
    """
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; see 'mongeval list'")
    params = _parameters(name)
    keys = {_FLAG_NAMES.get(p, p): p for p in params}
    kwargs = {}
    for key, value in config.items():
        if key == "experiment":
            continue
        if key not in keys:
            raise ConfigError(f"option {key!r} does not apply to {name}; "
                              f"it takes {', '.join(keys)}")
        kwargs[keys[key]] = _coerce(key, params[keys[key]], value)
    try:
        EXPERIMENTS[name][1](**{p: kwargs.get(p, param.default) for p, param in params.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return kwargs


def write_json_atomic(path: str, payload) -> None:
    """Serialize to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_one(name, kwargs, out_dir, quiet):
    t0 = time.perf_counter()
    report = run_experiment(name, **kwargs)
    seconds = time.perf_counter() - t0
    path = os.path.join(out_dir, f"{name}.json")
    write_json_atomic(path, report.canonical())
    if not quiet:
        for line in report.summary_lines():
            print(line)
        print(f"report: {path}  ({seconds:.1f}s)")
    return report


def main(argv=None) -> int:
    options = _options()
    args = _build_parser(options).parse_args(argv)

    if args.command == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, (_fn, _check, desc) in sorted(EXPERIMENTS.items()):
            print(f"{name.ljust(width)}  {desc}")
        return 0

    try:
        if args.command == "validate-config":
            config = _read_config(args.path)
            if not config.get("experiment"):
                raise ConfigError("config must name an 'experiment'")
            validate_config(config["experiment"], config)
            print("config ok")
            return 0
        names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        config = _read_config(args.config) if args.config else {}
        config.update((key, getattr(args, key)) for key in options
                      if getattr(args, key) is not None)
        if args.experiment == "all":
            dropped = sorted(set(config) - {"experiment", "seed", "threads"})
            if dropped:
                raise ConfigError(f"'run all' takes only seed and threads, not {dropped}")
        # 'run all' gives each experiment the options its signature takes
        jobs = [(name, validate_config(name, config if args.experiment != "all" else
                                       {k: v for k, v in config.items() if k in _parameters(name)}))
                for name in names]
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or os.environ.get("MONGEVAL_OUT", "reports")
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
