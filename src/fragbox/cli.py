"""Command line entry point.

Each subcommand maps to one experiment tag; parameters come from --config
(a JSON file) with the common flags overriding its fields.  Exit codes:
0 success, 2 argument problems, 3 a failed statistical gate.
"""

import argparse
import json
import sys

from .errors import (ArgumentError, ModelError, ResourceBudgetError,
                     UnsupportedCaseError)
from .harness import _DISPATCH, ExperimentConfig, run_experiment

SUBCOMMANDS = list(_DISPATCH)


def build_parser():
    ap = argparse.ArgumentParser(prog="fragbox",
                                 description="restricted exchangeable partition "
                                             "and fragmentation tree experiments")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--reps", type=int, default=1000)
        sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None, help="JSON file with params")
        sp.add_argument("--format", dest="fmt", choices=["json", "csv"],
                        default="json")
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=JSONVALUE",
                        help="inline parameter override, may repeat")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        params = {}
        if args.config:
            with open(args.config) as f:
                loaded = json.load(f)
            if not isinstance(loaded, dict):
                raise ArgumentError("--config must hold a JSON object")
            loaded = loaded.get("params", loaded)
            if not isinstance(loaded, dict):
                raise ArgumentError('"params" in --config must be a JSON object')
            params.update(loaded)
        for item in args.param:
            if "=" not in item:
                raise ArgumentError("--param expects KEY=JSONVALUE")
            key, raw = item.split("=", 1)
            try:
                params[key] = json.loads(raw)
            except json.JSONDecodeError:
                params[key] = raw
        cfg = ExperimentConfig(args.command, params, args.reps, args.seed,
                               args.out, args.fmt)
        bundle = run_experiment(cfg)
    except (ArgumentError, ModelError, UnsupportedCaseError,
            ResourceBudgetError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    summary = bundle["summary"]
    if args.fmt == "json" or not bundle["tables"]:
        print(json.dumps(summary, sort_keys=True))
    else:
        for name, text in bundle["tables"].items():
            sys.stdout.write(text)
    if summary.get("gate_passed") is False:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
