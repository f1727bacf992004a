"""Command line entry point.

Each subcommand maps to one experiment tag.  --config names a JSON file:
a whole config, as summary.json records it under "config", or its params
alone.  A flag that is given overrides the file's field, and each --param
the file's parameter; a flag that is not given leaves the file's value, or
the default.  Exit codes: 0 success, 2 argument problems (a config whose tag
is not the subcommand among them), 3 a failed statistical gate.
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
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--reps", type=int, help="replicates (default 1000)")
        sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None,
                        help="JSON file with a config or its params")
        sp.add_argument("--format", dest="fmt", choices=["json", "csv"],
                        help="output format (default json)")
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=JSONVALUE",
                        help="inline parameter override, may repeat")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        given = {"tag": args.command}
        if args.config:
            with open(args.config) as f:
                loaded = json.load(f)
            if not isinstance(loaded, dict):
                raise ArgumentError("--config must hold a JSON object")
            given.update(loaded if "params" in loaded or "tag" in loaded
                         else {"params": loaded})
            if given["tag"] != args.command:
                raise ArgumentError(f"--config is a {given['tag']!r} config, "
                                    f"not {args.command!r}")
        for name, flag in (("reps", args.reps), ("master_seed", args.seed),
                           ("out", args.out), ("fmt", args.fmt)):
            if flag is not None:
                given[name] = flag
        params = given.setdefault("params", {})
        if not isinstance(params, dict):
            raise ArgumentError('"params" in --config must be a JSON object')
        for item in args.param:
            if "=" not in item:
                raise ArgumentError("--param expects KEY=JSONVALUE")
            key, raw = item.split("=", 1)
            try:
                params[key] = json.loads(raw)
            except json.JSONDecodeError:
                params[key] = raw
        cfg = ExperimentConfig.from_dict(given)
        bundle = run_experiment(cfg)
    except (ArgumentError, ModelError, UnsupportedCaseError,
            ResourceBudgetError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    summary = bundle["summary"]
    if cfg.fmt == "json" or not bundle["tables"]:
        print(json.dumps(summary, sort_keys=True))
    else:
        for name, text in bundle["tables"].items():
            sys.stdout.write(text)
    if summary.get("gate_passed") is False:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
