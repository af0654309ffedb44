"""Command-line entry: magschro <experiment> --config <path> [--out DIR] [--seed N].

Also `magschro list-checks` (the check catalog with default tolerances) and
`magschro validate --config <path>`.  MAGSCHRO_OUT overrides the output
directory when --out is absent.  Exit status 0 iff all enabled checks pass.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import EXPERIMENT_IDS, ExperimentConfig, list_checks, run, validate


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="magschro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    for exp in EXPERIMENT_IDS:
        sp = sub.add_parser(exp, help=f"run the {exp} experiment")
        sp.add_argument("--config", required=False, help="JSON config path")
        sp.add_argument("--out", help="output directory for CSV/JSON reports")
        sp.add_argument("--seed", type=int, help="seed override")

    sub.add_parser("list-checks", help="print the check catalog")

    vp = sub.add_parser("validate", help="validate a config without running")
    vp.add_argument("--config", required=True)
    return p


def _load_config(path: str | None, experiment: str, args) -> ExperimentConfig:
    raw = {"version": 1, "experiment": experiment}
    if path:
        with open(path) as fh:
            raw = json.load(fh)
        if "experiment" not in raw:
            raw["experiment"] = experiment
        elif raw.get("experiment") not in (None, experiment):
            raise SystemExit(
                f"config names experiment '{raw.get('experiment')}' but the "
                f"command line asked for '{experiment}'"
            )
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out:
        raw["out_dir"] = args.out
    elif "out_dir" not in raw and os.environ.get("MAGSCHRO_OUT"):
        raw["out_dir"] = os.environ["MAGSCHRO_OUT"]
    diags = validate(raw)
    if diags:
        for d in diags:
            print(f"config error: {d}", file=sys.stderr)
        raise SystemExit(2)
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-checks":
        for row in list_checks():
            print(
                f"{row['check_id']:36s} {row['experiment']:18s} "
                f"{row['comparator']:2s} {row['threshold']:g}"
            )
        return 0
    if args.command == "validate":
        with open(args.config) as fh:
            raw = json.load(fh)
        diags = validate(raw)
        if diags:
            for d in diags:
                print(f"config error: {d}")
            return 2
        print("config ok")
        return 0

    config = _load_config(args.config, args.command, args)
    report = run(config)
    for row in report.rows:
        mark = "PASS" if row["pass"] else "FAIL"
        print(f"[{mark}] {row['check_id']:36s} value={row['value']:.6g} "
              f"threshold={row['threshold']:.6g}")
    print(
        f"{report.experiment}: {len(report.rows) - sum(not r['pass'] for r in report.rows)}"
        f"/{len(report.rows)} checks passed in {report.wall_seconds:.1f}s"
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
