"""Command-line harness.

    hmdlab run <recipe> [--config FILE] [--seed N ...] [--out DIR] ...
    hmdlab plot-data <report.json> --figure <id> [--out FILE]
    hmdlab validate-config <FILE>

Flags win over the config file; the file wins over defaults. HMDLAB_OUT sets
the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .errors import HmdlabError
from .experiments import (
    RECIPES,
    ExperimentConfig,
    emit_plot_data,
    read_json,
    run,
    write_plot_csv,
    write_report,
)
from .mtd import POLICIES


def _build_parser():
    p = argparse.ArgumentParser(prog="hmdlab")
    sub = p.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("run", help="execute an experiment recipe")
    rp.add_argument("recipe", choices=RECIPES)
    rp.add_argument("--config", help="JSON config file")
    rp.add_argument("--seed", type=int, action="append", dest="seeds")
    rp.add_argument("--out", help="output directory (default: $HMDLAB_OUT)")
    rp.add_argument("--csv", dest="csv_path", help="ingest traces from CSV")
    rp.add_argument("--epsilon", type=float)
    rp.add_argument("--policy", choices=POLICIES)
    rp.add_argument("--ht", type=int, dest="h_t")
    rp.add_argument("--rmax", type=int, dest="r_max")
    rp.add_argument("--single-h", type=int, dest="single_h")
    rp.add_argument("--n-benign", type=int, dest="n_benign")
    rp.add_argument("--n-malware", type=int, dest="n_malware")
    rp.add_argument("--n-test", type=int, dest="n_test_per_class")
    rp.add_argument("--iterations", type=int)
    rp.add_argument("--epochs", type=int)

    pp = sub.add_parser("plot-data", help="project a report into a tidy CSV")
    pp.add_argument("report", help="report JSON file")
    pp.add_argument("--figure", required=True)
    pp.add_argument("--out", help="CSV path (default: stdout)")

    vp = sub.add_parser("validate-config", help="check a config file")
    vp.add_argument("config")
    return p


def _config_from_args(args):
    """The config file (or defaults) with every given `run` flag laid over it."""
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in ExperimentConfig.__dataclass_fields__ and value is not None
    }
    return replace(cfg, **overrides)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report = run(_config_from_args(args))
            out_dir = args.out or os.environ.get("HMDLAB_OUT")
            if out_dir:
                print(write_report(report, out_dir))
            else:
                json.dump(report, sys.stdout, indent=2, sort_keys=True)
                print()
        elif args.command == "plot-data":
            rows = emit_plot_data(read_json(args.report, report=True), args.figure)
            if args.out:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    write_plot_csv(rows, fh)
                print(args.out)
            else:
                write_plot_csv(rows, sys.stdout)
        else:  # validate-config
            ExperimentConfig.from_file(args.config)
            print("ok")
    except (HmdlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
