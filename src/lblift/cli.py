"""Command line front end for the benchmark experiments.

Each subcommand reads a flat key = value config file and writes CSV (or
coefficient text) artifacts into the output directory:

    lblift train      --config train.cfg      --out results/
    lblift lift-bench --config lift.cfg       --out results/
    lblift hybrid     --config hybrid.cfg     --out results/
    lblift cost       --config cost.cfg       --out results/

The subcommand fixes the experiment kind; a config may omit `kind` or
state the matching one.  Exit status is 0 on success, 1 on any error,
with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .bench import parse_config, run_experiment

# each subcommand: the experiment kind it runs, and its help line
_COMMANDS = {
    "train": ("train_only",
              "train lifting coefficients and write them to a file"),
    "lift-bench": ("lift_bench",
                   "measure restrict-then-lift error on a reference state"),
    "hybrid": ("hybrid",
               "run a split PDE/LBM domain against a full LBM reference"),
    "cost": ("cost_table",
             "meter the LBM steps a lifting route consumes in a hybrid run"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lblift",
        description="lattice Boltzmann lifting benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", required=True, metavar="FILE",
                       help="experiment config (key = value lines)")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="directory for output files (default: .)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except OSError as exc:
        print(f"error: cannot read {config_path}: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text, kind=_COMMANDS[args.command][0])
        paths = run_experiment(config, Path(args.out))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
