#!/usr/bin/env python3
"""Run the desk-scale benchmark end to end and print the metric tables.

Runs the (alpha, shots) grid of configs/desk_mode.json (or a config given
with --config), analyzes the records into metric tables, and dumps
quality-diagram data for every configuration. Each step is the matching
``vqabench`` subcommand (``run --resume``, ``analyze``, one ``plot-data`` per
config id), so output and exit status are the CLI's. Everything lands under
the output directory:

    records.jsonl  config.json  timings.jsonl
    tables/metrics.csv + table_*.csv + selected.csv
    diagrams/<config_id>/{scatter,bins,level_curves}.csv

Usage: python scripts/run_desk_experiment.py [--config FILE] [--out DIR] [--workers N]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from vqabench import cli
from vqabench.harness import RECORDS_FILENAME, config_id, load_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    default_cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "desk_mode.json")
    parser.add_argument("--config", default=default_cfg)
    parser.add_argument("--out", default="results/desk_mode")
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    records = os.path.join(args.out, RECORDS_FILENAME)
    steps = [
        ["run", "--config", args.config, "--out", args.out,
         "--workers", str(args.workers), "--resume"],
        ["analyze", "--records", records, "--config", args.config,
         "--out-tables", os.path.join(args.out, "tables")],
    ]
    cfg = load_config(args.config)
    for alpha in cfg.alphas:
        for shots in cfg.shots_grid:
            cid = config_id(alpha, shots)
            steps.append(["plot-data", "--records", records, "--config", args.config,
                          "--config-id", cid, "--out", os.path.join(args.out, "diagrams", cid)])
    for argv in steps:
        status = cli.main(argv)
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
