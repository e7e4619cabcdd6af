"""Command-line interface: run experiments and analyze their records.

Subcommands:
    run      --config <file> --out <dir> [--workers N] [--resume]
    analyze  --records <file> --out-tables <dir> [--config <file>] [--strict]

``run`` takes every run input from the config file, and the worker count
from --workers. ``analyze`` applies the selection cascade to the records
and writes the metric tables, selected.csv and every cell's quality-diagram
data under diagrams/<config_id>/. It reads the config snapshot written next
to the records file unless --config is given, so a copy of that config with
other thresholds or another confidence re-selects the same records, and
--strict selects on the interval edges. Exit status is 0 on success;
failures print a one-line JSON error to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import CONFIG_SNAPSHOT_FILENAME, analyze, load_config, load_records, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vqabench",
        description="Benchmark VQA configurations on QUBO instances "
        "(feasibility / quality / reproducibility).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment grid of a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--resume", action="store_true")

    p_an = sub.add_parser("analyze", help="compute metric tables from run records")
    p_an.add_argument("--records", required=True)
    p_an.add_argument("--config", help="default: the config.json snapshot next to --records")
    p_an.add_argument("--out-tables", required=True)
    p_an.add_argument("--strict", action="store_true")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    records = run_experiment(cfg, args.out, workers=args.workers, resume=args.resume)
    n_failed = sum(1 for r in records if r.error is not None)
    print(f"{len(records)} records written to {args.out} ({n_failed} failed)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    snapshot = os.path.join(os.path.dirname(args.records), CONFIG_SNAPSHOT_FILENAME)
    cfg = load_config(args.config or snapshot)
    records = load_records(args.records)
    reports = analyze(records, cfg, out_dir=args.out_tables, strict=args.strict)
    for cid, rep in reports.items():
        print(
            f"{cid}: F={rep.feasibility.value:.2f}±{rep.feasibility.half_width:.2f} "
            f"Q={rep.quality.value:.2f}±{rep.quality.half_width:.2f} "
            f"R={rep.reproducibility.value:.2f}±{rep.reproducibility.half_width:.2f} "
            f"-> {rep.verdict.value}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "analyze": _cmd_analyze}
    try:
        return handlers[args.command](args)
    except Exception as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
