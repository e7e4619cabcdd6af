"""Command-line interface: run experiments, analyze records, select.

Subcommands:
    run      --config <file> --out <dir> [--workers N] [--resume]
    analyze  --records <file> --out-tables <dir> [--config <file>] [--strict]
    select   --metrics <csv> --thresholds f0,q0,r0 [--strict]

``analyze`` writes the metric tables and every cell's quality-diagram data
under diagrams/<config_id>/, and reads the config snapshot written next to
the records file unless --config is given. VQABENCH_MASTER_SEED and
VQABENCH_WORKERS override the config's master seed and the worker count.
Exit status is 0 on success; failures print a one-line JSON error to stderr
and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    CONFIG_SNAPSHOT_FILENAME,
    analyze,
    load_config,
    load_records,
    read_metrics_csv,
    run_experiment,
)
from .metrics import ESTIMATES, SelectionThresholds, select


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

    p_sel = sub.add_parser("select", help="re-apply the selection cascade to a metrics CSV")
    p_sel.add_argument("--metrics", required=True)
    p_sel.add_argument("--thresholds", required=True, metavar="f0,q0,r0")
    p_sel.add_argument("--strict", action="store_true")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if "VQABENCH_MASTER_SEED" in os.environ:
        cfg.master_seed = int(os.environ["VQABENCH_MASTER_SEED"])
    workers = int(os.environ.get("VQABENCH_WORKERS", args.workers))
    records = run_experiment(cfg, args.out, workers=workers, resume=args.resume)
    n_failed = sum(1 for r in records if r.error is not None)
    print(f"{len(records)} records written to {args.out} ({n_failed} failed)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    snapshot = os.path.join(os.path.dirname(args.records), CONFIG_SNAPSHOT_FILENAME)
    cfg = load_config(args.config or snapshot)
    records = load_records(args.records)
    reports = analyze(records, cfg, out_dir=args.out_tables, strict=args.strict)
    for cid in sorted(reports, key=lambda c: (reports[c].alpha, reports[c].shots)):
        rep = reports[cid]
        print(
            f"{cid}: F={rep.feasibility.value:.2f}±{rep.feasibility.half_width:.2f} "
            f"Q={rep.quality.value:.2f}±{rep.quality.half_width:.2f} "
            f"R={rep.reproducibility.value:.2f}±{rep.reproducibility.half_width:.2f} "
            f"-> {rep.verdict.value}"
        )
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    parts = [float(x) for x in args.thresholds.split(",")]
    if len(parts) != 3:
        raise ValueError("--thresholds expects three comma-separated values: f0,q0,r0")
    thresholds = SelectionThresholds(*parts)
    print("config_id,alpha,shots,verdict")
    for row in read_metrics_csv(args.metrics):
        verdict = select(
            *(row[name] for name in ESTIMATES),
            thresholds,
            strict=args.strict,
            half_widths=tuple(row[f"{name}_err"] for name in ESTIMATES),
        )
        print(f"{row['config_id']},{row['alpha']:g},{row['shots']},{verdict.value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "select": _cmd_select,
    }
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
