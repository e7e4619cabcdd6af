#!/usr/bin/env python3
"""Benchmark of vqabench: timed sweeps, traced per-layer sweeps, correctness gate.

Usage, from the repository root:

    python3 benchmark/run.py --workload desk-w2 --seed 0 --seconds 36 --trace 0
    python3 benchmark/run.py --workload all            # every workload in turn

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` (runs) and ``metrics``.
The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = BENCH_DIR / ".work"

# Pinned before numpy loads, and inherited by pool workers and set-up probes,
# so that workers x threads never exceeds nproc.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def bootstrap() -> None:
    """Pin BLAS/OpenMP threads and make the checkout's ``src/`` importable."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for needed in (SRC / "vqabench" / "__init__.py", SPEC, ROOT / "configs"):
        if not needed.exists():
            print(f"benchmark: {needed.relative_to(ROOT)} not found", file=sys.stderr)
            sys.exit(2)
    sys.path.insert(0, str(SRC))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def _print_metrics(values: dict, wanted: list[dict]) -> dict:
    out = {}
    for spec in wanted:
        value = values[spec["name"]]
        print(f"{spec['name']} = {value:.6g} {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def run_one(args) -> dict:
    import machine
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        sys.exit(2)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    block = machine.machine_block(ROOT, list(sys.orig_argv),
                                  {var: os.environ.get(var) for var in THREAD_VARS})
    print("machine " + json.dumps(block, sort_keys=True))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        bench = measure.WorkloadBench(ROOT, WORKLOADS[args.workload], args.seed, args.tiny, work)
        print(f"workload {args.workload} seed {args.seed} "
              f"master_seed {bench.cfg.master_seed} runs/sweep {bench.runs} "
              f"workers {bench.workers} n_max {bench.cfg.optimizer.n_max}")
        if args.trace:
            values, notes = bench.traced()
        else:
            values, notes = bench.timed(args.seconds)
    finally:
        shutil.rmtree(work)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    ledger = bench.ledger
    for key, value in notes.items():
        print(f"{key}: {value if isinstance(value, str) else json.dumps(value, sort_keys=True)}")
    print(f"records sha256 {ledger.reference} "
          f"({'pinned' if bench.pinned else 'no pin for this seed/platform; first sweep is the reference'}), "
          f"mismatched sweeps {ledger.mismatched_sweeps}")
    print("hash gate check: " + bench.hash_gate_demo())
    print(f"failed_frac = {ledger.failed / ledger.attempted:.6g} 1 "
          f"({ledger.failed} of {ledger.attempted} runs)")
    metrics = _print_metrics(values, spec["per_layer" if args.trace else "end_to_end"])
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is not carried over."""
    from workloads import WORKLOADS

    rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    rest += ["--tiny"] if args.tiny else []
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name, *rest],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        print(done.stdout, end="")
        if done.returncode != 0:
            sys.exit(done.returncode)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    bootstrap()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
