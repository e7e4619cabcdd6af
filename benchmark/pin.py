#!/usr/bin/env python3
"""Pin the records hashes that the benchmark's correctness gate compares against.

Usage, from the repository root:

    python3 benchmark/pin.py [--seeds 16]

Runs one sweep per workload, seed (0 .. seeds-1) and size (full and tiny)
and writes benchmark/pinned.json: each records file's SHA-256 and the
platform it was taken on. Re-pin only with a change that is meant to alter
the records, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args()
    run.bootstrap()

    import gate
    import machine
    import measure
    from workloads import WORKLOADS

    pins: dict[str, dict[str, str]] = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        for workload in WORKLOADS.values():
            for tiny in (False, True):
                key = gate.pin_key(workload.name, tiny)
                for seed in range(args.seeds):
                    bench = measure.WorkloadBench(run.ROOT, workload, seed, tiny, work)
                    sweep = bench.sweep(bench.workers)
                    if gate.bad_records(sweep.records, bench.cfg.optimizer.n_max):
                        raise SystemExit(f"{key} seed {seed}: records fail the gate; not pinned")
                    pins.setdefault(key, {})[str(seed)] = gate.sha256(bench.last_data)
                    print(key, seed, pins[key][str(seed)], flush=True)
    finally:
        shutil.rmtree(work)
    doc = {"platform": machine.platform_fingerprint(), "records_sha256": pins}
    gate.PIN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
