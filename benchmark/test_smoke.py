"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root (about a minute on two cores):

    python3 -m pytest benchmark/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(done):
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--trace", str(trace))
    res = result(done)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert f"{m['name']} = " in done.stdout
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
        assert "failed_frac = 0 " in done.stdout


@pytest.fixture
def workload_bench(tmp_path):
    """A tiny-size ``WorkloadBench`` for a named workload, seed 0, in this process."""
    run.bootstrap()
    import measure
    from workloads import WORKLOADS

    return lambda name: measure.WorkloadBench(ROOT, WORKLOADS[name], 0, True, tmp_path)


def test_injected_failing_run_raises_failed_frac(workload_bench, monkeypatch):
    import gate
    from vqabench import harness

    def failing_minimize(*args, **kwargs):
        raise RuntimeError("injected failure")

    bench = workload_bench("shots-n12")
    monkeypatch.setattr(harness, "minimize", failing_minimize)
    sweep = bench.sweep(bench.workers)
    # Every run ends in an error record, which the record check counts
    # whether or not a pinned hash applies here.
    assert gate.bad_records(sweep.records, bench.cfg.optimizer.n_max) == bench.runs
    assert bench.ledger.failed / bench.ledger.attempted == 1.0


def test_tampered_record_trips_the_hash_gate(workload_bench):
    import gate

    bench = workload_bench("paper-n16")
    sweep = bench.sweep(bench.workers)
    assert bench.ledger.failed == 0 and bench.ledger.mismatched_sweeps == 0
    # The first sweep is the reference where no pin applies, so a copy of its
    # records with one byte changed must fail every run.
    digest = bench.ledger.judge(sweep.records, gate.tamper(bench.last_data), bench.runs)
    assert digest != bench.ledger.reference
    assert bench.ledger.mismatched_sweeps == 1
    assert bench.ledger.failed == bench.runs


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
