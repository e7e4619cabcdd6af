"""Timed and traced sweeps of one workload, and the metrics they yield.

Timed mode (``--trace 0``) repeats untraced ``run_experiment`` sweeps at the
workload's worker count for the requested seconds, each followed by
fresh-interpreter set-up probes, and reports medians. Traced mode
(``--trace 1``) runs one untraced sweep at the workload's worker count, then
alternates untraced and traced serial sweeps, and derives the per-layer
metrics from the spans of the last traced sweep. Every sweep of an
invocation goes through the same correctness gate, so the traced serial
records must be byte-identical to the untraced ones.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from vqabench import harness

import gate
import spans

PROBE = Path(__file__).resolve().parent / "setup_probe.py"
# Set-up probes after each timed sweep: interleaved, so that set-up and the
# sweeps sample the same stretches of host speed.
PROBES_PER_SWEEP = 2
# Set-up probes of a traced run, taken after its sweeps.
TRACE_PROBES = 5
# Untraced/traced serial sweep pairs behind trace.overhead_frac.
OVERHEAD_PAIRS = 3

# Spans whose self time belongs to a layer other than the harness.
NON_HARNESS_SPANS = tuple(dict.fromkeys(
    name for _, _, name in spans.LAYER_BINDINGS if name.split(".")[0] != "harness"
))


@dataclass
class Sweep:
    seconds: float
    records: list  # as returned by run_experiment, with wall times
    records_bytes: int


class WorkloadBench:
    def __init__(self, root: Path, workload, seed: int, tiny: bool, work_dir: Path) -> None:
        self.root = root
        self.cfg_doc = workload.config(root, seed, tiny)
        self.cfg = harness.ExperimentConfig.from_dict(self.cfg_doc)
        self.runs = len(self.cfg.alphas) * len(self.cfg.shots_grid) * self.cfg.runs_per_config
        self.workers = workload.workers()
        self.tiny = tiny
        self.work_dir = work_dir
        self.pinned = gate.pinned_hash(workload.name, seed, tiny)
        self.ledger = gate.Ledger(self.cfg.optimizer.n_max, self.pinned)
        self.last_data = b""

    # -- sweeps ---------------------------------------------------------

    def sweep(self, workers: int, recorder: spans.SpanRecorder | None = None) -> Sweep:
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            run = harness.run_experiment
            bindings = []
            if recorder is not None:
                run = recorder.wrap("harness.run_experiment", run)
                bindings = recorder.layer_bindings()
            with spans.patched(bindings):
                started = time.perf_counter()
                records = run(self.cfg, str(out), workers=workers)
                seconds = time.perf_counter() - started
            path = out / harness.RECORDS_FILENAME
            data = path.read_bytes()
            on_disk = harness.load_records(str(path))
        finally:
            shutil.rmtree(out)
        self.ledger.judge(on_disk, data, self.runs)
        self.last_data = data
        return Sweep(seconds=seconds, records=records, records_bytes=len(data))

    def probe(self) -> dict[str, float]:
        """One fresh interpreter's import, prepare_context and their sum."""
        done = subprocess.run(
            [sys.executable, str(PROBE), str(self.root / "src"), json.dumps(self.cfg_doc)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        row = json.loads(done.stdout.strip().splitlines()[-1])
        row["setup_s"] = row["import_s"] + row["prepare_context_s"]
        return row

    # -- modes ----------------------------------------------------------

    def timed(self, seconds: float) -> tuple[dict, dict]:
        """Cycles of one untraced sweep and its probes until the next would end late."""
        sweeps, probes = [], []
        started = time.perf_counter()
        while True:
            cycle = time.perf_counter()
            sweeps.append(self.sweep(self.workers))
            if len(sweeps) == 1:
                # The largest peak among the children waited for so far: the
                # pool workers of this sweep, before any probe has run.
                worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            probes += [self.probe() for _ in range(PROBES_PER_SWEEP)]
            now = time.perf_counter()
            if now - started + (now - cycle) > seconds:
                break
        # Peak RSS of this process plus, on the parallel path, each pool worker.
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = self.workers if self.workers > 1 else 0
        walls = [rec.wall_time for s in sweeps for rec in s.records]
        metrics = {
            "sweep_s": statistics.median(s.seconds for s in sweeps),
            "run_s.p50": statistics.median(walls),
            "setup_s": statistics.median(row["setup_s"] for row in probes),
            "peak_rss_mb": (own_kb + workers * worker_kb) / 1024.0,
        }
        notes = {"sweep_s samples": [round(s.seconds, 4) for s in sweeps],
                 "setup_s samples": [round(row["setup_s"], 4) for row in probes],
                 "run samples": len(walls)}
        if len(walls) >= 100:  # at least ten samples lie beyond the 90th percentile
            notes["run_s.p90"] = f"{statistics.quantiles(walls, n=10)[-1]:.6g} s"
        return metrics, notes

    def traced(self) -> tuple[dict, dict]:
        untraced = self.sweep(self.workers)
        overheads = []
        for _ in range(1 if self.tiny else OVERHEAD_PAIRS):
            serial = self.sweep(1)
            recorder = spans.SpanRecorder()
            traced = self.sweep(1, recorder)
            overheads.append(traced.seconds / serial.seconds - 1.0)
        analysis = self._analysis(traced.records)
        probes = [self.probe() for _ in range(1 if self.tiny else TRACE_PROBES)]
        setup = {key: statistics.median(row[key] for row in probes) for key in probes[0]}

        t = recorder.totals()

        def self_s(name: str) -> float:
            return t.get(name, {}).get("self_s", 0.0)

        def calls(name: str) -> int:
            return t.get(name, {}).get("calls", 0)

        ok = [rec for rec in traced.records if rec.error is None]
        objective_calls = sum(rec.n_calls for rec in ok)
        ctx = harness.prepare_context(self.cfg)
        n, reps = ctx.spec.n_qubits, ctx.spec.reps
        # Computed, not measured: RY gates plus entangler CNOTs, each reading
        # and writing every amplitude of a state of the dtype the build returns.
        state = harness.build_statevector(ctx.spec, ctx.initial_params)
        gates = (reps + 1) * n + reps * (n - 1)
        builds = calls("circuit.build_statevector")
        sweep_traced = t["harness.run_experiment"]["total_s"]
        harness_self = sweep_traced - sum(self_s(name) for name in NON_HARNESS_SPANS)
        shots_drawn = sum(rec.n_calls * rec.shots for rec in ok)

        metrics = {
            "circuit.build_statevector.calls": builds,
            "circuit.build_statevector.self_s": self_s("circuit.build_statevector"),
            "circuit.build_statevector.us_per_call":
                1e6 * self_s("circuit.build_statevector") / max(builds, 1),
            "circuit.build_statevector.bytes_computed":
                builds * gates * state.size * state.itemsize * 2,
            "circuit.gates_per_build": gates,
            "circuit.sample_bitstrings.self_s": self_s("circuit.sample_bitstrings"),
            "circuit.sample_bitstrings.us_per_call":
                1e6 * self_s("circuit.sample_bitstrings")
                / max(calls("circuit.sample_bitstrings"), 1),
            "circuit.sample_bitstrings.shots": shots_drawn,
            "circuit.exact_p_min.self_s": self_s("circuit.exact_p_min"),
            "cost.cvar.self_s": self_s("cost.cvar"),
            "cost.cvar.us_per_call": 1e6 * self_s("cost.cvar") / max(calls("cost.cvar"), 1),
            "cost.cost_estimate.self_s": self_s("cost.cost_estimate"),
            "optimizer.minimize.self_s": self_s("optimizer.minimize"),
            "optimizer.us_per_call":
                1e6 * self_s("optimizer.minimize") / max(objective_calls, 1),
            "optimizer.calls": objective_calls,
            "optimizer.budget_stop_frac":
                sum(rec.n_calls == self.cfg.optimizer.n_max for rec in ok) / max(len(ok), 1),
            "harness.self_s": harness_self,
            "harness.records_bytes": traced.records_bytes,
            "harness.worker_busy_frac":
                sum(rec.wall_time for rec in untraced.records)
                / (self.workers * untraced.seconds),
            "harness.prepare_context_s": setup["prepare_context_s"],
            "harness.analyze_s": analysis["harness.analyze"],
            "cli.import_s": setup["import_s"],
            "qubo.brute_force_minimum_s": setup["brute_force_minimum_s"],
            "metrics.compute_report_s": analysis["metrics.compute_report"],
            "trace.sweep_s": sweep_traced,
            "trace.overhead_frac": statistics.median(overheads),
        }
        notes = {
            "trace.overhead_frac samples": [round(x, 4) for x in overheads],
            "span totals": {name: {k: round(v, 6) for k, v in row.items()} for name, row in t.items()},
            "share of traced sweep_s": {
                name: round(self_s(name) / sweep_traced, 4)
                for name in (*NON_HARNESS_SPANS, "harness.run_experiment", "harness.run_single")
                if name in t
            },
        }
        # Counted calls versus the records' own accounting: a mismatch means a
        # wrapper no longer sees every call, not that the program is wrong.
        if calls("cost.cost_estimate") != objective_calls or builds != objective_calls + len(ok):
            notes["warning"] = (
                f"spans saw {calls('cost.cost_estimate')} objective calls and {builds} builds; "
                f"records account for {objective_calls} and {objective_calls + len(ok)}"
            )
        return metrics, notes

    def _analysis(self, records) -> dict[str, float]:
        """Time ``analyze`` (tables written, as the CLI does) and its reports."""
        recorder = spans.SpanRecorder()
        analyze = recorder.wrap("harness.analyze", harness.analyze)
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        try:
            with spans.patched([(harness, "compute_report",
                                 recorder.wrap("metrics.compute_report", harness.compute_report))]):
                analyze(records, self.cfg, out_dir=str(out))
        finally:
            shutil.rmtree(out)
        totals = recorder.totals()
        return {name: totals.get(name, {}).get("total_s", 0.0)
                for name in ("harness.analyze", "metrics.compute_report")}

    def hash_gate_demo(self) -> str:
        """Judge a one-byte-tampered copy of the last records against the reference."""
        probe = gate.Ledger(self.cfg.optimizer.n_max, self.ledger.reference)
        probe.judge([], gate.tamper(self.last_data), self.runs)
        return f"a copy with one byte changed fails {probe.failed} of {probe.attempted} runs"
