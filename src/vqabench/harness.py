"""Experiment orchestration: seeded run grids, durable records, analysis tables.

An experiment sweeps a (CVaR alpha, shots) grid, running ``runs_per_config``
independent optimizations per cell against one QUBO instance. Every run is
seeded as SHA-256(master_seed | config_id | run_index) truncated to 64 bits,
so records are reproducible for a given build regardless of worker count or
scheduling; floating-point determinism across platforms is not promised.

Run records are JSON Lines, appended as runs complete (so interrupted
experiments resume by skipping finished (config_id, run_index) pairs) and
rewritten in canonical (alpha, shots, run_index) order on completion, making
record files byte-identical across reruns and worker counts. Wall times are
inherently nondeterministic and therefore live in a separate timings.jsonl
sidecar, never in the canonical records. A failed run is recorded with an
error marker rather than dropped.

All runs and configurations share one initial parameter vector; per-run
stochasticity enters only through the sampling stream of the cost estimate.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from typing import get_type_hints

import numpy as np

from . import metrics
from .circuit import AnsatzSpec, build_statevector, exact_p_min
from .cost import cost_estimate
from .metrics import (
    ESTIMATES,
    METRICS_CSV_COLUMNS,
    MetricsReport,
    RunOutcome,
    SelectionThresholds,
    Verdict,
    VqaDistribution,
    compute_report,
    diagram_occupancy,
    normalize,
    quality_level_curve,
)
from .optimizer import OptimizerSettings, minimize
from .qubo import QuboInstance, all_costs, brute_force_minimum, load_qubo, random_qubo

log = logging.getLogger(__name__)

RECORDS_FILENAME = "records.jsonl"
TIMINGS_FILENAME = "timings.jsonl"
CONFIG_SNAPSHOT_FILENAME = "config.json"

#: Quality levels traced by emit_quality_diagram_data.
LEVEL_CURVE_VALUES = (1.0, 2.0, 4.0)


@dataclass
class ExperimentConfig:
    """Full description of one experiment sweep (JSON-serializable)."""

    alphas: list[float]
    shots_grid: list[int]
    runs_per_config: int
    optimizer: OptimizerSettings
    p_threshold: float
    thresholds: SelectionThresholds
    master_seed: int
    confidence: float = 0.95
    reps: int = 1
    qubo_path: str | None = None
    qubo_dimension: int | None = None
    qubo_seed: int | None = None
    qubo_value_range: tuple[float, float] = (-10.0, 10.0)
    initial_params_values: list[float] | None = None
    initial_params_seed: int | None = None

    def __post_init__(self) -> None:
        if not self.alphas or not self.shots_grid:
            raise ValueError("alphas and shots_grid must be non-empty")
        for a in self.alphas:
            if not 0.0 < a <= 1.0:
                raise ValueError(f"alpha must be in (0, 1], got {a}")
        for s in self.shots_grid:
            if s < 1:
                raise ValueError(f"shots must be >= 1, got {s}")
        ids = Counter(config_id(a, s) for a in self.alphas for s in self.shots_grid)
        shared = sorted(cid for cid, n in ids.items() if n > 1)
        if shared:
            raise ValueError(
                f"grid cells share config ids {shared}: alphas must differ within "
                "six significant digits and no alpha or shots value may repeat"
            )
        if self.runs_per_config < 1:
            raise ValueError("runs_per_config must be >= 1")
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError(f"p_threshold must be in (0, 1), got {self.p_threshold}")
        if self.qubo_path is None and (self.qubo_dimension is None or self.qubo_seed is None):
            raise ValueError("config needs either qubo_path or (qubo_dimension, qubo_seed)")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        qubo = doc.get("qubo", {})
        init = doc.get("initial_params", {})
        default = {f.name: f.default for f in fields(ExperimentConfig)}
        return ExperimentConfig(
            alphas=[float(a) for a in doc["alphas"]],
            shots_grid=[int(s) for s in doc["shots_grid"]],
            runs_per_config=int(doc["runs_per_config"]),
            optimizer=_settings_from_dict(OptimizerSettings, doc.get("optimizer", {})),
            p_threshold=float(doc["p_threshold"]),
            thresholds=_settings_from_dict(SelectionThresholds, doc["thresholds"]),
            master_seed=int(doc["master_seed"]),
            confidence=float(doc.get("confidence", default["confidence"])),
            reps=int(doc.get("ansatz", {}).get("reps", default["reps"])),
            qubo_path=qubo.get("path"),
            qubo_dimension=qubo.get("dimension"),
            qubo_seed=qubo.get("seed"),
            qubo_value_range=tuple(qubo.get("value_range", default["qubo_value_range"])),
            initial_params_values=init.get("values"),
            initial_params_seed=init.get("seed"),
        )

    def to_dict(self) -> dict:
        qubo: dict = {}
        if self.qubo_path is not None:
            qubo["path"] = self.qubo_path
        else:
            qubo["dimension"] = self.qubo_dimension
            qubo["seed"] = self.qubo_seed
            qubo["value_range"] = list(self.qubo_value_range)
        init: dict = {}
        if self.initial_params_values is not None:
            init["values"] = list(self.initial_params_values)
        elif self.initial_params_seed is not None:
            init["seed"] = self.initial_params_seed
        return {
            "qubo": qubo,
            "ansatz": {"reps": self.reps},
            "alphas": list(self.alphas),
            "shots_grid": list(self.shots_grid),
            "runs_per_config": self.runs_per_config,
            "optimizer": asdict(self.optimizer),
            "p_threshold": self.p_threshold,
            "thresholds": asdict(self.thresholds),
            "confidence": self.confidence,
            "master_seed": self.master_seed,
            "initial_params": init,
        }


def _settings_from_dict(cls, doc: dict):
    """Settings dataclass from its JSON object. Keys and defaults come from the
    dataclass; each value is coerced to its field's type, which ``config.json``'s
    bytes and the resume digest depend on."""
    types = get_type_hints(cls)
    return cls(**{f.name: types[f.name](doc[f.name]) for f in fields(cls) if f.name in doc})


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def save_config(cfg: ExperimentConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_id(alpha: float, shots: int) -> str:
    # underscore-separated so the id stays a single CSV field and shell token
    return f"alpha={alpha:g}_shots={shots}"


def _config_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_seed(master_seed: int, cid: str, run_index: int) -> int:
    """Stable 64-bit per-run seed: SHA-256 of "master|config_id|run_index"."""
    digest = hashlib.sha256(f"{master_seed}|{cid}|{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RunRecord:
    """One run's persisted result; ``error`` is set instead of the outcome on failure.

    The fields are the keys of a records.jsonl line, unset (None) ones left
    out. ``wall_time`` is kept in memory and in the timings sidecar only,
    never in the canonical records file, which must be byte-identical across
    reruns.
    """

    config_id: str
    alpha: float
    shots: int
    run_index: int
    seed: int
    n_calls: int | None = None
    p_min: float | None = None
    best_cost: float | None = None
    error: str | None = None
    wall_time: float | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            key: value
            for key, value in asdict(self).items()
            if key != "wall_time" and value is not None
        }

    @staticmethod
    def from_dict(doc: dict) -> "RunRecord":
        return RunRecord(**doc)

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class _RunContext:
    """Immutable shared state for all runs of one experiment."""

    qubo: QuboInstance
    cost_table: np.ndarray
    spec: AnsatzSpec
    initial_params: np.ndarray
    settings: OptimizerSettings
    master_seed: int


def prepare_context(cfg: ExperimentConfig) -> _RunContext:
    """Resolve the QUBO, its minimizers, the cost table, and the shared start point."""
    if cfg.qubo_path is not None:
        q = load_qubo(cfg.qubo_path)
    else:
        q = random_qubo(cfg.qubo_dimension, cfg.qubo_seed, cfg.qubo_value_range)
    cost_table = all_costs(q)
    brute_force_minimum(q, costs=cost_table)
    spec = AnsatzSpec(n_qubits=q.dimension, reps=cfg.reps)
    if cfg.initial_params_values is not None:
        theta0 = np.asarray(cfg.initial_params_values, dtype=np.float64)
        if theta0.shape != (spec.num_parameters,):
            raise ValueError(
                f"initial_params has {theta0.size} values, ansatz needs {spec.num_parameters}"
            )
    else:
        seed = cfg.initial_params_seed
        if seed is None:
            seed = run_seed(cfg.master_seed, "initial-params", 0)
        rng = np.random.default_rng(seed)
        theta0 = rng.uniform(-math.pi, math.pi, size=spec.num_parameters)
    return _RunContext(
        qubo=q,
        cost_table=cost_table,
        spec=spec,
        initial_params=theta0,
        settings=cfg.optimizer,
        master_seed=cfg.master_seed,
    )


def run_single(ctx: _RunContext, alpha: float, shots: int, run_index: int) -> RunRecord:
    """Execute one seeded optimization run and package its record.

    Identical inputs produce identical records (wall_time aside): the run's
    generator is derived only from (master_seed, config_id, run_index), and
    the optimizer is deterministic given the objective value sequence.
    """
    cid = config_id(alpha, shots)
    rec = RunRecord(
        config_id=cid, alpha=alpha, shots=shots, run_index=run_index,
        seed=run_seed(ctx.master_seed, cid, run_index),
    )
    started = time.perf_counter()
    try:
        rng = np.random.default_rng(rec.seed)

        def objective(params: np.ndarray) -> float:
            return cost_estimate(ctx.spec, params, ctx.cost_table, alpha, shots, rng)

        result = minimize(objective, ctx.initial_params, ctx.settings)
        state = build_statevector(ctx.spec, result.final_params)
        p_min = exact_p_min(state, ctx.qubo)
        # set together, after the last call that can raise: a record holds
        # either the whole outcome or the error
        rec.n_calls, rec.p_min, rec.best_cost = result.n_calls, p_min, result.best_value
    except Exception as exc:  # a failed run is recorded, never dropped
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.wall_time = time.perf_counter() - started
    return rec


_WORKER_CTX: _RunContext | None = None


def _worker_init(cfg: ExperimentConfig) -> None:
    global _WORKER_CTX
    _WORKER_CTX = prepare_context(cfg)


def _worker_run(task: tuple[float, int, int]) -> RunRecord:
    assert _WORKER_CTX is not None
    return run_single(_WORKER_CTX, *task)


def _record_sort_key(rec: RunRecord) -> tuple:
    return (rec.alpha, rec.shots, rec.run_index)


def load_records(path: str) -> list[RunRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(json.loads(line)))
    return records


def _drop_torn_tail(path: str) -> None:
    """Truncate a JSON Lines file back to its last newline.

    A crash mid-write can leave an incomplete last line; cutting it lets the
    resumed run append its lines on a clean line. Complete lines are kept,
    so a record that fails to parse still raises in load_records.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        fh.truncate(data.rfind(b"\n") + 1)


def _rewrite_canonical(records: list[RunRecord], path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for rec in sorted(records, key=_record_sort_key):
            fh.write(rec.to_json_line())
    os.replace(tmp, path)


def run_experiment(
    cfg: ExperimentConfig, out_dir: str, workers: int = 1, resume: bool = False
) -> list[RunRecord]:
    """Run the full (alpha, shots) grid and persist records under out_dir.

    Runs execute concurrently over ``workers`` processes; the final records
    file is identical for any worker count. With ``resume``, runs already in
    the records file are skipped and only missing ones are computed; a
    config that differs from the snapshot in out_dir raises ValueError
    before any file is touched.
    """
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, RECORDS_FILENAME)
    timings_path = os.path.join(out_dir, TIMINGS_FILENAME)
    snapshot_path = os.path.join(out_dir, CONFIG_SNAPSHOT_FILENAME)
    if resume and os.path.exists(snapshot_path):
        with open(snapshot_path, encoding="utf-8") as fh:
            snapshot = json.load(fh)
        if _config_digest(snapshot) != _config_digest(cfg.to_dict()):
            raise ValueError(
                f"cannot resume in {out_dir}: the config differs from its snapshot "
                f"{CONFIG_SNAPSHOT_FILENAME}; rerun without --resume or use a new directory"
            )
    save_config(cfg, snapshot_path)

    existing: list[RunRecord] = []
    if resume and os.path.exists(records_path):
        _drop_torn_tail(records_path)
        existing = load_records(records_path)
    elif os.path.exists(records_path):
        os.remove(records_path)
    if resume and os.path.exists(timings_path):
        _drop_torn_tail(timings_path)
    done = {(r.config_id, r.run_index) for r in existing}

    tasks = [
        (alpha, shots, run_index)
        for alpha in cfg.alphas
        for shots in cfg.shots_grid
        for run_index in range(cfg.runs_per_config)
        if (config_id(alpha, shots), run_index) not in done
    ]

    records = list(existing)
    with open(records_path, "a", encoding="utf-8") as rec_fh, open(
        timings_path, "a" if resume else "w", encoding="utf-8"
    ) as time_fh:

        def sink(rec: RunRecord) -> None:
            records.append(rec)
            rec_fh.write(rec.to_json_line())
            rec_fh.flush()
            time_fh.write(
                json.dumps(
                    {
                        "config_id": rec.config_id,
                        "run_index": rec.run_index,
                        "wall_time": rec.wall_time,
                    },
                    sort_keys=True,
                )
                + "\n"
            )

        # Forked pools start every worker at the first submit, and each
        # worker prepares its own context: ask for no more than there are runs.
        workers = min(workers, len(tasks))
        if workers <= 1:
            ctx = prepare_context(cfg)
            for task in tasks:
                sink(run_single(ctx, *task))
        else:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init, initargs=(cfg,)
            ) as pool:
                futures = [pool.submit(_worker_run, task) for task in tasks]
                for fut in as_completed(futures):
                    sink(fut.result())

    _rewrite_canonical(records, records_path)
    return sorted(records, key=_record_sort_key)


def build_distributions(
    records: list[RunRecord], cfg: ExperimentConfig
) -> dict[str, VqaDistribution]:
    """Group successful records into per-configuration run ensembles."""
    grouped: dict[str, list[RunOutcome]] = {}
    for alpha in cfg.alphas:
        for shots in cfg.shots_grid:
            grouped[config_id(alpha, shots)] = []
    for rec in records:
        if rec.error is not None:
            continue
        if rec.config_id not in grouped:
            raise ValueError(f"record config {rec.config_id!r} not in the experiment grid")
        grouped[rec.config_id].append(RunOutcome(n_calls=rec.n_calls, p_min=rec.p_min))
    return {
        cid: VqaDistribution(
            outcomes=outs,
            n_max=cfg.optimizer.n_max,
            p_threshold=cfg.p_threshold,
            config_id=cid,
        )
        for cid, outs in grouped.items()
    }


def analyze(
    records: list[RunRecord],
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    strict: bool = False,
) -> dict[str, MetricsReport]:
    """Per-configuration metric reports, optionally written as CSV tables.

    Configurations without at least two successful runs are reported as
    skipped and excluded from the tables and the selection. When ``out_dir``
    is given, writes metrics.csv (one row per configuration), one pivoted
    table per metric with shots as rows and alphas as columns, and the
    selected-set listing of accepted configurations.
    """
    dists = build_distributions(records, cfg)
    n_failed = Counter(r.config_id for r in records if r.error is not None)
    reports: dict[str, MetricsReport] = {}
    for alpha, shots in product(cfg.alphas, cfg.shots_grid):
        cid = config_id(alpha, shots)
        dist = dists[cid]
        if len(dist) < 2:
            log.warning(
                "config %s skipped: %d successful runs (%d failed)",
                cid, len(dist), n_failed[cid],
            )
            continue
        reports[cid] = compute_report(
            dist, cfg.thresholds, cfg.confidence, strict=strict, alpha=alpha, shots=shots
        )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_metrics_csv(reports, os.path.join(out_dir, "metrics.csv"))
        for name in ESTIMATES:
            _write_pivot_table(reports, name, cfg, os.path.join(out_dir, f"table_{name}.csv"))
        _write_selected(reports, os.path.join(out_dir, "selected.csv"))
    return reports


def write_metrics_csv(reports: dict[str, MetricsReport], path: str) -> None:
    rows = sorted(reports.values(), key=lambda r: (r.alpha, r.shots))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_CSV_COLUMNS)
        writer.writerows(rep.to_csv_row() for rep in rows)


def read_metrics_csv(path: str) -> list[dict]:
    """Rows of a metrics.csv as dicts with numeric fields parsed."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in row:
            if key in ("config_id", "verdict"):
                continue
            row[key] = int(row[key]) if key in ("shots", "n_runs") else float(row[key])
    return rows


def _write_pivot_table(reports, name: str, cfg: ExperimentConfig, path: str) -> None:
    # Layout: shots as rows, alphas as columns, "value +- half_width" cells.
    alphas = sorted(cfg.alphas)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("s\\alpha," + ",".join(f"{a:g}" for a in alphas) + "\n")
        for shots in sorted(cfg.shots_grid):
            cells = []
            for alpha in alphas:
                rep = reports.get(config_id(alpha, shots))
                if rep is None:
                    cells.append("")
                else:
                    est = getattr(rep, name)
                    cells.append(f"{est.value:.2f} ± {est.half_width:.2f}")
            fh.write(f"{shots}," + ",".join(cells) + "\n")


def _write_selected(reports: dict[str, MetricsReport], path: str) -> None:
    accepted = sorted(
        (r for r in reports.values() if r.verdict is Verdict.ACCEPTED),
        key=lambda r: (r.alpha, r.shots),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("alpha,shots\n")
        for rep in accepted:
            fh.write(f"{rep.alpha:g},{rep.shots}\n")


def emit_quality_diagram_data(
    records: list[RunRecord], cfg: ExperimentConfig, cid: str, out_dir: str
) -> None:
    """Write plain columnar diagram data for one configuration.

    Produces scatter.csv with the normalized (u, v) run points, bins.csv with
    the 10x10 occupancy grid feeding reproducibility, and level_curves.csv
    sampling the quality level curves q in {1, 2, 4} for external plotting.
    """
    dists = build_distributions(records, cfg)
    if cid not in dists:
        raise ValueError(f"unknown config id {cid!r}")
    dist = dists[cid]
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "scatter.csv"), "w", encoding="utf-8") as fh:
        fh.write("run_index,n_calls,p_min,u,v\n")
        run_rows = sorted(
            (r for r in records if r.config_id == cid and r.error is None),
            key=_record_sort_key,
        )
        for rec in run_rows:
            point = normalize(RunOutcome(rec.n_calls, rec.p_min), cfg.optimizer.n_max)
            fh.write(f"{rec.run_index},{rec.n_calls},{rec.p_min!r},{point.u!r},{point.v!r}\n")

    counts = diagram_occupancy(dist)
    width = 1.0 / metrics.GRID_BINS
    with open(os.path.join(out_dir, "bins.csv"), "w", encoding="utf-8") as fh:
        fh.write("u_bin,v_bin,u_lo,v_lo,count\n")
        for i in range(metrics.GRID_BINS):
            for j in range(metrics.GRID_BINS):
                fh.write(f"{i},{j},{i * width:g},{j * width:g},{counts[i, j]}\n")

    with open(os.path.join(out_dir, "level_curves.csv"), "w", encoding="utf-8") as fh:
        fh.write("q,u,v\n")
        for q_value in LEVEL_CURVE_VALUES:
            for u, v in quality_level_curve(q_value, cfg.p_threshold):
                fh.write(f"{q_value:g},{float(u)!r},{float(v)!r}\n")
