"""Experiment orchestration and file formats: run grids, records, instance files, tables.

An experiment sweeps a (CVaR alpha, shots) grid, running ``runs_per_config``
independent optimizations per cell against one QUBO instance. Every run is
seeded as SHA-256(master_seed | config_id | run_index) truncated to 64 bits,
so records are reproducible for a given build regardless of worker count or
scheduling; floating-point determinism across platforms is not promised.

Run records are JSON Lines, appended as runs complete (so rerunning a stopped
experiment computes only the missing (config_id, run_index) pairs) and
rewritten in canonical (alpha, shots, run_index) order on completion, making
record files byte-identical across reruns and worker counts. Wall times are
inherently nondeterministic and therefore live in a separate timings.jsonl
sidecar, never in the canonical records. A failed run is recorded with an
error marker rather than dropped.

All runs and configurations share one initial parameter vector; per-run
stochasticity enters only through the sampling stream of the cost estimate.
"""

from __future__ import annotations

# csv, logging and concurrent.futures are imported in the functions that use
# them: a run's set-up (import plus prepare_context) needs none of them, and a
# serial run never needs the pool.
import hashlib
import json
import math
import os
import time
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from functools import cache
from itertools import product
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .circuit import AnsatzSpec, build_statevector, exact_p_min, state_buffers
from .cost import cost_estimate
from .metrics import (
    ESTIMATES,
    GRID_BINS,
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
from .optimizer import OptimizerSettings, check_start, minimize
from .qubo import QuboInstance, all_costs, brute_force_minimum, check_enumerable, random_qubo

RECORDS_FILENAME = "records.jsonl"
TIMINGS_FILENAME = "timings.jsonl"
CONFIG_SNAPSHOT_FILENAME = "config.json"

#: Quality levels traced in each cell's level_curves.csv.
LEVEL_CURVE_VALUES = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class QuboSource:
    """The config's ``qubo`` object: an instance file's ``path``, or the
    ``dimension``, ``seed`` and ``value_range`` of a drawn instance."""

    path: str | None = None
    dimension: int | None = None
    seed: int | None = None
    value_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.path is not None:
            if (self.dimension, self.seed, self.value_range) != (None, None, None):
                raise ValueError("qubo gives a path and a drawn instance's keys: give one")
        elif None in (self.dimension, self.seed):
            raise ValueError("qubo needs either a path or a dimension and a seed")
        elif self.value_range is None:
            object.__setattr__(self, "value_range", (-10.0, 10.0))


@dataclass(frozen=True)
class AnsatzSettings:
    """The config's ``ansatz`` object."""

    reps: int = 1


@dataclass(frozen=True)
class InitialParams:
    """The config's ``initial_params`` object: the start point's ``values``, or
    the ``seed`` of a uniform draw from [-pi, pi)."""

    values: tuple[float, ...] | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if (self.values is None) == (self.seed is None):
            raise ValueError("initial_params needs exactly one of values or a seed")


@dataclass
class ExperimentConfig:
    """Full description of one experiment sweep. The fields, and those of the
    nested settings, are the keys of its JSON file."""

    qubo: QuboSource
    alphas: list[float]
    shots_grid: list[int]
    runs_per_config: int
    p_threshold: float
    thresholds: SelectionThresholds
    master_seed: int
    initial_params: InitialParams
    ansatz: AnsatzSettings = AnsatzSettings()
    optimizer: OptimizerSettings = OptimizerSettings()
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if not self.alphas or not self.shots_grid:
            raise ValueError("alphas and shots_grid must be non-empty")
        for a in self.alphas:
            if not 0.0 < a <= 1.0:
                raise ValueError(f"alpha must be in (0, 1], got {a}")
        for s in self.shots_grid:
            if s < 1:
                raise ValueError(f"shots must be >= 1, got {s}")
        ids = Counter(cid for _, _, cid in _cells(self))
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
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        return _read(ExperimentConfig, doc, "config")

    def to_dict(self) -> dict:
        return asdict(self, dict_factory=_json_object)


@cache
def _keys(tp) -> tuple[dict, set[str]]:
    """A dataclass's init fields' types by name, and the names without a default."""
    init = [f for f in fields(tp) if f.init]
    types = get_type_hints(tp)
    return {f.name: types[f.name] for f in init}, {f.name for f in init if f.default is MISSING}


def _read(tp, value, key: str):
    """JSON ``value`` read as type ``tp``, named ``key`` in errors. A dataclass
    reads from an object keyed by its init fields, missing ones taking their
    defaults, and every value is coerced to its field's type. An unknown key,
    a missing required one, a non-integral integer and a value of the wrong
    JSON type (a list or tuple takes an array, a string field a string and a
    numeric one a number other than true or false) raise ValueError."""
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{key} must be a JSON object")
        types, required = _keys(tp)
        for name in sorted(value.keys() - types.keys()):
            raise ValueError(f"unknown key {name!r} in {key}")
        for name in sorted(required.difference(value)):
            raise ValueError(f"{key} needs the key {name!r}")
        return tp(**{name: _read(types[name], v, name) for name, v in value.items()})
    args = get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _read(args[0], value, key)
    if get_origin(tp) in (list, tuple):
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a JSON array, got {value!r}")
        items = [_read(args[0], v, key) for v in value]
        if get_origin(tp) is list:
            return items
        if args[-1] is not Ellipsis and len(items) != len(args):
            raise ValueError(f"{key} needs {len(args)} values, got {len(items)}")
        return tuple(items)
    if tp is str:
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
        return value
    # JSON's true and false load as bools, which Python counts as integers
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value}")
    return tp(value)


def _json_object(items) -> dict:
    """A dataclass's JSON object: its set fields, tuples written as lists."""
    return {key: list(v) if isinstance(v, tuple) else v for key, v in items if v is not None}


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def save_config(cfg: ExperimentConfig, path: str) -> None:
    _write_durably(path, [json.dumps(cfg.to_dict(), indent=2, sort_keys=True), "\n"])


@dataclass(frozen=True)
class _QuboFile:
    """The keys of a QUBO instance file."""

    dimension: int
    matrix: list[list[float]]


def save_qubo(q: QuboInstance, path: str) -> None:
    """Write an instance's full dense matrix as JSON (see load_qubo)."""
    _write_durably(path, [json.dumps(asdict(_QuboFile(q.dimension, q.matrix.tolist()))), "\n"])


def load_qubo(path: str) -> QuboInstance:
    """Read an instance file, ``{"dimension": N, "matrix": [[...], ...]}``
    with the full dense matrix. Its keys are read like a config's, and a
    matrix that is not N x N, or that QuboInstance refuses, raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        doc = _read(_QuboFile, json.load(fh), "instance")
    m = np.array(doc.matrix, dtype=np.float64)
    if m.shape != (doc.dimension, doc.dimension):
        raise ValueError(f"matrix shape {m.shape} does not match its dimension {doc.dimension}")
    return QuboInstance(matrix=m)


def config_id(alpha: float, shots: int) -> str:
    # underscore-separated so the id stays a single CSV field and shell token
    return f"alpha={alpha:g}_shots={shots}"


def _cells(cfg: ExperimentConfig) -> list[tuple[float, int, str]]:
    """The grid's (alpha, shots, config id) cells in sweep order."""
    return [(a, s, config_id(a, s)) for a, s in product(cfg.alphas, cfg.shots_grid)]


def run_seed(master_seed: int, cid: str, run_index: int) -> int:
    """Stable 64-bit per-run seed: SHA-256 of "master|config_id|run_index"."""
    digest = hashlib.sha256(f"{master_seed}|{cid}|{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RunRecord:
    """One run's persisted result; ``error`` is set instead of the outcome on failure.

    The constructor's fields are the keys of a records.jsonl line, unset
    (None) ones left out. ``wall_time`` is set by run_block, the run's share
    of its block, and kept in memory and in the timings sidecar only, never
    in the canonical records file, which must be byte-identical across
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
    wall_time: float | None = field(default=None, compare=False, init=False)

    def to_dict(self) -> dict:
        doc = asdict(self, dict_factory=_json_object)
        doc.pop("wall_time", None)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "RunRecord":
        rec = _read(RunRecord, doc, "record")
        outcome = [rec.n_calls, rec.p_min, rec.best_cost]
        if outcome.count(None) != (0 if rec.error is None else len(outcome)):
            raise ValueError("record needs either n_calls, p_min and best_cost or an error")
        return rec

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


@dataclass(frozen=True)
class _RunContext:
    """Shared state for all runs of one experiment, its arrays read-only."""

    cost_table: np.ndarray
    is_minimal: np.ndarray
    spec: AnsatzSpec
    initial_params: np.ndarray
    settings: OptimizerSettings
    master_seed: int


def prepare_context(cfg: ExperimentConfig) -> _RunContext:
    """Resolve the QUBO, the shared start point, the cost table and its minimum mask.

    The start point and the budget are refused here as every run's ``minimize``
    would refuse them (check_start), before the 2^N costs are enumerated."""
    if cfg.qubo.path is not None:
        q = load_qubo(cfg.qubo.path)
    else:
        q = random_qubo(cfg.qubo.dimension, cfg.qubo.seed, cfg.qubo.value_range)
    check_enumerable(q.dimension)
    spec = AnsatzSpec(n_qubits=q.dimension, reps=cfg.ansatz.reps)
    start = cfg.initial_params
    if start.values is not None:
        theta0 = np.asarray(start.values, dtype=np.float64)
        if theta0.shape != (spec.num_parameters,):
            raise ValueError(
                f"initial_params has {theta0.size} values, ansatz needs {spec.num_parameters}"
            )
    else:
        rng = np.random.default_rng(start.seed)
        theta0 = rng.uniform(-math.pi, math.pi, size=spec.num_parameters)
    check_start(theta0, cfg.optimizer)
    cost_table = all_costs(q)
    for shared in (theta0, cost_table):
        shared.setflags(write=False)
    _, is_minimal = brute_force_minimum(q, costs=cost_table)
    return _RunContext(
        cost_table=cost_table,
        is_minimal=is_minimal,
        spec=spec,
        initial_params=theta0,
        settings=cfg.optimizer,
        master_seed=cfg.master_seed,
    )


#: Amplitudes built per lockstep step: a block advances at most
#: BLOCK_AMPLITUDES >> N runs together (64 at N=6), and one run from N=12 up.
#: A step's search costs about as much for the block as for one run, so a
#: larger block pays it for more runs.
BLOCK_AMPLITUDES = 1 << 12


def block_runs(n_qubits: int) -> int:
    """The most runs of one cell that a block advances together at N qubits."""
    return max(1, BLOCK_AMPLITUDES >> n_qubits)


def run_block(
    ctx: _RunContext, alpha: float, shots: int, run_indices
) -> list[RunRecord]:
    """Execute seeded optimization runs of one cell in lockstep and package
    their records, in the order of ``run_indices``.

    The block's searches are made as one SearchStack
    (``minimize(None, starts, ...)``), and each run's generator derives only
    from (master_seed, config_id, run_index). At each step the running
    searches' points and the runs' generators go to ``cost_estimate`` in one
    call, which builds the points as one batch of states and samples,
    prices and reduces each row to CVaR with its own run's generator, each
    row the bits of the single call, so every record equals the one of the
    run computed alone (wall_time aside). When the batch raises, the runs'
    generators go back to their states before the step and each run is
    evaluated alone by ``cost_estimate``. A run whose evaluation raises is
    recorded with the error while the others go on; a failure to make the
    searches, or a search step that raises, fails every run it held. A
    run's ``wall_time`` is its share of the block: each step's time split
    equally among the runs it advanced, plus the run's own final build.
    """
    clock = time.perf_counter()
    cid = config_id(alpha, shots)
    records = [
        RunRecord(config_id=cid, alpha=alpha, shots=shots, run_index=i,
                  seed=run_seed(ctx.master_seed, cid, i))
        for i in run_indices
    ]
    for rec in records:
        rec.wall_time = 0.0
    # The runs as (record, generator), numbered as the stack's runs.
    runs = [(rec, np.random.default_rng(rec.seed)) for rec in records]
    try:
        stack = minimize(None, np.repeat(ctx.initial_params[None], len(runs), axis=0), ctx.settings)
    except Exception as exc:  # a failed run is recorded, never dropped
        stack = None
        for rec in records:
            rec.error = _error(exc)
    clock = _charge(records, clock)
    n = ctx.spec.n_qubits
    while stack is not None and stack.runs:
        stepped = [runs[i] for i in stack.runs]
        points = stack.ask()
        gens = [rng for _, rng in stepped]
        held = [rng.bit_generator.state for rng in gens]
        try:
            values = cost_estimate(ctx.spec, points, ctx.cost_table, alpha, shots, gens)
        except Exception:
            # Some row failed: each run is evaluated alone from its
            # generator's state before the step, so only a failing run errs
            # and leaves the stack.
            values = []
            for (rec, rng), state, point in zip(stepped, held, points):
                rng.bit_generator.state = state
                try:
                    values.append(cost_estimate(ctx.spec, point, ctx.cost_table, alpha, shots, rng))
                except Exception as exc:
                    rec.error = _error(exc)
                    values.append(None)
        try:
            done = stack.tell(values)
        except Exception as exc:
            done, stack = [], None
            for rec, _ in stepped:
                rec.error = rec.error or _error(exc)
        clock = _charge([rec for rec, _ in stepped], clock)
        for i, result in done:
            rec = runs[i][0]
            # The last build and its probabilities reuse the step's buffers.
            try:
                state = build_statevector(ctx.spec, result.final_params, buffers=state_buffers(n))
                p_min = exact_p_min(state, ctx.is_minimal)
                # set together, after the last call that can raise: a record
                # holds either the whole outcome or the error
                rec.n_calls, rec.p_min, rec.best_cost = result.n_calls, p_min, result.best_value
            except Exception as exc:
                rec.error = _error(exc)
            clock = _charge([rec], clock)
    return records


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _charge(records: list[RunRecord], since: float) -> float:
    """Add the time since ``since`` to the records' wall times in equal
    shares and return the time now."""
    now = time.perf_counter()
    for rec in records:
        rec.wall_time += (now - since) / len(records)
    return now


def run_single(ctx: _RunContext, alpha: float, shots: int, run_index: int) -> RunRecord:
    """Execute one seeded optimization run, a block of one, and package its
    record. Identical inputs produce identical records (wall_time aside)."""
    return run_block(ctx, alpha, shots, (run_index,))[0]


_WORKER_CTX: _RunContext | None = None


def _worker_init(ctx: _RunContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_run(task: tuple[float, int, tuple]) -> list[RunRecord]:
    assert _WORKER_CTX is not None
    return run_block(_WORKER_CTX, *task)


def load_records(path: str) -> list[RunRecord]:
    """The records of a records.jsonl file, each line read like a config. A
    line that is not one record's JSON object, each field of its type and
    either its whole outcome or an error (RunRecord.from_dict), raises
    ValueError naming the file and the line number."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(RunRecord.from_dict(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {number}: not a run record: {exc}") from exc
    return records


def _runs_by_cell(records, cfg: ExperimentConfig, where: str = "") -> dict[str, dict]:
    """Each grid cell's records keyed by run index. A record of another cell or
    of a run_index outside range(runs_per_config), one whose alpha, shots or
    seed is not its run's, and a run listed twice raise ValueError, its
    message prefixed by ``where``."""
    cells = {cid: (alpha, shots) for alpha, shots, cid in _cells(cfg)}
    runs: dict[str, dict[int, RunRecord]] = {cid: {} for cid in cells}
    for rec in records:
        run = f"{where}run {rec.run_index} of config {rec.config_id!r}"
        cell = runs.get(rec.config_id)
        if cell is None or not 0 <= rec.run_index < cfg.runs_per_config:
            raise ValueError(f"{run} is not in the experiment grid")
        alpha, shots = cells[rec.config_id]
        seed = run_seed(cfg.master_seed, rec.config_id, rec.run_index)
        if (rec.alpha, rec.shots, rec.seed) != (alpha, shots, seed):
            raise ValueError(
                f"{run} holds alpha {rec.alpha:g}, shots {rec.shots} and seed {rec.seed}, "
                f"not its cell's alpha {alpha:g}, shots {shots} and seed {seed}"
            )
        if rec.run_index in cell:
            raise ValueError(f"{run} is listed twice")
        cell[rec.run_index] = rec
    return runs


def _drop_torn_tail(path: str) -> None:
    """Truncate a JSON Lines file back to its last newline.

    A crash mid-write can leave an incomplete last line; cutting it lets the
    rerun append its lines on a clean line. Complete lines are kept, so a
    record that fails to parse still raises in load_records.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        fh.truncate(data.rfind(b"\n") + 1)


def _write_durably(path: str, chunks) -> None:
    """Replace ``path`` by the text ``chunks`` through a synced temp file, so a
    crash leaves either the old file or the whole new one."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        # on disk before the rename replaces the only copy, lest a power loss empty it
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def run_experiment(cfg: ExperimentConfig, out_dir: str, workers: int = 1) -> list[RunRecord]:
    """Complete the (alpha, shots) grid of ``cfg`` in out_dir and return its
    records in canonical order: those computed by this call carry their
    ``wall_time``, those kept from out_dir have None.

    Runs already in out_dir's records file are kept and only the missing ones
    are computed, over ``workers`` (at least 1) processes, so a stopped sweep
    is finished by running it again; the final records file is identical for
    any worker count and any number of stops. A worker count below 1, a
    config that parses to another experiment than out_dir's config.json
    snapshot, and a records file without a snapshot raise ValueError before
    any file is touched. The snapshot is written only where there is none.
    The run context is prepared once, here, and only when a run is pending.
    A records line that is not a run record, a record of a run outside the
    grid, listed twice or whose alpha, shots or seed is not its run's
    (analyze's check), and a context that cannot be prepared raise before
    the snapshot is written and a record or a timing appended. Each cell's pending runs are computed in lockstep blocks
    (run_block) of at most block_runs(N) runs, cut from its pending indices.
    """
    records_path = os.path.join(out_dir, RECORDS_FILENAME)
    timings_path = os.path.join(out_dir, TIMINGS_FILENAME)
    snapshot_path = os.path.join(out_dir, CONFIG_SNAPSHOT_FILENAME)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    has_snapshot = os.path.exists(snapshot_path)
    if has_snapshot and load_config(snapshot_path) != cfg:
        raise ValueError(
            f"{out_dir} holds another experiment: the config differs from its snapshot "
            f"{CONFIG_SNAPSHOT_FILENAME}; use a new directory"
        )
    has_records = os.path.exists(records_path)
    if has_records and not has_snapshot:
        raise ValueError(
            f"{out_dir} holds records without a {CONFIG_SNAPSHOT_FILENAME} snapshot of "
            "their experiment; use a new directory"
        )

    for path in (records_path, timings_path):
        if os.path.exists(path):
            _drop_torn_tail(path)
    records = load_records(records_path) if has_records else []
    runs = _runs_by_cell(records, cfg, f"{records_path}: ")
    ctx, tasks = None, []
    if len(records) < len(runs) * cfg.runs_per_config:
        ctx = prepare_context(cfg)
        # The missing runs go in blocks: each cell's pending run indices in
        # order, cut every block_runs(N), whatever the worker count.
        size = block_runs(ctx.spec.n_qubits)
        for alpha, shots, cid in _cells(cfg):
            indices = [i for i in range(cfg.runs_per_config) if i not in runs[cid]]
            tasks += [(alpha, shots, tuple(indices[lo : lo + size]))
                      for lo in range(0, len(indices), size)]

    os.makedirs(out_dir, exist_ok=True)
    if not has_snapshot:
        save_config(cfg, snapshot_path)

    with open(records_path, "a", encoding="utf-8") as rec_fh, \
            open(timings_path, "a", encoding="utf-8") as time_fh:

        def sink(block: list[RunRecord]) -> None:
            records.extend(block)
            for rec in block:
                rec_fh.write(rec.to_json_line())
                timing = {"config_id": rec.config_id, "run_index": rec.run_index,
                          "wall_time": rec.wall_time}
                time_fh.write(json.dumps(timing, sort_keys=True) + "\n")
            rec_fh.flush()

        # Forked pools start every worker at the first submit: ask for no
        # more than there are blocks.
        workers = min(workers, len(tasks))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            # The largest blocks first, so the small ones fill the last gaps.
            tasks.sort(key=lambda task: -len(task[2]))
            with ProcessPoolExecutor(workers, initializer=_worker_init, initargs=(ctx,)) as pool:
                futures = [pool.submit(_worker_run, task) for task in tasks]
                for fut in as_completed(futures):
                    sink(fut.result())
        else:
            for task in tasks:
                sink(run_block(ctx, *task))

    records.sort(key=lambda rec: (rec.alpha, rec.shots, rec.run_index))
    _write_durably(records_path, (rec.to_json_line() for rec in records))
    return records


def analyze(
    records: list[RunRecord],
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    strict: bool = False,
) -> dict[str, MetricsReport]:
    """Per-configuration metric reports keyed by config id in (alpha, shots)
    order, optionally written as CSV tables.

    A record, failed or not, of a run outside the grid (another cell, or a
    run_index outside range(runs_per_config)), listed twice, or whose alpha,
    shots or seed is not its run's (the cell's, and run_seed of its run)
    raises ValueError before any file is written, as in run_experiment. Each cell's
    successful runs are taken in run order. Configurations without at least
    two are reported as skipped and excluded from the tables and the
    selection. When ``out_dir`` is given, writes metrics.csv (one row per
    configuration), one pivoted table per metric with shots as rows and
    alphas as columns, the selected-set listing of accepted configurations,
    and every grid cell's quality-diagram data under diagrams/<config_id>/,
    skipped cells included.
    """
    cells = sorted(_cells(cfg))
    listed = _runs_by_cell(records, cfg)
    runs: dict[str, list[RunRecord]] = {}
    dists: dict[str, VqaDistribution] = {}
    reports: dict[str, MetricsReport] = {}
    for _, _, cid in cells:
        runs[cid] = [rec for _, rec in sorted(listed[cid].items()) if rec.error is None]
        outcomes = [RunOutcome(rec.n_calls, rec.p_min) for rec in runs[cid]]
        dist = dists[cid] = VqaDistribution(outcomes, cfg.optimizer.n_max, cfg.p_threshold)
        if len(dist) < 2:
            import logging

            logging.getLogger(__name__).warning(
                "config %s skipped: %d successful runs (%d failed)",
                cid, len(dist), len(listed[cid]) - len(dist),
            )
            continue
        reports[cid] = compute_report(dist, cfg.thresholds, cfg.confidence, strict=strict)
    if out_dir is None:
        return reports

    os.makedirs(out_dir, exist_ok=True)
    reported = [(alpha, shots, cid, reports[cid]) for alpha, shots, cid in cells if cid in reports]
    _write_csv(os.path.join(out_dir, "metrics.csv"),
               ["config_id", "alpha", "shots", "n_runs",
                *(column for name in ESTIMATES for column in (name, f"{name}_err")), "verdict"],
               [(cid, alpha, shots, rep.n_runs,
                 *(x for name in ESTIMATES for x in getattr(rep, name)), rep.verdict.value)
                for alpha, shots, cid, rep in reported])
    # Pivot tables: shots as rows, alphas as columns, "value ± half_width" cells.
    alphas = sorted(cfg.alphas)
    for name in ESTIMATES:
        rows = []
        for shots in sorted(cfg.shots_grid):
            row = (reports.get(cid) for _, s, cid in cells if s == shots)
            rows.append([shots, *("" if rep is None else "{:.2f} ± {:.2f}".format(
                *getattr(rep, name)) for rep in row)])
        _write_csv(os.path.join(out_dir, f"table_{name}.csv"),
                   ["s\\alpha", *(f"{alpha:g}" for alpha in alphas)], rows)
    _write_csv(os.path.join(out_dir, "selected.csv"), ["alpha", "shots"],
               [(f"{alpha:g}", shots) for alpha, shots, _, rep in reported
                if rep.verdict is Verdict.ACCEPTED])

    # Diagram data per cell: the normalized (u, v) run points, the occupancy
    # grid feeding reproducibility, and the quality level curves, which
    # depend only on p_threshold.
    width = 1.0 / GRID_BINS
    bin_edges = [(i, j, f"{i * width:g}", f"{j * width:g}")
                 for i in range(GRID_BINS) for j in range(GRID_BINS)]
    level_curves = [(f"{q:g}", u, v) for q in LEVEL_CURVE_VALUES
                    for u, v in quality_level_curve(q, cfg.p_threshold).tolist()]
    for cid, dist in dists.items():
        cell_dir = os.path.join(out_dir, "diagrams", cid)
        os.makedirs(cell_dir, exist_ok=True)
        points = [(rec.run_index, rec.n_calls, rec.p_min, *normalize(outcome, dist.n_max))
                  for rec, outcome in zip(runs[cid], dist.outcomes)]
        _write_csv(os.path.join(cell_dir, "scatter.csv"),
                   ["run_index", "n_calls", "p_min", "u", "v"], points)
        counts = diagram_occupancy(dist).ravel().tolist()
        _write_csv(os.path.join(cell_dir, "bins.csv"), ["u_bin", "v_bin", "u_lo", "v_lo", "count"],
                   [(*edge, count) for edge, count in zip(bin_edges, counts)])
        _write_csv(os.path.join(cell_dir, "level_curves.csv"), ["q", "u", "v"], level_curves)
    return reports


def _write_csv(path: str, header, rows) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
