"""Tests for experiment orchestration, record persistence, and analysis tables."""

import concurrent.futures
import csv
import hashlib
import json
import math
import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from vqabench import cost, harness, optimizer, qubo
from vqabench.circuit import build_statevector, sample_bitstrings
from vqabench.harness import (
    AnsatzSettings,
    ExperimentConfig,
    InitialParams,
    QuboSource,
    RunRecord,
    analyze,
    config_id,
    load_config,
    load_records,
    prepare_context,
    run_experiment,
    run_seed,
    run_single,
    save_config,
    save_qubo,
)
from vqabench.metrics import ESTIMATES, SelectionThresholds, Verdict
from vqabench.optimizer import OptimizerSettings, SearchStack, minimize
from vqabench.qubo import (
    MAX_QUBITS,
    QuboInstance,
    all_costs,
    brute_force_minimum,
    random_qubo,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Two config forms and the config.json snapshot bytes written for each before
# ExperimentConfig's fields became the file's keys; the snapshot must not move.
PATH_FORM = {
    "qubo": {"path": "instance.json"}, "ansatz": {"reps": 0}, "alphas": [0.25, 1.0],
    "shots_grid": [20, 50], "runs_per_config": 3,
    "optimizer": {"n_max": 20, "rho_beg": 1.0, "rho_end": 0.001}, "p_threshold": 0.5,
    "thresholds": {"f0": 0.7, "q0": 1.2, "r0": 0.6}, "confidence": 0.9, "master_seed": 99,
    "initial_params": {"values": [0.1, -0.2, 0.3]},
}
PATH_FORM_SNAPSHOT = """\
{
  "alphas": [
    0.25,
    1.0
  ],
  "ansatz": {
    "reps": 0
  },
  "confidence": 0.9,
  "initial_params": {
    "values": [
      0.1,
      -0.2,
      0.3
    ]
  },
  "master_seed": 99,
  "optimizer": {
    "n_max": 20,
    "rho_beg": 1.0,
    "rho_end": 0.001
  },
  "p_threshold": 0.5,
  "qubo": {
    "path": "instance.json"
  },
  "runs_per_config": 3,
  "shots_grid": [
    20,
    50
  ],
  "thresholds": {
    "f0": 0.7,
    "q0": 1.2,
    "r0": 0.6
  }
}
"""
# Omits value_range, ansatz, optimizer and confidence, which take their defaults.
DRAWN_FORM = {
    "qubo": {"dimension": 3, "seed": 5}, "alphas": [0.25, 1.0], "shots_grid": [20, 50],
    "runs_per_config": 3, "p_threshold": 0.5, "thresholds": {"f0": 0.7, "q0": 1.2, "r0": 0.6},
    "master_seed": 99, "initial_params": {"seed": 2},
}
DRAWN_FORM_SNAPSHOT = """\
{
  "alphas": [
    0.25,
    1.0
  ],
  "ansatz": {
    "reps": 1
  },
  "confidence": 0.95,
  "initial_params": {
    "seed": 2
  },
  "master_seed": 99,
  "optimizer": {
    "n_max": 1000,
    "rho_beg": 1.0,
    "rho_end": 0.0001
  },
  "p_threshold": 0.5,
  "qubo": {
    "dimension": 3,
    "seed": 5,
    "value_range": [
      -10.0,
      10.0
    ]
  },
  "runs_per_config": 3,
  "shots_grid": [
    20,
    50
  ],
  "thresholds": {
    "f0": 0.7,
    "q0": 1.2,
    "r0": 0.6
  }
}
"""


# Run 0 of alpha=0.25_shots=20 with another cell's alpha, shots or seed:
# each alone, and all three together.
CELL_FIELD_EDITS = [{"alpha": 0.75}, {"shots": 7}, {"seed": 1},
                    {"alpha": 0.75, "shots": 7, "seed": 1}]
CELL_FIELD_IDS = ["alpha", "shots", "seed", "alpha-shots-seed"]


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        qubo=QuboSource(dimension=3, seed=5),
        alphas=[0.25, 1.0],
        shots_grid=[20, 50],
        runs_per_config=3,
        optimizer=OptimizerSettings(n_max=20, rho_beg=1.0, rho_end=1e-3),
        p_threshold=0.5,
        thresholds=SelectionThresholds(0.7, 1.2, 0.6),
        master_seed=99,
        initial_params=InitialParams(seed=2),
        ansatz=AnsatzSettings(reps=0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_roundtrip_through_json(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg
        doc = json.loads(path.read_text())
        assert doc["optimizer"] == {"n_max": 20, "rho_beg": 1.0, "rho_end": 1e-3}
        assert doc["thresholds"] == {"f0": 0.7, "q0": 1.2, "r0": 0.6}

    @pytest.mark.parametrize("name", ["desk_mode.json", "full_scale.json"])
    def test_shipped_config_snapshot_is_its_canonical_form(self, tmp_path, name):
        # Every key of the shipped configs is read back and rewritten with its
        # JSON type (n_max 300, rho_beg 1.0), so the snapshot is the source
        # document in canonical form and a second round trip keeps its bytes.
        source = CONFIGS / name
        saved = tmp_path / "saved.json"
        save_config(load_config(str(source)), str(saved))
        canonical = json.dumps(json.loads(source.read_text()), indent=2, sort_keys=True) + "\n"
        assert saved.read_text() == canonical
        again = tmp_path / "again.json"
        save_config(load_config(str(saved)), str(again))
        assert again.read_bytes() == saved.read_bytes()

    def test_settings_coerced_to_their_field_types(self, tmp_path):
        doc = tiny_config().to_dict()
        doc["optimizer"] = {"n_max": 20.0, "rho_beg": 1, "rho_end": 0.001}
        doc["thresholds"] = {"f0": 1, "q0": 2, "r0": 0}
        cfg = ExperimentConfig.from_dict(doc)
        assert type(cfg.optimizer.n_max) is int and type(cfg.optimizer.rho_beg) is float
        assert all(type(v) is float for v in vars(cfg.thresholds).values())
        path = tmp_path / "cfg.json"
        save_config(cfg, str(path))
        text = path.read_text()
        assert '"n_max": 20,' in text and '"rho_beg": 1.0,' in text

    @pytest.mark.parametrize(
        "source",
        [QuboSource(path="instance.json"), QuboSource(dimension=3, seed=5, value_range=(-2.5, 4.0))],
    )
    @pytest.mark.parametrize(
        "start", [InitialParams(values=(0.1, -0.2, 0.3)), InitialParams(seed=2)]
    )
    def test_round_trip_keeps_the_config_and_the_bytes(self, tmp_path, source, start):
        cfg = tiny_config(qubo=source, initial_params=start)
        doc = cfg.to_dict()
        assert json.loads(json.dumps(doc)) == doc  # JSON types only: tuples as lists
        assert ExperimentConfig.from_dict(doc) == cfg
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_config(cfg, str(first))
        assert load_config(str(first)) == cfg
        save_config(load_config(str(first)), str(second))
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "doc, snapshot", [(PATH_FORM, PATH_FORM_SNAPSHOT), (DRAWN_FORM, DRAWN_FORM_SNAPSHOT)]
    )
    def test_snapshot_bytes_are_pinned(self, tmp_path, doc, snapshot):
        path = tmp_path / "config.json"
        save_config(ExperimentConfig.from_dict(doc), str(path))
        assert path.read_text() == snapshot

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "optimzer", {"n_max": 50}),
            (None, "confidance", 0.9),
            ("qubo", "dimensions", 4),
            ("ansatz", "rep", 2),
            ("optimizer", "nmax", 50),
            ("thresholds", "f1", 0.5),
            ("initial_params", "sed", 3),
        ],
    )
    def test_rejects_an_unknown_key_at_every_level(self, section, key, value):
        # A misspelled key would otherwise leave its setting at the default.
        doc = tiny_config().to_dict()
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "path",
        [
            ("runs_per_config",),
            ("shots_grid", 1),
            ("master_seed",),
            ("optimizer", "n_max"),
            ("qubo", "dimension"),
            ("qubo", "seed"),
            ("initial_params", "seed"),
            ("ansatz", "reps"),
        ],
    )
    def test_integer_keys_take_integral_numbers_only(self, path):
        # A truncated master_seed or runs_per_config would change every record
        # or the run count without a word; an integral float reads as the int.
        doc = tiny_config().to_dict()
        *outer, last = path
        parent = doc
        for step in outer:
            parent = parent[step]
        value = parent[last]
        parent[last] = value + 0.5
        with pytest.raises(ValueError, match="integer"):
            ExperimentConfig.from_dict(doc)
        parent[last] = float(value)
        canonical = json.dumps(tiny_config().to_dict(), sort_keys=True)
        assert json.dumps(ExperimentConfig.from_dict(doc).to_dict(), sort_keys=True) == canonical

    def test_missing_optimizer_takes_the_dataclass_defaults(self):
        doc = tiny_config().to_dict()
        del doc["optimizer"]
        assert ExperimentConfig.from_dict(doc).optimizer == OptimizerSettings()
        doc["optimizer"] = {"n_max": 50}
        assert ExperimentConfig.from_dict(doc).optimizer == OptimizerSettings(n_max=50)

    def test_missing_keys_take_the_dataclass_defaults(self):
        cfg = tiny_config(confidence=0.9, ansatz=AnsatzSettings(reps=2),
                          qubo=QuboSource(dimension=3, seed=5, value_range=(-3.0, 3.0)))
        doc = cfg.to_dict()
        del doc["confidence"], doc["ansatz"], doc["qubo"]["value_range"]
        omitted = ("confidence", "ansatz")
        default = {f.name: f.default for f in fields(ExperimentConfig) if f.name in omitted}
        expected = replace(cfg, qubo=QuboSource(dimension=3, seed=5), **default)
        assert ExperimentConfig.from_dict(doc) == expected
        assert expected.qubo.value_range == (-10.0, 10.0) and expected.ansatz.reps == 1

    def test_requires_a_qubo_source(self):
        with pytest.raises(ValueError, match="qubo"):
            tiny_config(qubo=QuboSource())

    def test_rejects_both_start_point_forms(self):
        # Values and a seed are alternatives; with both, the snapshot would
        # keep the values and drop the seed without a word.
        with pytest.raises(ValueError, match="initial_params"):
            tiny_config(initial_params=InitialParams(values=(0.1, 0.2, 0.3), seed=7))

    def test_rejects_a_qubo_path_next_to_a_generated_qubo(self, tmp_path):
        # tiny_config keeps its dimension 3 and seed 5 unless overridden; the
        # snapshot would keep the path and drop them without a word.
        path = str(tmp_path / "q.json")
        with pytest.raises(ValueError, match="path"):
            tiny_config(qubo=QuboSource(path=path, dimension=3, seed=5))
        doc = tiny_config().to_dict()
        drawn = ({"dimension": 5, "seed": 1}, {"dimension": 5}, {"seed": 1},
                 {"value_range": [-1.0, 1.0]})
        for generated in drawn:
            doc["qubo"] = {"path": path, **generated}
            with pytest.raises(ValueError, match="path"):
                ExperimentConfig.from_dict(doc)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            tiny_config(alphas=[0.0])

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"alphas": []}, "alphas"),
            ({"shots_grid": []}, "shots_grid"),
            ({"shots_grid": [20, 0]}, "shots"),
            ({"runs_per_config": 0}, "runs_per_config"),
            ({"p_threshold": 0.0}, "p_threshold"),
            ({"p_threshold": 1.0}, "p_threshold"),
        ],
    )
    def test_rejects_an_empty_grid_or_out_of_range_setting(self, overrides, named):
        with pytest.raises(ValueError, match=named):
            tiny_config(**overrides)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            (None, "optimizer", 5, "optimizer must be a JSON object"),
            ("qubo", "value_range", [1.0], "value_range needs 2 values, got 1"),
            # A string or an object is no list, a string no number and JSON's
            # true and false no integers, though Python would convert each.
            (None, "shots_grid", "5", "shots_grid must be a JSON array"),
            (None, "alphas", "1", "alphas must be a JSON array"),
            (None, "alphas", {"0.5": 1}, "alphas must be a JSON array"),
            ("qubo", "value_range", "12", "value_range must be a JSON array"),
            ("initial_params", "values", "0.1", "values must be a JSON array"),
            (None, "runs_per_config", True, "runs_per_config must be a number"),
            ("ansatz", "reps", False, "reps must be a number"),
            (None, "p_threshold", "0.5", "p_threshold must be a number"),
            (None, "shots_grid", [20, True], "shots_grid must be a number"),
            ("qubo", "path", 5, "path must be a string"),
        ],
    )
    def test_rejects_a_value_of_the_wrong_shape(self, section, key, value, message):
        doc = tiny_config().to_dict()
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, math.nan])
    def test_rejects_bad_confidence(self, confidence):
        # caught here, before a sweep runs, not in analyze's z_value
        with pytest.raises(ValueError, match="confidence"):
            tiny_config(confidence=confidence)

    @pytest.mark.parametrize(
        "alphas,shots_grid",
        [
            ([0.1234567, 0.1234568], [20]),  # equal to six significant digits
            ([0.5, 0.5], [20]),
            ([0.5], [20, 20]),
        ],
    )
    def test_rejects_colliding_config_ids(self, alphas, shots_grid):
        # Cells sharing an id would share run seeds, ensembles and resume state.
        with pytest.raises(ValueError, match="config ids"):
            tiny_config(alphas=alphas, shots_grid=shots_grid)

    def test_explicit_initial_params_length_checked(self):
        cfg = tiny_config(initial_params=InitialParams(values=(0.1,) * 7))
        with pytest.raises(ValueError, match="initial_params"):
            prepare_context(cfg)


class TestPrepareContext:
    def test_one_cost_table_per_context(self, monkeypatch):
        tables = []

        def counted(q):
            tables.append(all_costs(q))
            return tables[-1]

        monkeypatch.setattr(harness, "all_costs", counted)
        monkeypatch.setattr(qubo, "all_costs", counted)
        cfg = tiny_config(qubo=QuboSource(dimension=6, seed=5))
        ctx = prepare_context(cfg)
        assert len(tables) == 1
        assert ctx.cost_table is tables[0]
        fresh = random_qubo(6, cfg.qubo.seed, cfg.qubo.value_range)
        assert np.array_equal(brute_force_minimum(fresh)[1], ctx.is_minimal)
        assert np.array_equal(ctx.cost_table, tables[-1])

    def test_frozen_with_read_only_arrays(self):
        ctx = prepare_context(tiny_config())
        assert "qubo" not in {f.name for f in fields(ctx)}
        with pytest.raises(AttributeError):
            ctx.cost_table = np.zeros(8)
        for array in (ctx.cost_table, ctx.is_minimal, ctx.initial_params):
            assert not array.flags.writeable

    def test_refuses_a_budget_too_small_for_the_ansatz(self):
        # Three parameters need k + 2 = 5 calls to build the first model.
        cfg = tiny_config(optimizer=OptimizerSettings(n_max=4, rho_beg=1.0, rho_end=1e-3))
        with pytest.raises(ValueError, match="n_max=4"):
            prepare_context(cfg)
        prepare_context(replace(cfg, optimizer=replace(cfg.optimizer, n_max=5)))

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"optimizer": OptimizerSettings(n_max=4, rho_beg=1.0, rho_end=1e-3)}, "n_max"),
            ({"initial_params": InitialParams(values=(0.1,) * 7)}, "initial_params"),
        ],
    )
    def test_refused_config_builds_no_cost_table(self, monkeypatch, overrides, named):
        # The checks need only the QUBO's dimension, not its 2^N costs.
        def enumerated(q):
            raise AssertionError("all_costs called before the config was checked")

        monkeypatch.setattr(harness, "all_costs", enumerated)
        with pytest.raises(ValueError, match=named):
            prepare_context(tiny_config(**overrides))

    def test_refuses_to_enumerate_past_the_limit(self):
        with pytest.raises(ValueError, match="exhaustive"):
            prepare_context(tiny_config(qubo=QuboSource(dimension=MAX_QUBITS + 1, seed=5)))

    @pytest.mark.parametrize(
        "values, n_max, named",
        [
            ((math.nan, 0.1, 0.2), 20, "initial point must be finite"),
            ((0.1, math.inf, 0.2), 20, "initial point must be finite"),
            ((0.1, 0.2, 0.3), 4, "n_max=4 too small"),  # k + 1 for k = 3 parameters
        ],
        ids=["nan", "inf", "k+1"],
    )
    def test_refuses_a_start_or_budget_with_the_optimizers_message(self, values, n_max, named):
        # One check, so a config is refused at set-up exactly as every run's
        # search would refuse it.
        settings = OptimizerSettings(n_max=n_max, rho_beg=1.0, rho_end=1e-3)
        with pytest.raises(ValueError, match=named) as by_search:
            minimize(None, np.array(values), settings)
        cfg = tiny_config(initial_params=InitialParams(values=values), optimizer=settings)
        with pytest.raises(ValueError, match=named) as by_context:
            prepare_context(cfg)
        assert str(by_context.value) == str(by_search.value)


class TestSeeds:
    def test_stable_published_hash(self):
        # SHA-256("7|alpha=0.25_shots=20|3")[:8] big-endian, pinned forever
        import hashlib

        digest = hashlib.sha256(b"7|alpha=0.25_shots=20|3").digest()
        assert run_seed(7, config_id(0.25, 20), 3) == int.from_bytes(digest[:8], "big")
        assert run_seed(7, config_id(0.25, 20), 3) == 10615779866205363310

    def test_distinct_across_runs_and_configs(self):
        seeds = {
            run_seed(1, config_id(a, s), i)
            for a in (0.25, 1.0)
            for s in (20, 50)
            for i in range(10)
        }
        assert len(seeds) == 40


class TestRunSingle:
    def test_deterministic_records(self):
        ctx = prepare_context(tiny_config())
        a = run_single(ctx, 0.25, 20, run_index=1)
        b = run_single(ctx, 0.25, 20, run_index=1)
        assert a.to_dict() == b.to_dict()

    def test_budget_cap_binds_through_the_stack(self):
        # k = 3 parameters, n_max = k + 2 = 5
        cfg = tiny_config(optimizer=OptimizerSettings(n_max=5, rho_beg=1.0, rho_end=1e-3))
        ctx = prepare_context(cfg)
        rec = run_single(ctx, 1.0, 20, run_index=0)
        assert rec.n_calls == 5

    def test_degenerate_qubo_always_succeeds(self, tmp_path):
        # every bitstring minimizes the zero matrix, so p_min is exactly 1
        path = tmp_path / "zero.json"
        save_qubo(QuboInstance(matrix=np.zeros((3, 3))), str(path))
        cfg = tiny_config(qubo=QuboSource(path=str(path)))
        ctx = prepare_context(cfg)
        rec = run_single(ctx, 1.0, 20, run_index=0)
        assert rec.p_min == 1.0
        assert rec.error is None

    def test_failed_run_recorded_not_raised(self, monkeypatch):
        ctx = prepare_context(tiny_config())

        def boom(*args, **kwargs):
            raise RuntimeError("sampler exploded")

        monkeypatch.setattr(cost, "sample_bitstrings", boom)
        rec = run_single(ctx, 0.25, 20, run_index=0)
        assert rec.error is not None and "sampler exploded" in rec.error
        assert rec.n_calls is None

    def test_warm_final_build_and_p_min_allocate_nothing_state_sized(self, monkeypatch):
        # The last build and exact_p_min reuse the objective's state buffers
        # of this thread, so a warm N=16 run allocates far less there than one
        # 2^N float64 state (1.0 here): two fresh build buffers would be 2.0
        # and fresh Born probabilities 1.0.
        n = 16
        ctx = prepare_context(tiny_config(
            qubo=QuboSource(dimension=n, seed=5), ansatz=AnsatzSettings(reps=1),
            optimizer=OptimizerSettings(n_max=2 * n + 2, rho_beg=1.0, rho_end=1e-3),
        ))
        peaks = {}

        def traced(name, fn):
            def call(*args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peaks[name] = tracemalloc.get_traced_memory()[1] - before
            return call

        for name in ("build_statevector", "exact_p_min"):
            monkeypatch.setattr(harness, name, traced(name, getattr(harness, name)))
        run_single(ctx, 0.25, 20, run_index=0)
        tracemalloc.start()
        try:
            rec = run_single(ctx, 0.25, 20, run_index=1)
        finally:
            tracemalloc.stop()
        assert rec.error is None and sorted(peaks) == ["build_statevector", "exact_p_min"]
        assert max(peaks.values()) <= 0.25 * (1 << n) * 8

    def test_wall_time_excluded_from_serialization(self):
        ctx = prepare_context(tiny_config())
        rec = run_single(ctx, 0.25, 20, run_index=0)
        assert rec.wall_time is not None
        assert "wall_time" not in rec.to_dict()


class TestRunBlock:
    def test_runs_stopping_at_different_calls_match_their_single_runs(self):
        # At n_max=20 and rho_end=0.05 some runs of this cell spend the
        # budget and others stop on rho_end first, so the block's rows
        # leave it at different steps.
        cfg = tiny_config(
            optimizer=OptimizerSettings(n_max=20, rho_beg=1.0, rho_end=0.05), runs_per_config=5
        )
        ctx = prepare_context(cfg)
        block = harness.run_block(ctx, 1.0, 50, range(5))
        singles = [run_single(ctx, 1.0, 50, i) for i in range(5)]
        assert [rec.to_json_line() for rec in block] == [rec.to_json_line() for rec in singles]
        calls = {rec.n_calls for rec in block}
        assert 20 in calls and min(calls) < 20 and all(rec.error is None for rec in block)

    def test_block_of_one_is_the_single_run(self):
        ctx = prepare_context(tiny_config())
        (rec,) = harness.run_block(ctx, 0.25, 50, [2])
        assert rec.to_json_line() == run_single(ctx, 0.25, 50, 2).to_json_line()

    def test_block_wall_times_share_out_the_block(self):
        ctx = prepare_context(tiny_config())
        started = time.perf_counter()
        block = harness.run_block(ctx, 0.25, 20, range(3))
        elapsed = time.perf_counter() - started
        assert all(rec.wall_time > 0 for rec in block)
        assert sum(rec.wall_time for rec in block) <= elapsed

    def test_cells_not_divided_by_the_block_size_match_their_single_runs(self, tmp_path):
        # Blocks advance at most 2^12 / 2^10 = 4 runs at N=10, so six runs per
        # cell make a block of four and a block of two.
        n = 10
        assert harness.block_runs(n) == 4
        cfg = tiny_config(
            qubo=QuboSource(dimension=n, seed=5), alphas=[0.5], shots_grid=[30],
            runs_per_config=6, optimizer=OptimizerSettings(n_max=14, rho_beg=1.0, rho_end=1e-3),
        )
        records = run_experiment(cfg, str(tmp_path / "out"))
        ctx = prepare_context(cfg)
        singles = [run_single(ctx, 0.5, 30, i) for i in range(6)]
        assert [rec.to_json_line() for rec in records] == [rec.to_json_line() for rec in singles]

    def test_a_failing_sampler_fails_its_run_alone(self, monkeypatch):
        ctx = prepare_context(tiny_config())
        failing = run_seed(ctx.master_seed, config_id(1.0, 20), 1)
        singles = [run_single(ctx, 1.0, 20, i) for i in range(3)]

        def sampler(state, shots, rng, out=None):
            # a run's generator is default_rng(seed), so its seed names the run
            if rng.bit_generator.seed_seq.entropy == failing:
                raise RuntimeError("sampler exploded")
            return sample_bitstrings(state, shots, rng, out=out)

        monkeypatch.setattr(cost, "sample_bitstrings", sampler)
        block = harness.run_block(ctx, 1.0, 20, range(3))
        assert block[1].error == "RuntimeError: sampler exploded"
        assert (block[1].n_calls, block[1].p_min, block[1].best_cost) == (None, None, None)
        for i in (0, 2):
            assert block[i].to_json_line() == singles[i].to_json_line()

    def test_a_sampler_failing_after_its_draws_fails_its_run_alone(self, monkeypatch):
        # The sampler draws every row of the batch before it raises, so the
        # other runs' generators have moved on: they are set back before each
        # run is evaluated alone, and only run 1 fails.
        ctx = prepare_context(tiny_config())
        failing = run_seed(ctx.master_seed, config_id(1.0, 20), 1)
        singles = [run_single(ctx, 1.0, 20, i) for i in range(3)]
        batches = []

        def sampler(state, shots, rng, out=None):
            drawn = sample_bitstrings(state, shots, rng, out=out)
            gens = [rng] if state.ndim == 1 else rng
            batches.append(len(gens))
            if any(gen.bit_generator.seed_seq.entropy == failing for gen in gens):
                raise RuntimeError("sampler exploded")
            return drawn

        monkeypatch.setattr(cost, "sample_bitstrings", sampler)
        block = harness.run_block(ctx, 1.0, 20, range(3))
        assert batches[0] == 3
        assert block[1].error == "RuntimeError: sampler exploded"
        assert (block[1].n_calls, block[1].p_min, block[1].best_cost) == (None, None, None)
        for i in (0, 2):
            assert block[i].to_json_line() == singles[i].to_json_line()

    def test_a_point_that_is_not_finite_fails_its_run_alone(self, monkeypatch):
        # The block's second search (run 1 of its stack) asks an infinite
        # point from its 21st call on. The build would refuse the whole batch;
        # only that run fails, with the build's own error, and leaves the
        # stack, and the others keep their records.
        cfg = tiny_config(
            qubo=QuboSource(dimension=4, seed=5), ansatz=AnsatzSettings(reps=1),
            optimizer=OptimizerSettings(n_max=100, rho_beg=1.0, rho_end=1e-4), runs_per_config=4,
        )
        ctx = prepare_context(cfg)
        singles = [run_single(ctx, 0.25, 100, i) for i in range(4)]
        assert all(rec.error is None and rec.n_calls > 21 for rec in singles)
        with pytest.raises(ValueError) as refused:
            build_statevector(ctx.spec, np.full(ctx.spec.num_parameters, math.inf))
        ask, poisoned = SearchStack.ask, []

        def poisoning(stack):
            points = ask(stack)
            if stack.calls >= 20 and 1 in stack.runs:
                points[stack.runs.index(1)] = math.inf
                poisoned.append(stack.calls)
            return points

        monkeypatch.setattr(SearchStack, "ask", poisoning)
        block = harness.run_block(ctx, 0.25, 100, range(4))
        assert poisoned == [20]
        assert block[1].error == f"ValueError: {refused.value}"
        assert (block[1].n_calls, block[1].p_min, block[1].best_cost) == (None, None, None)
        for i in (0, 2, 3):
            assert block[i].to_json_line() == singles[i].to_json_line()

    def test_searches_that_cannot_be_made_fail_every_run_of_the_block(self, monkeypatch):
        # The block's searches are made in one call, so its error goes to
        # every record, and no run is evaluated.
        ctx = prepare_context(tiny_config())

        def failing(*args, **kwargs):
            raise RuntimeError("no search")

        def unreachable(*args, **kwargs):
            raise AssertionError("a run without a search was evaluated")

        monkeypatch.setattr(harness, "minimize", failing)
        monkeypatch.setattr(harness, "cost_estimate", unreachable)
        block = harness.run_block(ctx, 1.0, 20, range(3))
        assert [rec.run_index for rec in block] == [0, 1, 2]
        for rec in block:
            assert rec.error == "RuntimeError: no search"
            assert (rec.n_calls, rec.p_min, rec.best_cost) == (None, None, None)

    def test_a_search_step_that_raises_fails_every_run_it_held(self, monkeypatch):
        # The block's searches step as one stack, so a step that raises takes
        # every run still in it, and each gets the error instead of an outcome.
        ctx = prepare_context(tiny_config())
        inverses, steps = optimizer._inverses, []

        def failing_at_the_third_step(spans):
            steps.append(len(spans))
            if len(steps) == 3:
                raise RuntimeError("step exploded")
            return inverses(spans)

        monkeypatch.setattr(optimizer, "_inverses", failing_at_the_third_step)
        block = harness.run_block(ctx, 1.0, 20, range(3))
        assert steps == [3, 3, 3]
        for rec in block:
            assert rec.error == "RuntimeError: step exploded"
            assert (rec.n_calls, rec.p_min, rec.best_cost) == (None, None, None)

    def test_a_state_the_sampler_refuses_fails_its_run_alone(self, monkeypatch):
        # At the fifth step all three runs are live, and run 1's state is
        # scaled so that its Born total is 4, in the batch and when its point
        # is built alone: the batch's sampler refuses it, and only run 1
        # fails, with the single call's error.
        ctx = prepare_context(tiny_config())
        singles = [run_single(ctx, 1.0, 20, i) for i in range(3)]
        build, steps, poisoned = harness.build_statevector, [], []

        def scaled(spec, params, buffers=None):
            states = build(spec, params, buffers=buffers)
            if states.ndim == 2:
                steps.append(len(states))
                if len(steps) == 5:
                    poisoned.append(params[1].copy())
                    states[1] *= 2.0
            elif poisoned and np.array_equal(params, poisoned[0]):
                states *= 2.0
            return states

        monkeypatch.setattr(harness, "build_statevector", scaled)
        monkeypatch.setattr(cost, "build_statevector", scaled)
        block = harness.run_block(ctx, 1.0, 20, range(3))
        assert steps[4] == 3
        assert block[1].error.startswith("ValueError: state not normalized: sum p = 4.0")
        assert (block[1].n_calls, block[1].p_min, block[1].best_cost) == (None, None, None)
        for i in (0, 2):
            assert block[i].to_json_line() == singles[i].to_json_line()

    def test_blocks_follow_from_n_and_the_pending_runs_only(self, tmp_path, monkeypatch):
        # The same blocks, whatever the worker count: each cell's pending
        # run indices in order, cut every block_runs(N) = 4 at N=10.
        cfg = tiny_config(
            qubo=QuboSource(dimension=10, seed=5), shots_grid=[30], runs_per_config=6,
            optimizer=OptimizerSettings(n_max=12, rho_beg=1.0, rho_end=1e-3),
        )
        seen = []
        run_block_ = harness.run_block

        def recorded(ctx, alpha, shots, run_indices):
            seen.append((alpha, shots, tuple(run_indices)))
            return run_block_(ctx, alpha, shots, run_indices)

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(harness, "run_block", recorded)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "_WORKER_CTX", None)
        blocks = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            run_experiment(cfg, str(out), workers=workers)
            records_path = out / "records.jsonl"
            lines = records_path.read_text().splitlines(keepends=True)
            # runs 1 and 4 of the first cell are pending on the rerun
            records_path.write_text("".join(lines[:1] + lines[2:4] + lines[5:]))
            run_experiment(cfg, str(out), workers=workers)
            blocks[workers], seen[:] = sorted(seen), []
        cells = [(0.25, 30), (1.0, 30)]
        assert blocks[1] == sorted(
            [(*cell, (0, 1, 2, 3)) for cell in cells] + [(*cell, (4, 5)) for cell in cells]
            + [(0.25, 30, (1, 4))]
        )
        assert blocks[2] == blocks[3] == blocks[1]

    def test_warm_block_keeps_to_one_core(self):
        # A matmul or einsum form of the batched build would wake OpenBLAS's
        # helper threads on every step and keep a second core busy.
        n = 8
        cfg = tiny_config(
            qubo=QuboSource(dimension=n, seed=4), ansatz=AnsatzSettings(reps=1),
            alphas=[0.25], shots_grid=[1000], runs_per_config=4,
            optimizer=OptimizerSettings(n_max=60, rho_beg=1.0, rho_end=1e-6),
        )
        ctx = prepare_context(cfg)
        assert harness.block_runs(n) >= 4
        harness.run_block(ctx, 0.25, 1000, range(4))
        cpu, wall = time.process_time(), time.perf_counter()
        for _ in range(5):
            harness.run_block(ctx, 0.25, 1000, range(4))
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        assert cpu <= 1.2 * wall


class TestRunExperiment:
    def test_grid_produces_counted_records(self, tmp_path):
        records = run_experiment(tiny_config(), str(tmp_path / "out"))
        assert len(records) == 2 * 2 * 3

    def test_records_file_is_canonical_and_parseable(self, tmp_path):
        out = tmp_path / "out"
        records = run_experiment(tiny_config(), str(out))
        on_disk = load_records(str(out / "records.jsonl"))
        assert [r.to_dict() for r in on_disk] == [r.to_dict() for r in records]
        keys = [(r.alpha, r.shots, r.run_index) for r in on_disk]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_recomputes_only_missing_runs(self, tmp_path, workers):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        full = records_path.read_bytes()

        lines = records_path.read_text().splitlines(keepends=True)
        records_path.write_text("".join(lines[::2]))  # drop every other record
        run_experiment(tiny_config(), str(out), workers=workers)
        assert records_path.read_bytes() == full

    def test_canonical_rewrite_is_synced_before_it_replaces_the_records(
        self, tmp_path, monkeypatch
    ):
        # The rename replaces the only copy of the records; a temp file whose
        # data is not yet on disk could leave an empty file after a power loss.
        # The snapshot is written the same way: a torn one would refuse every
        # later run in the directory.
        out = tmp_path / "out"
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))
            real_fsync(fd)

        def replace_file(src, dst):
            events.append(("replace", dst, os.stat(src).st_ino, os.stat(src).st_size))
            real_replace(src, dst)

        monkeypatch.setattr(harness.os, "fsync", fsync)
        monkeypatch.setattr(harness.os, "replace", replace_file)
        run_experiment(tiny_config(), str(out))
        expected = []
        for path in (str(out / "config.json"), str(out / "records.jsonl")):
            ino, size = os.stat(path).st_ino, os.path.getsize(path)
            expected += [("fsync", ino, size), ("replace", path, ino, size)]
        assert events == expected

    def test_resume_after_torn_last_line(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        full = records_path.read_bytes()

        records_path.write_bytes(full[:-30])  # a crash mid-write tears the last record
        run_experiment(tiny_config(), str(out))
        assert records_path.read_bytes() == full

    def test_resume_after_torn_timings_line(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path, timings_path = out / "records.jsonl", out / "timings.jsonl"
        records_path.write_text("".join(records_path.read_text().splitlines(keepends=True)[:5]))
        # timing lines are not flushed per run, so a crash can tear one too
        timings = timings_path.read_text().splitlines(keepends=True)
        timings_path.write_text("".join(timings[:5]) + timings[5][:20])
        run_experiment(tiny_config(), str(out))
        lines = timings_path.read_text().splitlines()
        assert len(lines) == 12
        assert all("wall_time" in json.loads(line) for line in lines)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched run_block reaches pool workers only when they are forked",
    )
    def test_resume_after_a_killed_worker(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_block_ = harness.run_block

        def dies_on_one_block(ctx, alpha, shots, run_indices):
            if (alpha, shots) == (1.0, 20) and 1 in run_indices:
                os._exit(1)  # as the OOM killer would, with no cleanup
            return run_block_(ctx, alpha, shots, run_indices)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "run_block", dies_on_one_block)
            with pytest.raises(BrokenProcessPool):
                run_experiment(tiny_config(), str(out), workers=2)
        # the parent writes whole lines, so a dead worker leaves no torn tail
        written = (out / "records.jsonl").read_text().splitlines(keepends=True)
        assert len(written) < 12
        assert all(line.endswith("\n") and json.loads(line)["n_calls"] for line in written)

        run_experiment(tiny_config(), str(out), workers=2)
        run_experiment(tiny_config(), str(tmp_path / "serial"))
        assert (out / "records.jsonl").read_bytes() == (
            tmp_path / "serial" / "records.jsonl"
        ).read_bytes()

    def test_resume_rejects_a_corrupt_complete_line(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        lines = records_path.read_text().splitlines(keepends=True)
        lines[3] = lines[3][:20] + "\n"
        records_path.write_text("".join(lines))
        with pytest.raises(ValueError, match="records.jsonl, line 4: not a run record"):
            run_experiment(tiny_config(), str(out))

    def test_rerun_refuses_a_mistyped_record_and_keeps_every_byte(self, tmp_path):
        # A string run_index matches no (config_id, run_index) pair, so a
        # rerun that took it would compute that run again and append it twice.
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        lines = records_path.read_text().splitlines(keepends=True)
        assert '"run_index":1,' in lines[1]
        lines[1] = lines[1].replace('"run_index":1,', '"run_index":"1",')
        records_path.write_text("".join(lines))
        names = ("records.jsonl", "timings.jsonl")
        before = {name: (out / name).read_bytes() for name in names}
        for _ in range(2):
            with pytest.raises(ValueError, match="records.jsonl, line 2: not a run record: "
                                                 "run_index must be a number, got '1'"):
                run_experiment(tiny_config(), str(out))
            assert {name: (out / name).read_bytes() for name in names} == before

    @pytest.mark.parametrize(
        "dropped, added",
        [
            (("p_min",), {}),
            (("n_calls", "p_min", "best_cost"), {}),
            ((), {"error": "ValueError: boom"}),
        ],
        ids=["p_min-dropped", "no-outcome-no-error", "outcome-and-error"],
    )
    def test_rerun_refuses_a_record_without_one_outcome_or_error_and_keeps_every_byte(
        self, tmp_path, monkeypatch, dropped, added
    ):
        # A record missing p_min used to count as a finished run, and only
        # analyze failed on it, with a TypeError from the metrics.
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        lines = records_path.read_text().splitlines(keepends=True)[:6]  # runs are pending
        doc = {key: v for key, v in json.loads(lines[1]).items() if key not in dropped}
        lines[1] = json.dumps({**doc, **added}, sort_keys=True, separators=(",", ":")) + "\n"
        records_path.write_text("".join(lines))
        names = ("records.jsonl", "timings.jsonl", "config.json")
        before = {name: (out / name).read_bytes() for name in names}
        prepared = []
        monkeypatch.setattr(harness, "prepare_context", prepared.append)
        with pytest.raises(ValueError, match="records.jsonl, line 2: not a run record: record "
                                             "needs either n_calls, p_min and best_cost or an error"):
            run_experiment(tiny_config(), str(out))
        assert prepared == []
        assert {name: (out / name).read_bytes() for name in names} == before

    @pytest.mark.parametrize(
        "extra, named",
        [
            (lambda first: first, "run 0 of config 'alpha=0.25_shots=20' is listed twice"),
            (lambda first: first.replace("alpha=0.25_shots=20", "alpha=0.5_shots=7"),
             "run 0 of config 'alpha=0.5_shots=7' is not in the experiment grid"),
            (lambda first: first.replace('"run_index":0,', '"run_index":3,'),
             "run 3 of config 'alpha=0.25_shots=20' is not in the experiment grid"),
        ],
        ids=["duplicate", "outside-the-grid", "past-runs_per_config"],
    )
    def test_rerun_refuses_a_record_of_no_pending_run_and_keeps_every_byte(
        self, tmp_path, monkeypatch, extra, named
    ):
        # Such a record would be rewritten into the canonical file, and only
        # a later analyze would refuse it.
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        lines = records_path.read_text().splitlines(keepends=True)
        assert '"run_index":0,' in lines[0] and "alpha=0.25_shots=20" in lines[0]
        lines = lines[:6] + [extra(lines[0])]  # runs are pending, too
        records_path.write_text("".join(lines))
        names = ("records.jsonl", "timings.jsonl", "config.json")
        before = {name: (out / name).read_bytes() for name in names}
        prepared = []
        monkeypatch.setattr(harness, "prepare_context", prepared.append)
        with pytest.raises(ValueError, match=named):
            run_experiment(tiny_config(), str(out))
        assert prepared == []
        assert {name: (out / name).read_bytes() for name in names} == before

    @pytest.mark.parametrize("fields", CELL_FIELD_EDITS, ids=CELL_FIELD_IDS)
    def test_rerun_refuses_a_record_whose_fields_are_not_its_cells_and_keeps_every_byte(
        self, tmp_path, monkeypatch, fields
    ):
        # The rerun used to keep such a line as run 0 of its cell and sort it
        # by its own alpha and shots, out of canonical order.
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        lines = records_path.read_text().splitlines(keepends=True)
        doc = json.loads(lines[0])
        assert (doc["config_id"], doc["run_index"]) == ("alpha=0.25_shots=20", 0)
        lines[0] = json.dumps({**doc, **fields}, sort_keys=True, separators=(",", ":")) + "\n"
        records_path.write_text("".join(lines))
        names = ("records.jsonl", "timings.jsonl", "config.json")
        before = {name: (out / name).read_bytes() for name in names}
        prepared = []
        monkeypatch.setattr(harness, "prepare_context", prepared.append)
        for runs in (lines, lines[:6]):  # nothing pending, and runs pending
            records_path.write_text("".join(runs))
            before["records.jsonl"] = records_path.read_bytes()
            with pytest.raises(ValueError, match=r"records.jsonl: run 0 of config "
                                                 r"'alpha=0\.25_shots=20' holds alpha "):
                run_experiment(tiny_config(), str(out))
            assert prepared == []
            assert {name: (out / name).read_bytes() for name in names} == before

    @pytest.mark.parametrize(
        "change", [{"master_seed": 100}, {"shots_grid": [20, 60]}, {"runs_per_config": 4}]
    )
    def test_resume_refuses_a_changed_config(self, tmp_path, change):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        before = {name: (out / name).read_bytes() for name in ("records.jsonl", "config.json")}
        with pytest.raises(ValueError, match="snapshot"):
            run_experiment(tiny_config(**change), str(out))
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_refuses_records_without_a_snapshot_and_keeps_every_byte(self, tmp_path):
        # Nothing tells whose runs these are, so none may be kept under the
        # new config, and none deleted.
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        (out / "config.json").unlink()
        records_path = out / "records.jsonl"
        records_path.write_text("".join(records_path.read_text().splitlines(keepends=True)[:2]))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        with pytest.raises(ValueError, match="records without a config.json snapshot"):
            run_experiment(tiny_config(master_seed=100), str(out))
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_resume_accepts_the_same_config_written_another_way(self, tmp_path):
        # A rerun compares what the configs mean, not how they are written.
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        before = {name: (out / name).read_bytes() for name in ("records.jsonl", "config.json")}
        records_path = out / "records.jsonl"
        records_path.write_text("".join(records_path.read_text().splitlines(keepends=True)[::2]))
        doc = tiny_config().to_dict()
        doc["qubo"]["value_range"] = [-10, 10]
        doc["optimizer"]["n_max"] = 20.0
        copy = tmp_path / "copy.json"
        copy.write_text(json.dumps(dict(reversed(doc.items()))))
        run_experiment(load_config(str(copy)), str(out))
        assert {name: (out / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("workers", [0, -1])
    def test_refuses_fewer_than_one_worker_before_any_file(self, tmp_path, workers):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="workers"):
            run_experiment(tiny_config(), str(out), workers=workers)
        assert not out.exists()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w2"
        run_experiment(tiny_config(), str(a), workers=1)
        run_experiment(tiny_config(), str(b), workers=2)
        assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()

    def test_pool_is_no_larger_than_the_pending_runs(self, tmp_path, monkeypatch):
        # A forked pool starts all max_workers processes at once; this fake
        # runs the initializer and the tasks in-process.
        asked = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "_WORKER_CTX", None)
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out), workers=64)
        assert len(asked) == 1 and asked[0] <= 12
        records_path = out / "records.jsonl"
        full = records_path.read_bytes()

        records_path.write_text("".join(records_path.read_text().splitlines(keepends=True)[1:]))
        run_experiment(tiny_config(), str(out), workers=4)
        assert len(asked) == 1
        assert records_path.read_bytes() == full

    def test_finished_rerun_computes_nothing_and_keeps_every_byte(self, tmp_path, monkeypatch):
        # With every run on disk there is nothing to price, so the QUBO, its
        # cost table and its minimum are not built, no timing is appended and
        # the snapshot is not rewritten.
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        names = ("records.jsonl", "timings.jsonl", "config.json")
        before = {name: (out / name).read_bytes() for name in names}
        assert len(before["timings.jsonl"].splitlines()) == 12
        prepared = []

        def counted(cfg):
            prepared.append(cfg)
            return prepare_context(cfg)

        monkeypatch.setattr(harness, "prepare_context", counted)
        for workers in (1, 4):
            records = run_experiment(tiny_config(), str(out), workers=workers)
            assert len(records) == 2 * 2 * 3
        assert prepared == []
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_unpreparable_context_fails_before_any_file_at_two_workers(self, tmp_path):
        # The parent prepares the one context the workers share, so the
        # error is the context's own at any worker count, not a broken pool.
        out = tmp_path / "out"
        cfg = tiny_config(initial_params=InitialParams(values=(0.1,) * 7))
        with pytest.raises(ValueError, match="initial_params"):
            run_experiment(cfg, str(out), workers=2)
        assert not (out / "config.json").exists()
        assert not (out / "records.jsonl").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_too_small_a_budget_fails_before_any_file(self, tmp_path, workers):
        # Every run would otherwise record the optimizer's ValueError.
        out = tmp_path / "out"
        cfg = tiny_config(optimizer=OptimizerSettings(n_max=4, rho_beg=1.0, rho_end=1e-3))
        with pytest.raises(ValueError, match="n_max"):
            run_experiment(cfg, str(out), workers=workers)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_initial_params_fail_before_any_file(self, tmp_path, workers):
        # A NaN start point would only fail inside every run, after the
        # snapshot and the records were written.
        out = tmp_path / "out"
        cfg = tiny_config(initial_params=InitialParams(values=(math.nan, 0.1, 0.2)))
        with pytest.raises(ValueError, match="finite"):
            run_experiment(cfg, str(out), workers=workers)
        assert not (out / "config.json").exists()
        assert not (out / "records.jsonl").exists()

    def test_config_snapshot_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = tiny_config()
        run_experiment(cfg, str(out))
        assert load_config(str(out / "config.json")) == cfg


def synthetic_records(cfg, feasible_per_config):
    """Records with a prescribed number of runs at p_min=0.9 vs p_min=0.1."""
    records = []
    for alpha in cfg.alphas:
        for shots in cfg.shots_grid:
            cid = config_id(alpha, shots)
            n_good = feasible_per_config[(alpha, shots)]
            for i in range(cfg.runs_per_config):
                p_min = 0.9 if i < n_good else 0.1
                records.append(
                    RunRecord(
                        config_id=cid, alpha=alpha, shots=shots, run_index=i,
                        seed=run_seed(cfg.master_seed, cid, i),
                        n_calls=5 + (i % 7), p_min=p_min, best_cost=-1.0,
                    )
                )
    return records


def golden_records(cfg):
    """Eight runs per cell with varied p_min and n_calls. Run 2 of
    alpha=0.25_shots=50 failed, and alpha=1_shots=20 kept only its run 0, so
    that cell is skipped."""
    records = synthetic_records(cfg, {(0.25, 20): 8, (0.25, 50): 6, (1.0, 20): 8, (1.0, 50): 3})
    kept = []
    for k, rec in enumerate(records):
        rec.p_min -= 0.0137 * rec.run_index
        rec.n_calls = 3 + (5 * rec.run_index + k // 8) % 17
        if rec.config_id == config_id(0.25, 50) and rec.run_index == 2:
            rec.error = "RuntimeError: boom"
            rec.n_calls = rec.p_min = rec.best_cost = None
        if rec.config_id != config_id(1.0, 20) or rec.run_index == 0:
            kept.append(rec)
    return kept


def tree_digest(root):
    """SHA-256 over every file under root: its relative path, size and bytes."""
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


class TestAnalyze:
    def test_output_tree_bytes_are_pinned(self, tmp_path):
        # Every file analyze writes, at point and strict selection, for a
        # record set with a failed run and a skipped cell.
        cfg = tiny_config(runs_per_config=8, thresholds=SelectionThresholds(0.7, 1.2, 0.5))
        records = golden_records(cfg)
        point = analyze(records, cfg, out_dir=str(tmp_path / "point"))
        strict = analyze(records, cfg, out_dir=str(tmp_path / "strict"), strict=True)
        assert sorted(point) == sorted(strict) == [
            config_id(0.25, 20), config_id(0.25, 50), config_id(1.0, 50)
        ]
        # alpha=0.25_shots=50 is accepted on its point estimates only.
        assert [(tmp_path / mode / "selected.csv").read_text() for mode in ("point", "strict")] == [
            "alpha,shots\n0.25,20\n0.25,50\n", "alpha,shots\n0.25,20\n"
        ]
        assert len(list(tmp_path.rglob("*.csv"))) == 2 * (5 + 4 * 3)
        assert tree_digest(tmp_path) == (
            "8836b315c7f772d558d65d4dcabe4d715eac8598e38b25d5aa41848066cc0a9f"
        )

    def test_wald_cell_matches_hand_formula(self):
        cfg = tiny_config(runs_per_config=400)
        records = synthetic_records(cfg, {(a, s): 280 for a in cfg.alphas for s in cfg.shots_grid})
        reports = analyze(records, cfg)
        est = reports[config_id(0.25, 20)].feasibility
        assert est.value == pytest.approx(0.70)
        assert est.half_width == pytest.approx(1.959964 * math.sqrt(0.7 * 0.3 / 400), abs=1e-6)

    def test_alpha_reported_as_configured(self, tmp_path):
        cfg = tiny_config(alphas=[0.123456789, 1.0], runs_per_config=4)
        records = synthetic_records(cfg, {(a, s): 2 for a in cfg.alphas for s in cfg.shots_grid})
        analyze(records, cfg, out_dir=str(tmp_path))
        with open(tmp_path / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows = {row["config_id"]: row for row in csv.DictReader(fh)}
        assert float(rows[config_id(0.123456789, 20)]["alpha"]) == 0.123456789

    def test_identical_records_fully_reproducible(self):
        cfg = tiny_config(runs_per_config=50)
        records = synthetic_records(cfg, {(a, s): 50 for a in cfg.alphas for s in cfg.shots_grid})
        for rec in records:
            rec.n_calls = 9  # collapse onto a single diagram bin
        reports = analyze(records, cfg)
        est = reports[config_id(1.0, 50)].reproducibility
        assert est == (1.0, 0.0)

    def test_verdict_cascade_truth_table(self):
        thresholds = SelectionThresholds(0.7, 1.2, 0.6)
        from vqabench.metrics import select

        cases = [
            ((0.69, 2.00, 0.90), Verdict.REJECTED_FEASIBILITY),
            ((0.75, 1.10, 0.90), Verdict.REJECTED_QUALITY),
            ((0.75, 1.46, 0.40), Verdict.REJECTED_REPRODUCIBILITY),
            ((0.75, 1.46, 0.62), Verdict.ACCEPTED),
            ((0.70, 1.20, 0.60), Verdict.ACCEPTED),
        ]
        for (f, q, r), expected in cases:
            assert select(f, q, r, thresholds) is expected

    def test_error_records_excluded_and_config_reported(self, caplog):
        cfg = tiny_config(runs_per_config=4)
        records = synthetic_records(cfg, {(a, s): 4 for a in cfg.alphas for s in cfg.shots_grid})
        bad_cid = config_id(0.25, 20)
        for rec in records:
            if rec.config_id == bad_cid:
                rec.error = "boom"
                rec.n_calls = rec.p_min = rec.best_cost = None
        with caplog.at_level("WARNING"):
            reports = analyze(records, cfg)
        assert bad_cid not in reports
        assert len(reports) == 3
        assert any("skipped" in message for message in caplog.messages)

    def test_tables_and_metrics_csv_written(self, tmp_path):
        cfg = tiny_config(runs_per_config=10)
        records = synthetic_records(cfg, {(a, s): 10 for a in cfg.alphas for s in cfg.shots_grid})
        reports = analyze(records, cfg, out_dir=str(tmp_path))
        with open(tmp_path / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == (
            "config_id,alpha,shots,n_runs,feasibility,feasibility_err,quality,quality_err,"
            "reproducibility,reproducibility_err,verdict"
        )
        assert len(rows) == len(reports) == 4
        for row, (cid, rep) in zip(rows, reports.items()):
            assert row["config_id"] == cid
            assert int(row["n_runs"]) == rep.n_runs
            for name in ESTIMATES:
                assert (float(row[name]), float(row[f"{name}_err"])) == getattr(rep, name)
            assert row["verdict"] == rep.verdict.value
        table = (tmp_path / "table_feasibility.csv").read_text().splitlines()
        assert table[0] == "s\\alpha,0.25,1"
        assert table[1].startswith("20,") and table[2].startswith("50,")
        assert "1.00 ± 0.00" in table[1]
        selected = (tmp_path / "selected.csv").read_text().splitlines()
        assert selected[0] == "alpha,shots"

    def test_unknown_config_rejected(self):
        cfg = tiny_config()
        rogue = RunRecord(
            config_id="alpha=0.5,shots=7", alpha=0.5, shots=7, run_index=0,
            seed=1, n_calls=3, p_min=0.5, best_cost=0.0,
        )
        with pytest.raises(ValueError, match="grid"):
            analyze([rogue], cfg)

    @pytest.mark.parametrize("failed", [False, True])
    def test_record_outside_the_grid_rejected_before_any_file(self, tmp_path, failed):
        # A failed run of another experiment is no more this grid's than a
        # successful one; it used to be counted as a failure and ignored.
        cfg = tiny_config()
        records = synthetic_records(cfg, {(a, s): 2 for a in cfg.alphas for s in cfg.shots_grid})
        rogue = RunRecord(config_id="alpha=0.5_shots=7", alpha=0.5, shots=7, run_index=0, seed=1)
        if failed:
            rogue.error = "boom"
        else:
            rogue.n_calls, rogue.p_min, rogue.best_cost = 3, 0.5, 0.0
        out = tmp_path / "tables"
        with pytest.raises(
            ValueError, match=r"run 0 of config 'alpha=0.5_shots=7' is not in the experiment grid"
        ):
            analyze(records + [rogue], cfg, out_dir=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("run_index", [3, -1])
    @pytest.mark.parametrize("failed", [False, True])
    def test_run_index_outside_runs_per_config_rejected_before_any_file(
        self, tmp_path, failed, run_index
    ):
        # Such a run used to be counted in its cell, so its n_runs could
        # exceed runs_per_config.
        cfg = tiny_config()
        records = synthetic_records(cfg, {(a, s): 2 for a in cfg.alphas for s in cfg.shots_grid})
        stray = replace(records[4], run_index=run_index)
        if failed:
            stray.error = "boom"
            stray.n_calls = stray.p_min = stray.best_cost = None
        out = tmp_path / "tables"
        with pytest.raises(ValueError, match=rf"run {run_index} of config "
                                             rf"'{stray.config_id}' is not in the experiment grid"):
            analyze(records + [stray], cfg, out_dir=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("fields", CELL_FIELD_EDITS, ids=CELL_FIELD_IDS)
    @pytest.mark.parametrize("failed", [False, True])
    def test_record_whose_fields_are_not_its_cells_rejected_before_any_file(
        self, tmp_path, failed, fields
    ):
        # Such a run used to be counted among its cell's runs.
        cfg = tiny_config()
        records = synthetic_records(cfg, {(a, s): 2 for a in cfg.alphas for s in cfg.shots_grid})
        assert (records[0].config_id, records[0].run_index) == ("alpha=0.25_shots=20", 0)
        records[0] = replace(records[0], **fields)
        if failed:
            records[0].error = "boom"
            records[0].n_calls = records[0].p_min = records[0].best_cost = None
        out = tmp_path / "tables"
        with pytest.raises(ValueError, match=r"^run 0 of config 'alpha=0\.25_shots=20' holds "
                                             r"alpha .* not its cell's alpha 0\.25, shots 20 "
                                             rf"and seed {run_seed(cfg.master_seed, records[0].config_id, 0)}$"):
            analyze(records, cfg, out_dir=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("failed", [False, True])
    def test_run_listed_twice_rejected_before_any_file(self, tmp_path, failed):
        # A concatenated records file would otherwise double the cell's
        # n_runs and narrow its intervals.
        cfg = tiny_config(runs_per_config=6)
        records = synthetic_records(cfg, {(a, s): 3 for a in cfg.alphas for s in cfg.shots_grid})
        twice = replace(records[7])
        if failed:
            twice.error = "boom"
            twice.n_calls = twice.p_min = twice.best_cost = None
        out = tmp_path / "tables"
        with pytest.raises(ValueError, match=rf"run 1 of config '{twice.config_id}' is listed twice"):
            analyze(records + [twice], cfg, out_dir=str(out))
        assert not out.exists()

    def test_reports_follow_alpha_and_shots_order(self):
        cfg = tiny_config(alphas=[1.0, 0.25], shots_grid=[50, 20], runs_per_config=4)
        records = synthetic_records(cfg, {(a, s): 2 for a in cfg.alphas for s in cfg.shots_grid})
        assert list(analyze(records, cfg)) == [
            config_id(a, s) for a in (0.25, 1.0) for s in (20, 50)
        ]

    def test_every_successful_record_counted_once(self):
        cfg = tiny_config(runs_per_config=6)
        records = synthetic_records(cfg, {(a, s): 3 for a in cfg.alphas for s in cfg.shots_grid})
        records[0].error = "boom"
        records[0].n_calls = records[0].p_min = records[0].best_cost = None
        reports = analyze(records, cfg)
        n_successful = sum(1 for r in records if r.error is None)
        assert sum(rep.n_runs for rep in reports.values()) == n_successful


class TestDiagramData:
    @staticmethod
    def diagram_rows(out_dir, cid, name):
        return (out_dir / "diagrams" / cid / name).read_text().splitlines()[1:]

    def test_single_ideal_run_lands_at_origin(self, tmp_path):
        cfg = tiny_config(alphas=[0.25], shots_grid=[20], runs_per_config=1)
        cid = config_id(0.25, 20)
        records = [
            RunRecord(config_id=cid, alpha=0.25, shots=20, run_index=0,
                      seed=run_seed(cfg.master_seed, cid, 0), n_calls=1, p_min=1.0, best_cost=0.0)
        ]
        analyze(records, cfg, out_dir=str(tmp_path))
        assert self.diagram_rows(tmp_path, cid, "scatter.csv") == ["0,1,1.0,0.0,0.0"]

    def test_bin_counts_partition_the_runs(self, tmp_path):
        cfg = tiny_config(runs_per_config=12)
        records = synthetic_records(cfg, {(a, s): 6 for a in cfg.alphas for s in cfg.shots_grid})
        analyze(records, cfg, out_dir=str(tmp_path))
        rows = self.diagram_rows(tmp_path, config_id(1.0, 50), "bins.csv")
        assert sum(int(r.split(",")[-1]) for r in rows) == 12

    def test_unit_level_curve_reaches_the_corner(self, tmp_path):
        cfg = tiny_config(runs_per_config=2)
        records = synthetic_records(cfg, {(a, s): 1 for a in cfg.alphas for s in cfg.shots_grid})
        analyze(records, cfg, out_dir=str(tmp_path))
        rows = self.diagram_rows(tmp_path, config_id(0.25, 20), "level_curves.csv")
        q1 = [(float(u), float(v)) for q, u, v in (r.split(",") for r in rows) if q == "1"]
        assert q1[0] == pytest.approx((1.0, 0.0))

    def test_skipped_cells_still_get_their_diagram_files(self, tmp_path):
        # Cells with fewer than two successful runs have no report, but
        # their diagram data is written like every other cell's.
        cfg = tiny_config(runs_per_config=2)
        records = synthetic_records(cfg, {(a, s): 2 for a in cfg.alphas for s in cfg.shots_grid})
        one_left, none_left = config_id(0.25, 20), config_id(1.0, 20)
        for rec in records:
            if rec.config_id == none_left or (rec.config_id, rec.run_index) == (one_left, 1):
                rec.error = "boom"
                rec.n_calls = rec.p_min = rec.best_cost = None
        reports = analyze(records, cfg, out_dir=str(tmp_path))
        assert sorted(reports) == [config_id(0.25, 50), config_id(1.0, 50)]
        for cid, n_runs in ((one_left, 1), (none_left, 0)):
            assert len(self.diagram_rows(tmp_path, cid, "scatter.csv")) == n_runs
            bins = self.diagram_rows(tmp_path, cid, "bins.csv")
            assert sum(int(r.split(",")[-1]) for r in bins) == n_runs
            assert self.diagram_rows(tmp_path, cid, "level_curves.csv")


class TestRecordSerialization:
    def test_roundtrip(self):
        rec = RunRecord(
            config_id="alpha=1,shots=50", alpha=1.0, shots=50, run_index=2,
            seed=123, n_calls=17, p_min=0.625, best_cost=-4.5,
        )
        assert rec.to_json_line() == (
            '{"alpha":1.0,"best_cost":-4.5,"config_id":"alpha=1,shots=50","n_calls":17,'
            '"p_min":0.625,"run_index":2,"seed":123,"shots":50}\n'
        )
        assert RunRecord.from_dict(json.loads(rec.to_json_line())) == rec

    def test_error_roundtrip(self):
        rec = RunRecord(
            config_id="alpha=1,shots=50", alpha=1.0, shots=50, run_index=2,
            seed=123, error="ValueError: nope",
        )
        assert rec.to_json_line() == (
            '{"alpha":1.0,"config_id":"alpha=1,shots=50","error":"ValueError: nope",'
            '"run_index":2,"seed":123,"shots":50}\n'
        )
        parsed = RunRecord.from_dict(json.loads(rec.to_json_line()))
        assert parsed.error == rec.error and parsed.n_calls is None

    @pytest.mark.parametrize(
        "second, cause",
        [
            ('{"alpha":1.0,"config_id":"alpha=1_shots=50",\n', "Expecting"),  # torn
            ('{"alpha":1.0,"config_id":"alpha=1_shots=50","run_index":1,"sede":5,"shots":50}\n',
             "unknown key 'sede' in record"),
            ("[1, 2]\n", "record must be a JSON object"),
            ('{"alpha":1.0,"config_id":"alpha=1_shots=50","run_index":1,"shots":50}\n',
             "record needs the key 'seed'"),
            ('{"alpha":1.0,"config_id":"alpha=1_shots=50","run_index":"1","seed":5,"shots":50}\n',
             "run_index must be a number, got '1'"),
            ('{"alpha":1.0,"config_id":"alpha=1_shots=50","run_index":1,"seed":"12","shots":50}\n',
             "seed must be a number, got '12'"),
            ('{"alpha":1.0,"config_id":"alpha=1_shots=50","p_min":"0.5","run_index":1,"seed":5,'
             '"shots":50}\n', "p_min must be a number, got '0.5'"),
            ('{"alpha":"0.5","config_id":"alpha=1_shots=50","run_index":1,"seed":5,"shots":50}\n',
             "alpha must be a number, got '0.5'"),
            ('{"alpha":1.0,"config_id":"alpha=1_shots=50","n_calls":true,"run_index":1,"seed":5,'
             '"shots":50}\n', "n_calls must be a number, got True"),
            # the timings sidecar's key, never a record's
            ('{"alpha":1.0,"config_id":"alpha=1_shots=50","run_index":1,"seed":5,"shots":50,'
             '"wall_time":0.1}\n', "unknown key 'wall_time' in record"),
        ],
    )
    def test_load_records_names_the_line_that_is_not_a_record(self, tmp_path, second, cause):
        # Every rerun reads the records file, so its error must say where to look.
        rec = RunRecord(
            config_id="alpha=1_shots=50", alpha=1.0, shots=50, run_index=0,
            seed=123, n_calls=17, p_min=0.625, best_cost=-4.5,
        )
        path = tmp_path / "records.jsonl"
        path.write_text(rec.to_json_line() + second + rec.to_json_line())
        with pytest.raises(ValueError, match=f"records.jsonl, line 2: not a run record: .*{cause}"):
            load_records(str(path))
