"""Tests for experiment orchestration, record persistence, and analysis tables."""

import json
import math
import multiprocessing
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from vqabench import harness, qubo
from vqabench.harness import (
    ExperimentConfig,
    RunRecord,
    analyze,
    build_distributions,
    config_id,
    emit_quality_diagram_data,
    load_config,
    load_records,
    prepare_context,
    read_metrics_csv,
    run_experiment,
    run_seed,
    run_single,
    save_config,
)
from vqabench.metrics import SelectionThresholds, Verdict
from vqabench.optimizer import OptimizerSettings
from vqabench.qubo import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    QuboInstance,
    all_costs,
    brute_force_minimum,
    random_qubo,
    save_qubo,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        alphas=[0.25, 1.0],
        shots_grid=[20, 50],
        runs_per_config=3,
        optimizer=OptimizerSettings(n_max=20, rho_beg=1.0, rho_end=1e-3),
        p_threshold=0.5,
        thresholds=SelectionThresholds(0.7, 1.2, 0.6),
        master_seed=99,
        qubo_dimension=3,
        qubo_seed=5,
        reps=0,
        initial_params_seed=2,
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

    def test_missing_optimizer_takes_the_dataclass_defaults(self):
        doc = tiny_config().to_dict()
        del doc["optimizer"]
        assert ExperimentConfig.from_dict(doc).optimizer == OptimizerSettings()
        doc["optimizer"] = {"n_max": 50}
        assert ExperimentConfig.from_dict(doc).optimizer == OptimizerSettings(n_max=50)

    def test_missing_keys_take_the_dataclass_defaults(self):
        cfg = tiny_config(confidence=0.9, reps=2, qubo_value_range=(-3.0, 3.0))
        doc = cfg.to_dict()
        del doc["confidence"], doc["ansatz"], doc["qubo"]["value_range"]
        omitted = ("confidence", "reps", "qubo_value_range")
        default = {f.name: f.default for f in fields(ExperimentConfig) if f.name in omitted}
        assert ExperimentConfig.from_dict(doc) == replace(cfg, **default)

    def test_requires_a_qubo_source(self):
        with pytest.raises(ValueError, match="qubo"):
            tiny_config(qubo_dimension=None, qubo_seed=None)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            tiny_config(alphas=[0.0])

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
        cfg = tiny_config(initial_params_values=[0.1] * 7, initial_params_seed=None)
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
        cfg = tiny_config(qubo_dimension=6)
        ctx = prepare_context(cfg)
        assert len(tables) == 1
        assert ctx.cost_table is tables[0]
        fresh = random_qubo(6, cfg.qubo_seed, cfg.qubo_value_range)
        assert brute_force_minimum(fresh) == (ctx.qubo.min_cost, ctx.qubo.minimizers)
        assert np.array_equal(ctx.cost_table, tables[-1])

    def test_refuses_to_enumerate_past_the_limit(self):
        with pytest.raises(ValueError, match="exhaustive"):
            prepare_context(tiny_config(qubo_dimension=DEFAULT_EXHAUSTIVE_LIMIT + 1))


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
        cfg = tiny_config(qubo_path=str(path), qubo_dimension=None, qubo_seed=None)
        ctx = prepare_context(cfg)
        rec = run_single(ctx, 1.0, 20, run_index=0)
        assert rec.p_min == 1.0
        assert rec.error is None

    def test_failed_run_recorded_not_raised(self, monkeypatch):
        ctx = prepare_context(tiny_config())

        def boom(*args, **kwargs):
            raise RuntimeError("sampler exploded")

        monkeypatch.setattr(harness, "cost_estimate", boom)
        rec = run_single(ctx, 0.25, 20, run_index=0)
        assert rec.error is not None and "sampler exploded" in rec.error
        assert rec.n_calls is None

    def test_wall_time_excluded_from_serialization(self):
        ctx = prepare_context(tiny_config())
        rec = run_single(ctx, 0.25, 20, run_index=0)
        assert rec.wall_time is not None
        assert "wall_time" not in rec.to_dict()


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

    def test_resume_recomputes_only_missing_runs(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        full = records_path.read_bytes()

        lines = records_path.read_text().splitlines(keepends=True)
        records_path.write_text("".join(lines[::2]))  # drop every other record
        run_experiment(tiny_config(), str(out), resume=True)
        assert records_path.read_bytes() == full

    def test_resume_after_torn_last_line(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path = out / "records.jsonl"
        full = records_path.read_bytes()

        records_path.write_bytes(full[:-30])  # a crash mid-write tears the last record
        run_experiment(tiny_config(), str(out), resume=True)
        assert records_path.read_bytes() == full

    def test_resume_after_torn_timings_line(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        records_path, timings_path = out / "records.jsonl", out / "timings.jsonl"
        records_path.write_text("".join(records_path.read_text().splitlines(keepends=True)[:5]))
        # timing lines are not flushed per run, so a crash can tear one too
        timings = timings_path.read_text().splitlines(keepends=True)
        timings_path.write_text("".join(timings[:5]) + timings[5][:20])
        run_experiment(tiny_config(), str(out), resume=True)
        lines = timings_path.read_text().splitlines()
        assert len(lines) == 12
        assert all("wall_time" in json.loads(line) for line in lines)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched run_single reaches pool workers only when they are forked",
    )
    def test_resume_after_a_killed_worker(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_single_ = harness.run_single

        def dies_on_one_run(ctx, alpha, shots, run_index):
            if (alpha, shots, run_index) == (1.0, 20, 1):
                os._exit(1)  # as the OOM killer would, with no cleanup
            return run_single_(ctx, alpha, shots, run_index)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "run_single", dies_on_one_run)
            with pytest.raises(BrokenProcessPool):
                run_experiment(tiny_config(), str(out), workers=2)
        # the parent writes whole lines, so a dead worker leaves no torn tail
        written = (out / "records.jsonl").read_text().splitlines(keepends=True)
        assert len(written) < 12
        assert all(line.endswith("\n") and json.loads(line)["n_calls"] for line in written)

        run_experiment(tiny_config(), str(out), workers=2, resume=True)
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
        with pytest.raises(json.JSONDecodeError):
            run_experiment(tiny_config(), str(out), resume=True)

    @pytest.mark.parametrize(
        "change", [{"master_seed": 100}, {"shots_grid": [20, 60]}, {"runs_per_config": 4}]
    )
    def test_resume_refuses_a_changed_config(self, tmp_path, change):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        before = {name: (out / name).read_bytes() for name in ("records.jsonl", "config.json")}
        with pytest.raises(ValueError, match="snapshot"):
            run_experiment(tiny_config(**change), str(out), resume=True)
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_fresh_rerun_resets_timings(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out))
        run_experiment(tiny_config(), str(out))
        assert len((out / "timings.jsonl").read_text().splitlines()) == 12

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "w1", tmp_path / "w2"
        run_experiment(tiny_config(), str(a), workers=1)
        run_experiment(tiny_config(), str(b), workers=2)
        assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()

    def test_pool_is_no_larger_than_the_pending_runs(self, tmp_path, monkeypatch):
        # A forked pool starts all max_workers at once, each preparing its own
        # context; this fake runs the initializer and the tasks in-process.
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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "_WORKER_CTX", None)
        out = tmp_path / "out"
        run_experiment(tiny_config(), str(out), workers=64)
        assert len(asked) == 1 and asked[0] <= 12
        records_path = out / "records.jsonl"
        full = records_path.read_bytes()

        records_path.write_text("".join(records_path.read_text().splitlines(keepends=True)[1:]))
        run_experiment(tiny_config(), str(out), workers=4, resume=True)
        assert len(asked) == 1
        assert records_path.read_bytes() == full

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


class TestAnalyze:
    def test_wald_cell_matches_hand_formula(self):
        cfg = tiny_config(runs_per_config=400)
        records = synthetic_records(cfg, {(a, s): 280 for a in cfg.alphas for s in cfg.shots_grid})
        reports = analyze(records, cfg)
        est = reports[config_id(0.25, 20)].feasibility
        assert est.value == pytest.approx(0.70)
        assert est.half_width == pytest.approx(1.959964 * math.sqrt(0.7 * 0.3 / 400), abs=1e-6)

    def test_alpha_reported_as_configured(self):
        cfg = tiny_config(alphas=[0.123456789, 1.0], runs_per_config=4)
        records = synthetic_records(cfg, {(a, s): 2 for a in cfg.alphas for s in cfg.shots_grid})
        report = analyze(records, cfg)[config_id(0.123456789, 20)]
        assert report.alpha == 0.123456789

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
        rows = read_metrics_csv(str(tmp_path / "metrics.csv"))
        assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == (
            "config_id,alpha,shots,n_runs,feasibility,feasibility_err,quality,quality_err,"
            "reproducibility,reproducibility_err,verdict"
        )
        assert len(rows) == len(reports) == 4
        assert all(row["verdict"] in {v.value for v in Verdict} for row in rows)
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
            build_distributions([rogue], cfg)

    def test_every_successful_record_counted_once(self):
        cfg = tiny_config(runs_per_config=6)
        records = synthetic_records(cfg, {(a, s): 3 for a in cfg.alphas for s in cfg.shots_grid})
        records[0].error = "boom"
        records[0].n_calls = records[0].p_min = records[0].best_cost = None
        reports = analyze(records, cfg)
        n_successful = sum(1 for r in records if r.error is None)
        assert sum(rep.n_runs for rep in reports.values()) == n_successful


class TestDiagramData:
    def test_single_ideal_run_lands_at_origin(self, tmp_path):
        cfg = tiny_config(runs_per_config=1)
        cid = config_id(0.25, 20)
        records = [
            RunRecord(config_id=cid, alpha=0.25, shots=20, run_index=0,
                      seed=1, n_calls=1, p_min=1.0, best_cost=0.0)
        ]
        cfg.shots_grid = [20]
        cfg.alphas = [0.25]
        emit_quality_diagram_data(records, cfg, cid, str(tmp_path))
        scatter = (tmp_path / "scatter.csv").read_text().splitlines()
        assert scatter[1] == "0,1,1.0,0.0,0.0"

    def test_bin_counts_partition_the_runs(self, tmp_path):
        cfg = tiny_config(runs_per_config=12)
        records = synthetic_records(cfg, {(a, s): 6 for a in cfg.alphas for s in cfg.shots_grid})
        cid = config_id(1.0, 50)
        emit_quality_diagram_data(records, cfg, cid, str(tmp_path))
        rows = (tmp_path / "bins.csv").read_text().splitlines()[1:]
        assert sum(int(r.split(",")[-1]) for r in rows) == 12

    def test_unit_level_curve_reaches_the_corner(self, tmp_path):
        cfg = tiny_config(runs_per_config=2)
        records = synthetic_records(cfg, {(a, s): 1 for a in cfg.alphas for s in cfg.shots_grid})
        emit_quality_diagram_data(records, cfg, config_id(0.25, 20), str(tmp_path))
        rows = [r.split(",") for r in (tmp_path / "level_curves.csv").read_text().splitlines()[1:]]
        q1 = [(float(u), float(v)) for q, u, v in rows if q == "1"]
        assert q1[0] == pytest.approx((1.0, 0.0))

    def test_unknown_config_id_rejected(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="unknown config"):
            emit_quality_diagram_data([], cfg, "alpha=0.9,shots=1", str(tmp_path))


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
