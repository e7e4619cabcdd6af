"""End-to-end tests of the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vqabench
from vqabench.cli import main
from vqabench.harness import config_id, save_config
from vqabench.metrics import SelectionThresholds

from test_harness import tiny_config


@pytest.fixture()
def experiment_dir(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    save_config(tiny_config(), str(cfg_path))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return tmp_path


class TestRun:
    def test_writes_records(self, experiment_dir, capsys):
        records = (experiment_dir / "out" / "records.jsonl").read_text().splitlines()
        assert len(records) == 12

    def test_resume_with_changed_master_seed_fails_and_keeps_files(self, experiment_dir, capsys):
        out = experiment_dir / "out"
        before = {name: (out / name).read_bytes() for name in ("records.jsonl", "config.json")}
        reseeded = experiment_dir / "reseeded.json"
        save_config(tiny_config(master_seed=123456), str(reseeded))
        argv = ["run", "--out", str(out), "--resume", "--config"]
        assert main(argv + [str(reseeded)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "snapshot" in err["detail"]
        assert {name: (out / name).read_bytes() for name in before} == before

        # the unchanged config still resumes
        assert main(argv + [str(experiment_dir / "cfg.json")]) == 0
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_config_without_a_start_point_fails_and_writes_nothing(self, tmp_path, capsys):
        # README documents initial_params as values or a seed; without
        # either, no start point is drawn from the master seed.
        doc = tiny_config().to_dict()
        del doc["initial_params"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "initial_params" in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, extra",
        [("initial_params", {"values": [0.1, 0.2, 0.3]}), ("qubo", {"path": "q.json"})],
    )
    def test_config_with_two_forms_of_an_input_fails_and_writes_nothing(
        self, tmp_path, capsys, section, extra
    ):
        # tiny_config gives a start seed and a generated QUBO; a second form
        # of either would be dropped from the snapshot without a word.
        doc = tiny_config().to_dict()
        doc[section].update(extra)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and section in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, argv, named",
        [({"optimzer": {"n_max": 50}}, [], "optimzer"), ({}, ["--workers", "0"], "workers")],
    )
    def test_unknown_key_or_no_worker_fails_and_writes_nothing(
        self, tmp_path, capsys, extra, argv, named
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**tiny_config().to_dict(), **extra}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), *argv]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and named in err["detail"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "optimizer, named", [({"n_max": 4}, "n_max"), ({"rho_beg": float("inf")}, "rho_beg")]
    )
    def test_unusable_optimizer_settings_fail_and_write_nothing(
        self, tmp_path, capsys, optimizer, named
    ):
        # Both settings used to pass set-up and fail inside every run: the
        # budget cannot build tiny_config's 3-parameter model, and json
        # reads the radius as Infinity.
        doc = tiny_config().to_dict()
        doc["optimizer"].update(optimizer)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and named in err["detail"]
        assert not out.exists()

    def test_missing_config_fails_with_json_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "detail" in err


class TestAnalyze:
    def test_writes_tables(self, experiment_dir, capsys):
        out = experiment_dir / "out"
        tables = experiment_dir / "tables"
        code = main([
            "analyze",
            "--records", str(out / "records.jsonl"),
            "--config", str(experiment_dir / "cfg.json"),
            "--out-tables", str(tables),
        ])
        assert code == 0
        for name in ("metrics.csv", "table_feasibility.csv", "table_quality.csv",
                     "table_reproducibility.csv", "selected.csv"):
            assert (tables / name).exists()
        stdout = capsys.readouterr().out
        assert "alpha=0.25_shots=20" in stdout

    def test_prints_cells_in_alpha_and_shots_order(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(alphas=[1.0, 0.25], shots_grid=[50, 20]), str(cfg_path))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsys.readouterr()
        argv = ["analyze", "--records", str(out / "records.jsonl"), "--out-tables"]
        assert main(argv + [str(tmp_path / "tables")]) == 0
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == [config_id(a, s) for a in (0.25, 1.0) for s in (20, 50)]

    def test_run_listed_twice_fails_and_writes_no_tables(self, experiment_dir, capsys):
        # A concatenated records file must not double every cell's ensemble.
        out = experiment_dir / "out"
        lines = (out / "records.jsonl").read_text().splitlines(keepends=True)
        (out / "doubled.jsonl").write_text("".join(line * 2 for line in lines))
        tables = experiment_dir / "tables"
        code = main(["analyze", "--records", str(out / "doubled.jsonl"),
                     "--out-tables", str(tables)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "listed twice" in err["detail"]
        assert not tables.exists()

    def test_missing_snapshot_fails_with_json_error(self, experiment_dir, capsys):
        records = experiment_dir / "elsewhere" / "records.jsonl"
        records.parent.mkdir()
        records.write_bytes((experiment_dir / "out" / "records.jsonl").read_bytes())
        code = main(["analyze", "--records", str(records),
                     "--out-tables", str(experiment_dir / "tables")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError" and "config.json" in err["detail"]
        assert not (experiment_dir / "tables").exists()


    @pytest.mark.parametrize("raise_f0,strict", [(True, False), (False, True), (True, True)])
    def test_config_copy_and_strict_reselect_the_same_records(self, tmp_path, raise_f0, strict):
        # Thresholds under which the F = 0.67 +- 0.53 cells pass on their
        # point estimates: a raised f0, or their interval edges, reject them.
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(thresholds=SelectionThresholds(0.5, 0.0, 0.0)), str(cfg_path))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        analyze = ["analyze", "--records", str(out / "records.jsonl"), "--out-tables"]
        assert main(analyze + [str(tmp_path / "snapshot")]) == 0
        extra = ["--strict"] if strict else []
        if raise_f0:
            doc = json.loads((out / "config.json").read_text())
            doc["thresholds"]["f0"] = 0.7
            (tmp_path / "raised.json").write_text(json.dumps(doc))
            extra += ["--config", str(tmp_path / "raised.json")]
        assert main(analyze + [str(tmp_path / "reselected")] + extra) == 0

        def read(tables):
            with open(tables / "metrics.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            verdicts = [row.pop("verdict") for row in rows]
            return rows, verdicts, (tables / "selected.csv").read_text().splitlines()

        metrics, verdicts, selected = read(tmp_path / "snapshot")
        assert sorted(verdicts) == ["accepted"] * 3 + ["rejected_feasibility"]
        assert len(selected) == 1 + 3
        metrics_after, verdicts_after, selected_after = read(tmp_path / "reselected")
        assert metrics_after == metrics
        assert verdicts_after == ["rejected_feasibility"] * 4
        assert selected_after == ["alpha,shots"]


class TestRemovedSelect:
    def test_select_subcommand_exits_through_argparse(self, tmp_path, capsys):
        # Re-selection goes through `analyze --config` and `--strict`.
        argv = ["select", "--metrics", str(tmp_path / "metrics.csv"),
                "--thresholds", "0.7,1.2,0.6"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestPlotData:
    """The quality-diagram data that `analyze` writes for every grid cell."""

    def test_uses_config_snapshot_next_to_records(self, experiment_dir):
        # run, then analyze with the config taken from the run's snapshot:
        # the tables and every cell's diagram data land under --out-tables
        out = experiment_dir / "out"
        tables = out / "tables"
        code = main(["analyze", "--records", str(out / "records.jsonl"),
                     "--out-tables", str(tables)])
        assert code == 0
        assert (tables / "metrics.csv").exists()
        cfg = tiny_config()
        for alpha in cfg.alphas:
            for shots in cfg.shots_grid:
                cell = tables / "diagrams" / config_id(alpha, shots)
                for name in ("scatter.csv", "bins.csv", "level_curves.csv"):
                    assert (cell / name).exists()


class TestDeskScript:
    """The desk-mode sequence, run then analyze, driven from a shell."""

    def test_runs_analyzes_and_dumps_every_config(self, tmp_path):
        cfg = tiny_config()
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, str(cfg_path))
        out = tmp_path / "out"
        src = str(Path(vqabench.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        cli = [sys.executable, "-m", "vqabench.cli"]
        subprocess.run(
            cli + ["run", "--config", str(cfg_path), "--out", str(out), "--workers", "1"],
            check=True, timeout=300, env=env,
        )
        subprocess.run(
            cli + ["analyze", "--records", str(out / "records.jsonl"),
                   "--out-tables", str(out / "tables")],
            check=True, timeout=300, env=env,
        )
        assert (out / "tables" / "metrics.csv").exists()
        for alpha in cfg.alphas:
            for shots in cfg.shots_grid:
                cell = out / "tables" / "diagrams" / config_id(alpha, shots)
                assert (cell / "scatter.csv").exists()


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(vqabench.__file__).resolve().parents[1])
        code = "import sys, vqabench.cli; assert 'scipy' not in sys.modules, sorted(sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)

    def test_set_up_and_serial_runs_load_no_unused_stdlib_modules(self, tmp_path):
        # A run's set-up needs no CSV, logging, statistics or process pool,
        # and a serial sweep needs no pool either.
        cfg_path = tmp_path / "cfg.json"
        save_config(tiny_config(), str(cfg_path))
        src = str(Path(vqabench.__file__).resolve().parents[1])
        code = (
            "import sys, vqabench.cli\n"
            "unused = ('concurrent.futures', 'logging', 'statistics', 'csv')\n"
            "assert not [m for m in unused if m in sys.modules], sorted(sys.modules)\n"
            "from vqabench.harness import load_config, run_experiment\n"
            "run_experiment(load_config(sys.argv[1]), sys.argv[2], workers=1)\n"
            "assert 'concurrent.futures' not in sys.modules, sorted(sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-c", code, str(cfg_path), str(tmp_path / "out")],
            check=True, timeout=120, env=env,
        )
        assert len((tmp_path / "out" / "records.jsonl").read_text().splitlines()) == 12
