"""Checks on the committed ``BENCH_*.json`` files at the repository root.

A performance claim counts only against a committed BENCH file, which holds
the output of ``benchmark/run.py --workload all`` for the parent commit and
for the change, at ``--trace 0`` and ``--trace 1``, each with the ``machine``
lines it printed. Both sides must come from one platform: a comparison across
machines or numpy builds shows nothing about the change.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
TRACE_LEVELS = (0, 1)
#: The machine-line keys that name the platform (benchmark/machine.py's
#: ``platform_fingerprint``), on which the pinned records depend.
PLATFORM_KEYS = ("cpu_model", "machine", "numpy", "python")


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_parent_and_change_at_both_trace_levels_on_one_platform(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    runs = doc["runs"]
    assert sorted((run["side"], run["trace"]) for run in runs) == sorted(
        (side, trace) for side in SIDES for trace in TRACE_LEVELS
    )
    platforms = [run["platform"] for run in runs]
    assert set(platforms[0]) == set(PLATFORM_KEYS)
    assert all(platform == platforms[0] for platform in platforms)
    for run in runs:
        assert run["machine"], f"{run['side']} trace {run['trace']} has no machine lines"
        assert run["machine"].keys() == run["result"].keys()
        for block in run["machine"].values():
            assert {key: block[key] for key in PLATFORM_KEYS} == run["platform"]
        for result in run["result"].values():
            assert result["correct"] and result["failed"] == 0
