"""The benchmark's workloads: each turns a seed into one experiment config.

The program only ever sees the resulting config document. The seed is added
to the shipped config's ``master_seed`` (seed 0 keeps it), so every seed
draws new sampling streams for the same grid, QUBO and start point.

``paper-n16`` and ``shots-n12`` cap ``n_max`` below the call count at which
their runs would stop on ``rho_end`` (403-566 calls at N=16 and 223-287 at
N=12 over seeds 1-6 with the shipped budget of 1000). Every run therefore
spends exactly ``n_max`` objective calls whatever the seed, so each seed
times the same work. ``desk-w2`` keeps the shipped budget: its 200 runs per
sweep average the per-seed differences out (total calls differ by about 1%
between seeds).

Sweeps are sized to take about 4 s on two cores, so that a 36 s window
yields enough sweeps for a median that shrugs off bursts of host noise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    base_config: str
    overrides: dict
    tiny_overrides: dict
    parallel: bool

    def config(self, root: Path, seed: int, tiny: bool = False) -> dict:
        """Config document for ``seed``; ``tiny`` shrinks it for smoke tests."""
        with open(root / "configs" / self.base_config, encoding="utf-8") as fh:
            doc = json.load(fh)
        for overrides in (self.overrides, self.tiny_overrides if tiny else {}):
            for key, value in overrides.items():
                if isinstance(value, dict):
                    doc[key] = {**doc.get(key, {}), **value}
                else:
                    doc[key] = value
        doc["master_seed"] = int(doc["master_seed"]) + seed
        return doc

    def workers(self) -> int:
        return nproc() if self.parallel else 1


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-w2",
            base_config="desk_mode.json",
            overrides={"runs_per_config": 50},
            tiny_overrides={"runs_per_config": 3},
            parallel=True,
        ),
        Workload(
            name="paper-n16",
            base_config="full_scale.json",
            overrides={
                "alphas": [0.25],
                "shots_grid": [10000],
                "runs_per_config": 2,
                "optimizer": {"n_max": 125},
            },
            tiny_overrides={"optimizer": {"n_max": 40}},
            parallel=False,
        ),
        Workload(
            name="shots-n12",
            base_config="full_scale.json",
            overrides={
                "qubo": {"dimension": 12},
                "alphas": [0.15],
                "shots_grid": [100000],
                "runs_per_config": 3,
                "optimizer": {"n_max": 120},
            },
            tiny_overrides={"runs_per_config": 2, "optimizer": {"n_max": 30}},
            parallel=False,
        ),
    )
}
