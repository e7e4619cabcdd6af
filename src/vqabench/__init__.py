"""Ensemble benchmarking of variational quantum algorithms on QUBO instances.

Runs seeded grids of VQA optimizations (RealAmplitudes ansatz, CVaR cost,
derivative-free trust-region optimizer) on a built-in statevector simulator
and scores each configuration by feasibility, quality, and reproducibility
with confidence intervals and a threshold-based selection verdict.
"""

from .circuit import AnsatzSpec, build_statevector, exact_p_min, exact_probabilities, sample_bitstrings
from .cost import cost_estimate, cvar
from .harness import ExperimentConfig, RunRecord, analyze, load_config, load_qubo, run_experiment, save_qubo
from .metrics import (
    Estimate,
    MetricsReport,
    RunOutcome,
    SelectionThresholds,
    Verdict,
    VqaDistribution,
    compute_report,
    feasibility,
    normalize,
    quality,
    quality_function,
    reproducibility,
    required_sample_size,
    select,
)
from .optimizer import OptimizationResult, OptimizerSettings, minimize
from .qubo import QuboInstance, brute_force_minimum, evaluate, random_qubo

__version__ = "0.1.0"

__all__ = [
    "AnsatzSpec",
    "Estimate",
    "ExperimentConfig",
    "MetricsReport",
    "OptimizationResult",
    "OptimizerSettings",
    "QuboInstance",
    "RunOutcome",
    "RunRecord",
    "SelectionThresholds",
    "Verdict",
    "VqaDistribution",
    "analyze",
    "brute_force_minimum",
    "build_statevector",
    "compute_report",
    "cost_estimate",
    "cvar",
    "evaluate",
    "exact_p_min",
    "exact_probabilities",
    "feasibility",
    "load_config",
    "load_qubo",
    "minimize",
    "normalize",
    "quality",
    "quality_function",
    "random_qubo",
    "reproducibility",
    "required_sample_size",
    "run_experiment",
    "sample_bitstrings",
    "save_qubo",
    "select",
]
