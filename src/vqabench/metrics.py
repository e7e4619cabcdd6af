"""Performance metrics over ensembles of VQA runs.

Each optimization run reduces to a pair (n_calls, p_min): circuit evaluations
consumed and the exact probability that the output circuit measures a global
minimum. Runs are normalized onto the unit-square quality diagram via
u = (n_calls - 1)/(n_max - 1), v = 1 - p_min, whose origin (0, 0) is the
ideal run: certain success after a single call.

Three metrics summarize the empirical distribution of runs on the diagram:

- feasibility: share of runs with p_min >= p_threshold (Wald interval);
- quality: mean of a Heaviside-gated inverse weighted distance to the ideal
  point (central-limit interval with the n-1 sample stddev);
- reproducibility: one minus the normalized Shannon entropy of the 10x10
  binned occupancy of the diagram (delta-method interval, natural log).

A configuration is then pushed through an ordered threshold cascade
(feasibility, quality, reproducibility) to a verdict; the first failing gate
rejects it.

The feasibility definition and the quality gate both use >= at the threshold,
so being feasible and having nonzero quality coincide on the boundary.
Intervals use the two-sided standard normal quantile, z(95%) = 1.959964, taken
from the standard library's ``statistics.NormalDist().inv_cdf``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Bins per diagram axis; the entropy normalization uses K = GRID_BINS**2.
GRID_BINS = 10

# Inverse-distance quality blows up at the exact ideal point; runs closer
# than this radius are capped rather than returning inf.
_R_FLOOR = 1e-9
_Q_CAP = 1e9


class Verdict(enum.Enum):
    REJECTED_FEASIBILITY = "rejected_feasibility"
    REJECTED_QUALITY = "rejected_quality"
    REJECTED_REPRODUCIBILITY = "rejected_reproducibility"
    ACCEPTED = "accepted"


class DiagramPoint(NamedTuple):
    u: float
    v: float


class Estimate(NamedTuple):
    value: float
    half_width: float


@dataclass(frozen=True)
class RunOutcome:
    """One VQA execution: objective calls consumed and exact success probability."""

    n_calls: int
    p_min: float

    def __post_init__(self) -> None:
        if self.n_calls < 1:
            raise ValueError(f"n_calls must be >= 1, got {self.n_calls}")
        if not 0.0 <= self.p_min <= 1.0:
            raise ValueError(f"p_min must be in [0, 1], got {self.p_min}")


@dataclass
class VqaDistribution:
    """Ensemble of run outcomes for one fixed VQA configuration."""

    outcomes: list[RunOutcome]
    n_max: int
    p_threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p_threshold < 1.0:
            raise ValueError(f"p_threshold must be in (0, 1), got {self.p_threshold}")
        for o in self.outcomes:
            if o.n_calls > self.n_max:
                raise ValueError(
                    f"outcome n_calls={o.n_calls} exceeds n_max={self.n_max}"
                )

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class SelectionThresholds:
    f0: float
    q0: float
    r0: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f0 <= 1.0 or not 0.0 <= self.r0 <= 1.0:
            raise ValueError("f0 and r0 must lie in [0, 1]")
        # Negated so that a NaN, for which every comparison is False, fails.
        if not self.q0 >= 0.0:
            raise ValueError("q0 must be >= 0")


#: The three metrics in cascade order, each a MetricsReport field holding an Estimate.
ESTIMATES = ("feasibility", "quality", "reproducibility")


@dataclass
class MetricsReport:
    """Metric triple with error bars, the cascade verdict and the number of
    runs behind them, for one configuration's ensemble. Which grid cell it
    describes is the caller's key (``harness.analyze`` keys by config id)."""

    feasibility: Estimate
    quality: Estimate
    reproducibility: Estimate
    verdict: Verdict
    n_runs: int


def z_value(confidence: float) -> float:
    """Two-sided standard normal quantile for a confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from statistics import NormalDist  # imported here: only analysis needs it

    return NormalDist().inv_cdf(0.5 * (1.0 + confidence))


def normalize(outcome: RunOutcome, n_max: int) -> DiagramPoint:
    """Map a run onto the unit-square diagram; (0, 0) is the ideal run."""
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if outcome.n_calls > n_max:
        raise ValueError(f"n_calls={outcome.n_calls} exceeds n_max={n_max}")
    u = (outcome.n_calls - 1) / (n_max - 1)
    return DiagramPoint(u=u, v=1.0 - outcome.p_min)


def quality_function(outcome: RunOutcome, n_max: int, p_threshold: float) -> float:
    """Heaviside-gated inverse weighted distance to the ideal point.

    Zero below the success threshold; on the feasible region, the reciprocal
    of sqrt(u^2 + ((1 - p_min)/(1 - p_threshold))^2), which decreases with
    extra calls and increases with success probability.
    """
    if not 0.0 < p_threshold < 1.0:
        raise ValueError(f"p_threshold must be in (0, 1), got {p_threshold}")
    if outcome.p_min < p_threshold:
        return 0.0
    u, v = normalize(outcome, n_max)
    r = math.hypot(u, v / (1.0 - p_threshold))
    if r < _R_FLOOR:
        return _Q_CAP
    return 1.0 / r


def feasibility(dist: VqaDistribution, confidence: float = 0.95) -> Estimate:
    """Share of runs at or above the success threshold, with a Wald interval."""
    n = len(dist)
    if n < 1:
        raise ValueError("feasibility needs at least one outcome")
    count = sum(1 for o in dist.outcomes if o.p_min >= dist.p_threshold)
    value = count / n
    half_width = z_value(confidence) * math.sqrt(value * (1.0 - value) / n)
    return Estimate(value, half_width)


def required_sample_size(half_width: float, p: float, confidence: float = 0.95) -> int:
    """Runs needed to estimate a proportion p to within +-half_width."""
    if not 0.0 < half_width < 1.0:
        raise ValueError(f"half_width must be in (0, 1), got {half_width}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    z = z_value(confidence)
    return math.ceil(z * z * p * (1.0 - p) / (half_width * half_width))


def quality(dist: VqaDistribution, confidence: float = 0.95) -> Estimate:
    """Mean run quality with a central-limit error bar (n-1 sample stddev)."""
    n = len(dist)
    if n < 2:
        raise ValueError("quality error bars need at least two outcomes")
    qs = np.array(
        [quality_function(o, dist.n_max, dist.p_threshold) for o in dist.outcomes]
    )
    value = float(qs.mean())
    half_width = z_value(confidence) * float(qs.std(ddof=1)) / math.sqrt(n)
    return Estimate(value, half_width)


def _bin_index(x: float) -> int:
    # Half-open [l, l + 1/GRID_BINS) bins, final bin closed at 1.0.
    return min(max(int(x * GRID_BINS), 0), GRID_BINS - 1)


def diagram_occupancy(dist: VqaDistribution) -> np.ndarray:
    """(GRID_BINS, GRID_BINS) counts of normalized runs; [i, j] bins (u, v)."""
    counts = np.zeros((GRID_BINS, GRID_BINS), dtype=np.int64)
    for o in dist.outcomes:
        u, v = normalize(o, dist.n_max)
        counts[_bin_index(u), _bin_index(v)] += 1
    return counts


def reproducibility(dist: VqaDistribution, confidence: float = 0.95) -> Estimate:
    """One minus the normalized Shannon entropy of the binned diagram occupancy.

    1 for a fully concentrated ensemble, 0 for one uniform over all bins.
    The error bar propagates the delta-method variance of the plug-in entropy
    estimator, (1/n) * (sum p ln^2 p - (sum p ln p)^2) over occupied bins,
    through the 1/ln(K) normalization.
    """
    n = len(dist)
    if n < 2:
        raise ValueError("reproducibility error bars need at least two outcomes")
    counts = diagram_occupancy(dist).ravel()
    p = counts[counts > 0] / n
    log_p = np.log(p)
    entropy = -float(p @ log_p)
    mean_sq = float(p @ log_p**2)
    var_entropy = max(mean_sq - entropy**2, 0.0) / n
    log_k = math.log(GRID_BINS * GRID_BINS)
    value = 1.0 - entropy / log_k
    half_width = z_value(confidence) * math.sqrt(var_entropy) / log_k
    return Estimate(value, half_width)


def select(f: float, q: float, r: float, thresholds: SelectionThresholds) -> Verdict:
    """Ordered threshold cascade classifying a configuration by its metric triple."""
    if f < thresholds.f0:
        return Verdict.REJECTED_FEASIBILITY
    if q < thresholds.q0:
        return Verdict.REJECTED_QUALITY
    if r < thresholds.r0:
        return Verdict.REJECTED_REPRODUCIBILITY
    return Verdict.ACCEPTED


def compute_report(
    dist: VqaDistribution,
    thresholds: SelectionThresholds,
    confidence: float = 0.95,
    strict: bool = False,
) -> MetricsReport:
    """Metric triple, intervals, and verdict for one configuration's ensemble.

    The cascade compares the point estimates by default. ``strict`` compares
    the lower interval edges instead, (estimate - half_width) >= threshold.
    """
    f = feasibility(dist, confidence)
    q = quality(dist, confidence)
    r = reproducibility(dist, confidence)
    edges = (e.value - e.half_width if strict else e.value for e in (f, q, r))
    return MetricsReport(
        feasibility=f,
        quality=q,
        reproducibility=r,
        verdict=select(*edges, thresholds),
        n_runs=len(dist),
    )


def quality_level_curve(
    q_value: float, p_threshold: float, num_points: int = 256
) -> np.ndarray:
    """Sampled (u, v) polyline of the diagram curve where quality equals q_value.

    The curve is the quarter-ellipse u^2 + (v/(1-p_threshold))^2 = 1/q^2
    clipped to the unit square; for q >= 1 it runs from (1/q, 0) up to
    (0, (1-p_threshold)/q).
    """
    if q_value <= 0.0:
        raise ValueError(f"level value must be positive, got {q_value}")
    radius = 1.0 / q_value
    t_start = math.acos(min(1.0, 1.0 / radius)) if radius > 1.0 else 0.0
    t = np.linspace(t_start, math.pi / 2, num_points)
    u = radius * np.cos(t)
    v = (1.0 - p_threshold) * radius * np.sin(t)
    keep = v <= 1.0 + 1e-12
    return np.column_stack([u[keep], v[keep]])
