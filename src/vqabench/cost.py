"""CVaR cost functions over sampled cost distributions.

CVaR_alpha of a sample is the mean of its lowest ceil(alpha*K) values; alpha=1
recovers the plain sample mean. The tail count uses the ceiling so that every
alpha > 0 keeps at least one value. Whether the tail should round up or down
is a convention; it is exposed here as ``cvar_tail_count`` so the choice is
inspectable.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .circuit import AnsatzSpec, build_statevector, sample_bitstrings


def cvar_tail_count(n_samples: int, alpha: float) -> int:
    """Number of lowest-cost samples kept by CVaR_alpha: ceil(alpha * K).

    A 1e-9 slack guards against float products landing epsilon above an
    integer; the count is clamped to [1, K].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    m = math.ceil(alpha * n_samples - 1e-9)
    return min(max(m, 1), n_samples)


def cvar(costs: np.ndarray, alpha: float) -> float:
    """Mean of the lowest ceil(alpha*K) of K sampled costs."""
    values = np.asarray(costs, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take CVaR of an empty sample")
    m = cvar_tail_count(values.size, alpha)
    if m == values.size:
        return float(values.mean())
    return float(np.partition(values, m - 1)[:m].mean())


# Each thread's shots-sized sample and cost arrays for the last ``shots`` it
# priced, reused by the next call instead of being freed and faulted back in.
_buffers = threading.local()


def _shot_buffers(shots: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    cached = getattr(_buffers, "arrays", None)
    if cached is None or len(cached[0]) != shots or cached[1].dtype != dtype:
        cached = _buffers.arrays = (np.empty(shots, dtype=np.intp), np.empty(shots, dtype=dtype))
    return cached


def cost_estimate(
    spec: AnsatzSpec,
    params: np.ndarray,
    cost_table: np.ndarray,
    alpha: float,
    shots: int,
    rng: np.random.Generator,
) -> float:
    """One objective evaluation: build, sample, price, CVaR.

    Builds the ansatz state for ``params``, samples ``shots`` bitstrings,
    prices each by lookup in ``cost_table`` (the QUBO costs of all 2^N
    bitstrings by basis index, from qubo.all_costs), and returns the
    CVaR_alpha of the sample. One invocation corresponds to one quantum
    circuit evaluated when counting optimizer calls. The samples and their
    costs live in this thread's buffers for ``shots`` and never leave the
    call, so the steady state allocates no shots-sized arrays but CVaR's own.
    """
    state = build_statevector(spec, params)
    samples, costs = _shot_buffers(shots, cost_table.dtype)
    sample_bitstrings(state, shots, rng, out=samples)
    # The samples index the table by construction; mode="raise" would copy out.
    return cvar(cost_table.take(samples, out=costs, mode="clip"), alpha)
