"""CVaR cost functions over sampled cost distributions.

CVaR_alpha of a sample is the mean of its lowest ceil(alpha*K) values; alpha=1
recovers the plain sample mean. The tail count uses the ceiling so that every
alpha > 0 keeps at least one value. Whether the tail should round up or down
is a convention; it is exposed here as ``cvar_tail_count`` so the choice is
inspectable.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import AnsatzSpec, _reused, build_statevector, sample_bitstrings, state_buffers


def cvar_tail_count(n_samples: int, alpha: float) -> int:
    """Number of lowest-cost samples kept by CVaR_alpha: ceil(alpha * K).

    A 1e-9 slack guards against float products landing epsilon above an
    integer; the count is clamped to [1, K].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    m = math.ceil(alpha * n_samples - 1e-9)
    return min(max(m, 1), n_samples)


def cvar(costs: np.ndarray, alpha: float, overwrite: bool = False) -> float:
    """Mean of the lowest ceil(alpha*K) of K sampled costs.

    The tail is found by partitioning a copy of the costs, or, with
    ``overwrite``, the costs themselves when they are already a ``float64``
    array: the same partition, so the same tail and the same sum, without the
    copy. The costs are then left in partitioned order.
    """
    values = np.asarray(costs, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take CVaR of an empty sample")
    m = cvar_tail_count(values.size, alpha)
    if m == values.size:
        tail = values
    elif overwrite:
        values.partition(m - 1)
        tail = values[:m]
    else:
        tail = np.partition(values, m - 1)[:m]
    # ``tail.mean()`` without its dispatch: the same pairwise sum, then the
    # same division by the count.
    return float(np.add.reduce(tail)) / m


# The draws (``intp``) are priced over in place as ``float64``, so the two
# must have one size: 8 B on every 64-bit platform that numpy 2 supports.
assert np.dtype(np.intp).itemsize == np.dtype(np.float64).itemsize


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
    prices each by lookup in ``cost_table`` (the 2^N ``float64`` QUBO costs
    by basis index from qubo.all_costs; any other table is refused before the
    build), and returns their CVaR_alpha. One invocation corresponds to one
    quantum circuit evaluated when counting optimizer calls.

    The state is built in this thread's ``state_buffers`` and the sampler
    keeps its CDF and guide table in the same thread's working memory, so a
    warm call allocates only chunk-sized temporaries and, from 0.4 * 2^N shots
    up, the guide table's counts. The draws go into one reused 8 B entry per
    shot and are priced over themselves by one ``take``: it reads each index
    before it writes that entry, so the same memory, viewed as ``float64``,
    then holds their costs, which CVaR partitions in place.
    """
    shape, dtype = np.shape(cost_table), getattr(cost_table, "dtype", None)
    if dtype != np.float64 or shape != (1 << spec.n_qubits,):
        raise ValueError(f"cost_table must be ({1 << spec.n_qubits},) float64, got {shape} {dtype}")
    state = build_statevector(spec, params, buffers=state_buffers(spec.n_qubits))
    draws = _reused("shots", shots, lambda: np.empty(shots, dtype=np.intp))
    sample_bitstrings(state, shots, rng, out=draws)
    # The draws index the table by construction; mode="raise" would copy out.
    costs = cost_table.take(draws, out=draws.view(np.float64), mode="clip")
    return cvar(costs, alpha, overwrite=True)
