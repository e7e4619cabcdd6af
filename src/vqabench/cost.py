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

from .circuit import (
    _CHUNK,
    AnsatzSpec,
    _reused,
    build_statevector,
    sample_bitstrings,
    state_buffers,
)


def cvar_tail_count(n_samples: int, alpha: float) -> int:
    """Number of lowest-cost samples kept by CVaR_alpha: ceil(alpha * K).

    A 1e-9 slack guards against float products landing epsilon above an
    integer; the count is clamped to [1, K].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    m = math.ceil(alpha * n_samples - 1e-9)
    return min(max(m, 1), n_samples)


def cvar(costs: np.ndarray, alpha: float, overwrite: bool = False):
    """Mean of the lowest ceil(alpha*K) of K sampled costs, or the list of
    those of each row of ``(R, K)`` costs, each by its single call's steps.

    The tail is found by partitioning a copy of the costs, or, with
    ``overwrite``, the costs themselves when they are already a ``float64``
    array: the same partition, so the same tail and the same sum, without the
    copy. The costs are then left in partitioned order.
    """
    values = np.asarray(costs, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take CVaR of an empty sample")
    m = cvar_tail_count(values.shape[-1], alpha)
    if m == values.shape[-1]:
        tail = values
    elif overwrite:
        values.partition(m - 1, axis=-1)
        tail = values[..., :m]
    else:
        tail = np.partition(values, m - 1, axis=-1)[..., :m]
    # ``tail.mean(axis=-1)`` without its dispatch: the same pairwise sum, then
    # the same division by the count.
    sums = np.add.reduce(tail, axis=-1)
    return float(sums) / m if values.ndim == 1 else (sums / m).tolist()


# The draws (``intp``) are priced over in place as ``float64``, so the two
# must have one size: 8 B on every 64-bit platform that numpy 2 supports.
assert np.dtype(np.intp).itemsize == np.dtype(np.float64).itemsize


def cost_estimate(
    spec: AnsatzSpec,
    params: np.ndarray,
    cost_table: np.ndarray,
    alpha: float,
    shots: int,
    rng,
):
    """One objective evaluation: build, sample, price, CVaR; or the list of
    those of each row of ``(R, k)`` points with ``rng`` R generators.

    Builds the ansatz states of ``params`` in this thread's
    ``state_buffers`` and returns ``sampled_cvar`` of them: the CVaR_alpha
    of ``shots`` bitstrings drawn from each and priced by lookup in
    ``cost_table``, which is checked before the build. Row r's value is the
    bits of the single call on ``params[r]`` and ``rng[r]``. One evaluation
    corresponds to one quantum circuit evaluated when counting optimizer
    calls.
    """
    _check_table(cost_table, 1 << spec.n_qubits)
    rows = len(params) if np.ndim(params) == 2 else None
    state = build_statevector(spec, params, buffers=state_buffers(spec.n_qubits, rows))
    return sampled_cvar(state, cost_table, alpha, shots, rng)


def sampled_cvar(
    state: np.ndarray,
    cost_table: np.ndarray,
    alpha: float,
    shots: int,
    rng,
):
    """Sample ``shots`` bitstrings from a built state, price, CVaR; or the
    list of that of each row of ``(R, 2^N)`` states with ``rng`` R generators.

    Prices each draw by lookup in ``cost_table`` (the 2^N ``float64`` QUBO
    costs by basis index from qubo.all_costs; any other table, alpha, shots
    or generator count is refused before a uniform is drawn) and returns
    their CVaR_alpha. Row r's value is the bits of the single call on
    ``state[r]`` and ``rng[r]``.

    The rows go in tiles of whole rows up to ``_CHUNK`` draws, or of one
    row, each one ``sample_bitstrings`` and one ``cvar`` call. The draws go
    into one reused 8 B entry per draw of a tile and are priced over
    themselves by one ``take``: it reads each index before it writes that
    entry, so the same memory, viewed as ``float64``, then holds their costs,
    which CVaR partitions in place. So a warm call allocates only chunk-sized
    temporaries and, from 0.4 * 2^N shots up, the guide table's counts.
    """
    _check_table(cost_table, state.shape[-1])
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cvar_tail_count(shots, alpha)
    if state.ndim == 1:
        return _priced(state, cost_table, alpha, shots, rng)
    if len(rng) != len(state):
        raise ValueError(f"{len(state)} states need as many generators, got {len(rng)}")
    per = max(1, _CHUNK // shots)
    values = []
    for lo in range(0, len(state), per):
        values += _priced(state[lo : lo + per], cost_table, alpha, shots, rng[lo : lo + per])
    return values


def _priced(state, cost_table, alpha, shots, rng):
    """``sampled_cvar`` of one tile: one state, or rows holding at most
    ``max(shots, _CHUNK)`` draws."""
    size = max(shots, _CHUNK)
    held = _reused("shots", size, lambda: np.empty(size, dtype=np.intp))
    shape = (*state.shape[:-1], shots)
    draws = held[: math.prod(shape)].reshape(shape)
    sample_bitstrings(state, shots, rng, out=draws)
    # The draws index the table by construction; mode="raise" would copy out.
    costs = cost_table.take(draws, out=draws.view(np.float64), mode="clip")
    return cvar(costs, alpha, overwrite=True)


def _check_table(cost_table: np.ndarray, size: int) -> None:
    shape, dtype = np.shape(cost_table), getattr(cost_table, "dtype", None)
    if dtype != np.float64 or shape != (size,):
        raise ValueError(f"cost_table must be ({size},) float64, got {shape} {dtype}")
