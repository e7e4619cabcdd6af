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

from .circuit import AnsatzSpec, build_statevector, guide_table, sample_bitstrings


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
    tail = values if m == values.size else np.partition(values, m - 1)[:m]
    # ``tail.mean()`` without its dispatch: the same pairwise sum, then the
    # same division by the count.
    return float(np.add.reduce(tail)) / m


# Each thread's working memory for the last N and ``shots`` it priced, reused
# by the next call instead of being freed and faulted back in: the build's two
# state buffers, the sample and cost arrays, and, from 2^N shots up, the
# sampler's guide table. Each entry is kept as (key, arrays) and replaced when
# a call needs another key.
_buffers = threading.local()


def _reused(name: str, key, make):
    held = getattr(_buffers, name, None)
    if held is None or held[0] != key:
        held = (key, make())
        setattr(_buffers, name, held)
    return held[1]


def state_buffers(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's pair of 2^N ``float64`` state buffers for
    ``build_statevector``, kept for the next call at the same N."""
    d = 1 << n_qubits
    return _reused("states", d, lambda: (np.empty(d), np.empty(d)))


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
    circuit evaluated when counting optimizer calls. Every array that scales
    with 2^N or with ``shots`` lives in this thread's buffers and never
    leaves the call, so the steady state allocates none of them but CVaR's
    own partition and, from 2^N shots up, the guide table's counts; the rest
    is chunk-sized. A run's last build and its ``exact_p_min`` use the same
    state pair, through ``state_buffers``.
    """
    d = 1 << spec.n_qubits
    states = state_buffers(spec.n_qubits)
    state = build_statevector(spec, params, buffers=states)
    samples, costs = _reused(
        "shots",
        (shots, cost_table.dtype),
        lambda: (np.empty(shots, dtype=np.intp), np.empty(shots, dtype=cost_table.dtype)),
    )
    guide = _reused("guide", d, lambda: guide_table(d)) if shots >= d else None
    spare = states[1] if state is states[0] else states[0]
    sample_bitstrings(state, shots, rng, out=samples, scratch=spare, guide=guide)
    # The samples index the table by construction; mode="raise" would copy out.
    return cvar(cost_table.take(samples, out=costs, mode="clip"), alpha)
