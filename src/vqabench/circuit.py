"""Statevector simulation of the RealAmplitudes ansatz.

The ansatz on N qubits with r repetitions applies r+1 layers of per-qubit RY
rotations, with a reverse-linear CNOT entangler between consecutive layers:
CNOT(control=i, target=i+1) applied in the order i = N-2, N-3, ..., 0. The
gate order inside the entangler matters for CNOT chains and is fixed here.
Parameter layout: angle ``params[l*N + i]`` drives the layer-l RY on qubit i.

Basis convention: amplitude index = sum(x_i * 2**i), i.e. qubit 0 is the
LEAST significant bit of the index. This differs from some frameworks that
put qubit 0 in the most significant position; all bitstring/index conversions
go through :mod:`vqabench.qubo` helpers, which share the convention.

RY(theta) has rows (cos t/2, -sin t/2) and (sin t/2, cos t/2) and CNOT only
permutes amplitudes, so every state reachable by the ansatz is real: states
are dense ``float64`` arrays of 2^N amplitudes.

The first RY layer acts on |0...0>, so it is built in closed form as a
product state: qubit i scales the 2^i amplitudes built so far by cos and by
sin of theta_i / 2 (``math.cos``/``math.sin``, exactly as the per-gate
update), giving the bit-i = 0 and bit-i = 1 halves. Later layers apply RY
gate by gate. The whole entangler is one permutation of basis indices.
CNOT(i, i+1) for i = N-2, ..., 0 XORs each target bit i+1 with bit i before
bit i is itself touched, so the chain maps index x to
``x ^ ((x << 1) & (2^N - 1))``; it is applied as a gather through the
inverse map, built once per N and cached read-only as ``intp``, numpy's
native index type, which it gathers through without a conversion. Memory
bounds building at N <= 24: 8 B per amplitude (128 MiB at N = 24), plus the
cached map (8 B per amplitude, 128 MiB at N = 24, kept for the life of the
process), the gather's copies and per-gate temporaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qubo import QuboInstance, bits_to_index

MAX_QUBITS = 24


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the ansatz: qubit count and repetition count."""

    n_qubits: int
    reps: int

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.reps < 0:
            raise ValueError(f"reps must be >= 0, got {self.reps}")

    @property
    def num_parameters(self) -> int:
        return self.n_qubits * (self.reps + 1)


def _apply_ry(state: np.ndarray, qubit: int, angle: float) -> None:
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    psi = state.reshape(-1, 2, 1 << qubit)
    a0 = psi[:, 0, :].copy()
    psi[:, 0, :] = c * a0 - s * psi[:, 1, :]
    psi[:, 1, :] = s * a0 + c * psi[:, 1, :]


@functools.lru_cache(maxsize=None)
def _entangler_source(n: int) -> np.ndarray:
    """Read-only intp gather map of the entangler: new[y] = old[src[y]].

    The chain moves amplitude x to ``x ^ ((x << 1) & (2^N - 1))``; ``src`` is
    the inverse of that permutation.
    """
    x = np.arange(1 << n, dtype=np.intp)
    src = np.empty_like(x)
    src[x ^ ((x << 1) & ((1 << n) - 1))] = x
    src.flags.writeable = False
    return src


def build_statevector(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """Statevector prepared by the ansatz from |0...0> for one angle vector."""
    n = spec.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"n_qubits {n} exceeds the simulator bound {MAX_QUBITS}")
    theta = np.asarray(params, dtype=np.float64)
    if theta.shape != (spec.num_parameters,):
        raise ValueError(
            f"expected {spec.num_parameters} parameters for {spec}, got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")

    # Layer 0 acts on |0...0>, so it prepares a product state: qubit i splits
    # each of the 2^i amplitudes built so far into its cos part (bit i = 0)
    # and its sin part (bit i = 1), the same products _apply_ry would form.
    state = np.empty(1 << n, dtype=np.float64)
    state[0] = 1.0
    for i in range(n):
        half = float(theta[i]) / 2.0
        built = state[: 1 << i]
        np.multiply(built, math.sin(half), out=state[1 << i : 2 << i])
        built *= math.cos(half)
    for layer in range(1, spec.reps + 1):
        state = state[_entangler_source(n)]
        for i in range(n):
            _apply_ry(state, qubit=i, angle=float(theta[layer * n + i]))

    assert abs(float(np.sum(np.square(state))) - 1.0) < 1e-10, "norm drifted"
    return state


def exact_probabilities(state: np.ndarray) -> np.ndarray:
    """Born-rule outcome probabilities, indexed by basis index."""
    p = np.square(state)
    total = float(p.sum())
    assert abs(total - 1.0) < 1e-10, f"state not normalized: sum p = {total}"
    return p


def sample_bitstrings(state: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw measurement outcomes from a state as an array of basis indices.

    Consumes exactly ``shots`` uniforms from ``rng.random`` and returns the
    same int64 indices as ``rng.choice(len(p), size=shots, p=p / p.sum())``
    with p the Born probabilities, leaving the generator in the same state:
    each draw u maps to the number of CDF entries <= u. Identical (state,
    shots, generator state) yields identical samples; use index_to_bits for
    the tuple form of an outcome.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = exact_probabilities(state)
    cdf = np.cumsum(p / p.sum())
    cdf /= cdf[-1]
    u = rng.random(shots)
    if shots < len(cdf):
        return cdf.searchsorted(u, side="right")
    # Guide table over k = 2 * 2^N equal buckets of [0, 1). k is a power of
    # two, so u * k and cdf * k are exact and bucket b = floor(u * k) holds
    # the CDF entries in [b / k, (b + 1) / k). The entries below the bucket
    # are all <= u and those above it all exceed u; a bucket holding one
    # entry needs one comparison, and a fuller one a binary search. An empty
    # bucket's next entry lies above it, so the comparison is False there.
    k = 2 * len(cdf)
    count = np.bincount((cdf * k).astype(np.intp), minlength=k + 1)
    below = np.cumsum(count) - count
    b = (u * k).astype(np.intp)
    idx = below[b]
    idx += cdf[idx] <= u
    many = count[b] > 1
    idx[many] = cdf.searchsorted(u[many], side="right")
    return idx


def exact_p_min(state: np.ndarray, q: QuboInstance) -> float:
    """Exact probability of measuring a global-minimum bitstring.

    Computed from the statevector, not estimated from shots, so the success
    probability of an output circuit carries no sampling noise.
    """
    if q.minimizers is None:
        raise ValueError("minimizers not populated; run brute_force_minimum first")
    if len(state) != (1 << q.dimension):
        raise ValueError(
            f"state dimension {len(state)} does not match 2^{q.dimension}"
        )
    p = exact_probabilities(state)
    indices = np.fromiter((bits_to_index(m) for m in q.minimizers), dtype=np.int64)
    # Rescale by the realized total mass: removes ~1e-16 normalization drift,
    # and a fully degenerate instance (every bitstring minimal) gives exactly 1.
    value = float(p[indices].sum()) / float(p.sum())
    assert -1e-12 <= value <= 1.0 + 1e-12
    return min(max(value, 0.0), 1.0)
