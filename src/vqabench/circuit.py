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
are dense ``float64`` arrays of 2^N amplitudes. The whole entangler is one
permutation of basis indices. CNOT(i, i+1) for i = N-2, ..., 0 XORs each
target bit i+1 with bit i before bit i is itself touched, so the chain maps
index x to ``x ^ ((x << 1) & (2^N - 1))``. Memory bounds building at
N <= 24: 8 B per amplitude (128 MiB at N = 24), plus the index map (another
8 B per amplitude) and per-gate temporaries.
"""

from __future__ import annotations

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

    state = np.zeros(1 << n, dtype=np.float64)
    state[0] = 1.0
    x = np.arange(1 << n)
    entangler = x ^ ((x << 1) & ((1 << n) - 1))  # amplitude x moves to entangler[x]
    for layer in range(spec.reps + 1):
        if layer > 0:
            state[entangler] = state.copy()
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

    Identical (state, shots, generator state) yields identical samples; use
    index_to_bits for the tuple form of an outcome.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = exact_probabilities(state)
    return rng.choice(len(p), size=shots, p=p / p.sum())


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
