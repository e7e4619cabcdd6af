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
``x ^ ((x << 1) & (2^N - 1))``. It runs as one gather through the inverse
map, built once per N and cached read-only as ``intp``, numpy's native index
type, which it gathers through without a conversion.

Each RY gate of a later layer is one uniform step on two buffers. The state
is copied into the other buffer with its index rotated right by one bit, so
the qubit about to be rotated becomes the top bit and its amplitude pairs
are the two contiguous halves of the array. The gate then updates the
halves in place, with the rotation's source buffer as scratch:
``c * a0 + (-s * a1)`` and ``c * a1 + s * a0`` are bit for bit the products
and sums of ``c * a0 - s * a1`` and ``s * a0 + c * a1``. After the N gates of
a layer the index has turned once round and is in the standard layout
again. Memory bounds building at N <= 24: two state buffers of 8 B per
amplitude, plus the cached map at 8 B per amplitude (kept for the life of
the process), 384 MiB in all at N = 24.

Sampling inverts the CDF of the Born probabilities, on exactly the stream
of ``Generator.choice``. The indices go into an ``out`` array that a caller
can reuse from call to call. With at least 2^N shots a guide table resolves
the draws in fixed chunks, each filled by ``rng.random(out=)``, which
continues the generator's stream as one ``rng.random(shots)`` would; its
temporaries are chunk-sized, so a 100 000-shot call allocates nothing
shots-sized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qubo import QuboInstance, bits_to_index

MAX_QUBITS = 24
#: Draws resolved per pass of the guide table: small enough that a pass's
#: temporaries stay in L2, large enough to amortize the per-pass calls.
_CHUNK = 1 << 13


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


@functools.lru_cache(maxsize=None)
def _entangler_source(n: int) -> np.ndarray:
    """Read-only intp gather map of the entangler: ``src[y]`` is the x whose
    amplitude the chain moves to ``y = x ^ ((x << 1) & (2^N - 1))``.

    Bit i of y is x_i XOR x_(i-1), so bit i of x is the XOR of y's bits 0..i:
    a prefix XOR, formed in log2(N) doubling steps on the index itself.
    """
    src = np.arange(1 << n, dtype=np.intp)
    shift = 1
    while shift < n:
        src ^= (src << shift) & ((1 << n) - 1)
        shift *= 2
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
    # and its sin part (bit i = 1), the same products an RY gate would form.
    state = np.empty(1 << n, dtype=np.float64)
    state[0] = 1.0
    for i in range(n):
        half = float(theta[i]) / 2.0
        built = state[: 1 << i]
        np.multiply(built, math.sin(half), out=state[1 << i : 2 << i])
        built *= math.cos(half)
    # No view may outlive its buffer's turn as scratch: each gather below
    # frees the last layer's scratch before it allocates, so that a build
    # holds two state buffers at a time.
    del built
    h = 1 << (n - 1)
    for layer in range(1, spec.reps + 1):
        other = state
        state = state[_entangler_source(n)]
        for i in range(n):
            half = float(theta[layer * n + i]) / 2.0
            c, s = math.cos(half), math.sin(half)
            # Rotate the index right by one bit: after i + 1 rotations qubit i
            # is the top bit, so its pairs are the two contiguous halves.
            np.copyto(other.reshape(2, h), state.reshape(h, 2).T)
            state, other = other, state
            pair = state.reshape(2, h)
            np.multiply(pair[::-1], [[-s], [s]], out=other.reshape(2, h))
            pair *= c
            pair += other.reshape(2, h)
        # N rotations bring the index back to the standard layout.

    assert abs(float(np.dot(state, state)) - 1.0) < 1e-10, "norm drifted"
    return state


def _born_probabilities(state: np.ndarray) -> tuple[np.ndarray, float]:
    """Born-rule probabilities and their total, summed once for both the
    normalization check and the callers that rescale by it."""
    p = np.square(state)
    total = float(p.sum())
    assert abs(total - 1.0) < 1e-10, f"state not normalized: sum p = {total}"
    return p, total


def exact_probabilities(state: np.ndarray) -> np.ndarray:
    """Born-rule outcome probabilities, indexed by basis index."""
    return _born_probabilities(state)[0]


def sample_bitstrings(
    state: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw measurement outcomes from a state as an array of basis indices.

    Consumes exactly ``shots`` uniforms from ``rng.random`` and returns the
    same int64 indices as ``rng.choice(len(p), size=shots, p=p / p.sum())``
    with p the Born probabilities, leaving the generator in the same state:
    each draw u maps to the number of CDF entries <= u. Fewer draws than
    outcomes are searched in sorted order and returned in draw order, so
    each index stays at the position of its uniform. More go through a guide
    table in chunks of ``_CHUNK`` draws, each filled by ``rng.random(out=)``,
    which continues the same stream, so the temporaries stay chunk-sized.
    The indices are written into ``out`` (a length-``shots`` ``intp``
    array) and ``out`` is returned; without it a new array is. Identical
    (state, shots, generator state) yields identical samples; use
    index_to_bits for the tuple form of an outcome.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    cdf, total = _born_probabilities(state)
    cdf /= total
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    idx = np.empty(shots, dtype=np.intp) if out is None else out
    if shots < len(cdf):
        # Sorted keys walk the CDF forward, each search starting from the last
        # one's answer; the result goes back to draw order.
        u = rng.random(shots)
        order = np.argsort(u)
        idx[order] = cdf.searchsorted(u[order], side="right")
        return idx
    # Guide table over k = 2 * 2^N equal buckets of [0, 1). k is a power of
    # two, so u * k and cdf * k are exact and bucket b = floor(u * k) holds
    # the CDF entries in [b / k, (b + 1) / k). The entries below the bucket
    # are all <= u and those above it all exceed u; a bucket holding one
    # entry needs one comparison, and a fuller one a binary search. An empty
    # bucket's next entry lies above it, so the comparison is False there.
    k = 2 * len(cdf)
    count = np.bincount((cdf * k).astype(np.intp), minlength=k + 1)
    below = np.cumsum(count) - count
    multi = count > 1
    u = np.empty(min(shots, _CHUNK))
    for lo in range(0, shots, _CHUNK):
        uc = u[: min(_CHUNK, shots - lo)]
        rng.random(out=uc)
        b = (uc * k).astype(np.intp)
        # Indices are in range by construction; mode="raise" would copy out.
        chunk = below.take(b, out=idx[lo : lo + len(uc)], mode="clip")
        chunk += cdf[chunk] <= uc
        many = multi[b]
        chunk[many] = cdf.searchsorted(uc[many], side="right")
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
    p, total = _born_probabilities(state)
    indices = np.fromiter((bits_to_index(m) for m in q.minimizers), dtype=np.int64)
    # Rescale by the realized total mass: removes ~1e-16 normalization drift,
    # and a fully degenerate instance (every bitstring minimal) gives exactly 1.
    value = float(p[indices].sum()) / total
    assert -1e-12 <= value <= 1.0 + 1e-12
    return min(max(value, 0.0), 1.0)
