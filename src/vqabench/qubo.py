"""QUBO instances: cost evaluation, brute-force global minima, seeded random generation.

A QUBO problem of dimension N is a symmetric real matrix Q; the cost of a
binary vector x is x^T Q x (off-diagonal pairs counted twice through the full
double sum). Bitstrings are tuples of 0/1 ints where bit i is variable x_i,
and map to integer basis indices via ``index = sum(x_i * 2**i)`` (bit 0 is the
least significant bit). The same convention is used by the circuit simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

BitString = tuple[int, ...]

#: Largest dimension of any 2^N array: all_costs (and so brute_force_minimum)
#: will not enumerate more bitstrings, nor the simulator build more amplitudes
#: (~16M of either).
MAX_QUBITS = 24

#: Loading rejects matrices with max |Q[i,j] - Q[j,i]| above this.
SYMMETRY_TOLERANCE = 1e-12


def bits_to_index(bits: BitString) -> int:
    """Basis index of a bitstring (bit i weighted 2**i)."""
    idx = 0
    for i, b in enumerate(bits):
        idx |= int(b) << i
    return idx


def index_to_bits(index: int, dimension: int) -> BitString:
    """Bitstring of a basis index (inverse of bits_to_index)."""
    return tuple((index >> i) & 1 for i in range(dimension))


@dataclass
class QuboInstance:
    """A symmetric QUBO matrix plus, once computed, its global-minimum data.

    ``min_cost`` and ``minimizers`` start unset and are populated by
    brute_force_minimum. Instances are treated as immutable after that point
    and are safe to share across concurrent runs.
    """

    matrix: np.ndarray
    min_cost: float | None = None
    minimizers: tuple[BitString, ...] | None = None

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"matrix must be square and non-empty, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix is not finite: it holds NaN or infinite entries")
        skew = float(np.max(np.abs(m - m.T)))
        if skew > SYMMETRY_TOLERANCE:
            raise ValueError(f"matrix is not symmetric: max |Q[i,j] - Q[j,i]| = {skew:g}")
        m.setflags(write=False)
        self.matrix = m

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def evaluate(q: QuboInstance, x: BitString | np.ndarray) -> float:
    """Cost x^T Q x of one bitstring."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (q.dimension,):
        raise ValueError(f"bitstring length {v.shape} does not match dimension {q.dimension}")
    return float(v @ q.matrix @ v)


def check_enumerable(dimension: int) -> None:
    """Refuse a dimension above MAX_QUBITS, whose 2^N costs are not enumerated."""
    if dimension > MAX_QUBITS:
        raise ValueError(
            f"dimension {dimension} exceeds the exhaustive enumeration limit {MAX_QUBITS}"
        )


def all_costs(q: QuboInstance) -> np.ndarray:
    """Costs of every bitstring, indexed by basis index. O(2^N) memory, so a
    dimension above MAX_QUBITS is refused.

    Summation order (part of the determinism contract): each cost starts at
    +0.0 and adds Q[j, k] for every pair (j, k) with x_j = x_k = 1, in
    lexicographic (j, k) order. That is the order in which
    ``np.einsum("ij,jk,ik->i", bits, Q, bits)`` sums one row's terms; its
    other terms are +-0.0, and adding +-0.0 changes no bit of a sum of finite
    terms that starts at +0.0 (such a sum is never -0.0), so both give the
    same table byte for byte. Each pair is one in-place add on the n-d view
    of the table in which both bits are 1 (axis N-1-i holds bit i), so the
    set-up allocates nothing of the table's size beside it.
    """
    n = q.dimension
    check_enumerable(n)
    acc = np.zeros((2,) * n, dtype=np.float64)
    for j, row in enumerate(q.matrix.tolist()):
        for k, value in enumerate(row):
            view = [slice(None)] * n
            view[n - 1 - j] = view[n - 1 - k] = 1
            acc[tuple(view)] += value
    return acc.reshape(-1)


def brute_force_minimum(
    q: QuboInstance, *, costs: np.ndarray | None = None
) -> tuple[float, tuple[BitString, ...]]:
    """Exhaustive global minimum of a QUBO instance.

    Enumerates all 2^N bitstrings, returns the minimum cost and every
    bitstring whose cost is within ``1e-9 * max(1, |min|)`` of it (relative
    tolerance keeps degenerate-minimum detection stable for real-valued
    matrices). Also populates ``q.min_cost`` and ``q.minimizers``; the
    minimizers are sorted by basis index. Deterministic. ``costs``, if given,
    is ``all_costs(q)`` already computed, and is used instead of a new table.
    """
    if costs is None:
        costs = all_costs(q)
    min_cost = float(costs.min())
    tol = 1e-9 * max(1.0, abs(min_cost))
    hits = np.nonzero(costs <= min_cost + tol)[0]
    minimizers = tuple(index_to_bits(int(i), q.dimension) for i in hits)
    q.min_cost = min_cost
    q.minimizers = minimizers
    return min_cost, minimizers


def random_qubo(
    dimension: int, seed: int, value_range: tuple[float, float] = (-10.0, 10.0)
) -> QuboInstance:
    """Seeded random symmetric QUBO with entries uniform over value_range.

    Entries for i <= j are drawn from a PCG64 stream and mirrored below the
    diagonal, so identical (dimension, seed, value_range) arguments always
    reproduce the same matrix bit-for-bit.
    """
    lo, hi = float(value_range[0]), float(value_range[1])
    if not lo < hi:
        raise ValueError(f"invalid value range: lo={lo} must be < hi={hi}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(dimension)
    m = np.zeros((dimension, dimension), dtype=np.float64)
    m[iu] = rng.uniform(lo, hi, size=len(iu[0]))
    m.T[iu] = m[iu]
    return QuboInstance(matrix=m)


def save_qubo(q: QuboInstance, path: str) -> None:
    """Write an instance to JSON (full dense matrix; see load_qubo)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dimension": q.dimension, "matrix": q.matrix.tolist()}, fh)
        fh.write("\n")


def load_qubo(path: str) -> QuboInstance:
    """Read an instance from JSON, rejecting asymmetric matrices.

    Expected schema: ``{"dimension": N, "matrix": [[...], ...]}``; other keys
    are ignored. The full dense matrix is stored rather than a triangle so
    files round-trip unambiguously.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    m = np.array(doc["matrix"], dtype=np.float64)
    if m.shape != (doc["dimension"], doc["dimension"]):
        raise ValueError(
            f"matrix shape {m.shape} does not match declared dimension {doc['dimension']}"
        )
    return QuboInstance(matrix=m)
