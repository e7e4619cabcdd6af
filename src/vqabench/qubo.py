"""QUBO instances: cost evaluation, brute-force global minima, seeded random generation.

A QUBO problem of dimension N is a symmetric real matrix Q; the cost of a
binary vector x is x^T Q x (off-diagonal pairs counted twice through the full
double sum). Bitstrings are tuples of 0/1 ints where bit i is variable x_i,
and map to integer basis indices via ``index = sum(x_i * 2**i)`` (bit 0 is the
least significant bit). The same convention is used by the circuit simulator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

BitString = tuple[int, ...]

#: Largest dimension all_costs, and so brute_force_minimum, will enumerate
#: (~16M bitstrings).
DEFAULT_EXHAUSTIVE_LIMIT = 24

#: Loading rejects matrices with max |Q[i,j] - Q[j,i]| above this.
SYMMETRY_TOLERANCE = 1e-12

_ENUM_CHUNK = 1 << 16


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
    seed: int | None = field(default=None, compare=False)
    value_range: tuple[float, float] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"matrix must be square and non-empty, got shape {m.shape}")
        skew = float(np.max(np.abs(m - m.T))) if m.size else 0.0
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


def _bit_block(indices: np.ndarray, dimension: int) -> np.ndarray:
    """(len(indices), dimension) float matrix of bit values, LSB first."""
    return ((indices[:, None] >> np.arange(dimension)) & 1).astype(np.float64)


def all_costs(q: QuboInstance) -> np.ndarray:
    """Costs of every bitstring, indexed by basis index. O(2^N) memory, so a
    dimension above DEFAULT_EXHAUSTIVE_LIMIT is refused."""
    n = q.dimension
    if n > DEFAULT_EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"dimension {n} exceeds the exhaustive enumeration limit {DEFAULT_EXHAUSTIVE_LIMIT}"
        )
    out = np.empty(1 << n, dtype=np.float64)
    for start in range(0, 1 << n, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, 1 << n)
        bits = _bit_block(np.arange(start, stop, dtype=np.int64), n)
        out[start:stop] = np.einsum("ij,jk,ik->i", bits, q.matrix, bits)
    return out


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
    return QuboInstance(matrix=m, seed=int(seed), value_range=(lo, hi))


def save_qubo(q: QuboInstance, path: str) -> None:
    """Write an instance to JSON (full dense matrix; see load_qubo)."""
    doc: dict = {"dimension": q.dimension, "matrix": q.matrix.tolist()}
    if q.seed is not None:
        doc["seed"] = q.seed
    if q.value_range is not None:
        doc["value_range"] = list(q.value_range)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_qubo(path: str) -> QuboInstance:
    """Read an instance from JSON, rejecting asymmetric matrices.

    Expected schema: ``{"dimension": N, "matrix": [[...], ...]}`` with
    optional ``seed`` and ``value_range`` fields. The full dense matrix is
    stored rather than a triangle so files round-trip unambiguously.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    m = np.array(doc["matrix"], dtype=np.float64)
    if m.shape != (doc["dimension"], doc["dimension"]):
        raise ValueError(
            f"matrix shape {m.shape} does not match declared dimension {doc['dimension']}"
        )
    vr = doc.get("value_range")
    return QuboInstance(
        matrix=m,
        seed=doc.get("seed"),
        value_range=tuple(vr) if vr is not None else None,
    )
