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
are the two contiguous halves of the array. The gate then writes ``-s * a1``
and ``s * a0`` into the halves of the rotation's source buffer, scales the
state by ``c`` and adds the two: ``c * a0 + (-s * a1)`` and ``c * a1 + s * a0``
are bit for bit the products and sums of ``c * a0 - s * a1`` and
``s * a0 + c * a1``. That is five numpy calls per gate on views made once
per build. After the N gates of a layer the index has turned once round
and is in the standard layout again.

R angle vectors, an ``(R, k)`` array, are built together in the same numpy
calls over ``(R, 2^N)`` buffers: each state is a row, rotated and halved
within itself, and each gate's cos and sin are an ``(R, 1)`` column of the
rows' values, so row r holds the bits of the single build of its angles.
Lockstep runs build their states this way, R at the price of about one.
One vector is a single row, whose angles stay Python floats.

Memory bounds building and sampling at N <= 24. A build works in two state
buffers of 8 B per amplitude and gathers through the cached map, another 8 B
per amplitude kept for the life of the process. This module keeps each
thread's working memory and reuses it from call to call while N stays the
same: the state pair of ``state_buffers``, grown to the most rows a batch
has asked for, whose buffer not holding the state being sampled takes the
CDF, and, from 0.4 * 2^N shots up, a guide
table of 2 * 2^N + 1 buckets at 8 B per bucket, plus an 8 B count per
bucket allocated for each call. At N = 24 the two state buffers take
256 MiB and only from 0.4 * 2^24 shots (6.7M) up does the guide table add
256 MiB, plus its 256 MiB of counts during a call. The map adds 128 MiB per
process, and the mask of global minimizers that ``exact_p_min`` reads, kept
by its caller, 1 B per amplitude (16 MiB).

Sampling inverts the CDF of the Born probabilities, on exactly the stream
of ``Generator.choice``. The draws are resolved in fixed chunks, each
filled by ``rng.random(out=)``, which continues the generator's stream as
one ``rng.random(shots)`` would: below 0.4 * 2^N shots each chunk is
searched in sorted order, and from there up through the guide table, whose
bucket indices are gathered over in place. The other temporaries (uniforms,
CDF probes, flags) are chunk-sized, so the only shots-sized array is the
indices, in an ``out`` array that a caller can reuse from call to call.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .qubo import MAX_QUBITS

#: Draws resolved per pass of the guide table: small enough that a pass's
#: temporaries stay in L2, large enough to amortize the per-pass calls.
_CHUNK = 1 << 13

# Each thread's working memory for the last size it used, reused by the next
# call instead of being freed and faulted back in. Each entry is kept as
# (key, arrays) and replaced when a call needs another key.
_workspace = threading.local()


def _reused(name: str, key, make):
    held = getattr(_workspace, name, None)
    if held is None or held[0] != key:
        held = (key, make())
        setattr(_workspace, name, held)
    return held[1]


def _state_pair(size: int, rows: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two ``float64`` buffers of at least ``rows`` rows of
    ``size`` amplitudes, kept while the size stays and grown when more rows
    are asked for."""
    held = getattr(_workspace, "states", None)
    if held is None or held[0].shape[1] != size or len(held[0]) < rows:
        held = _workspace.states = (np.empty((rows, size)), np.empty((rows, size)))
    return held


def state_buffers(
    n_qubits: int, rows: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """This thread's pair of 2^N ``float64`` state buffers for
    ``build_statevector``, kept for the next call at the same N: two 2^N
    arrays, or with ``rows`` two ``(rows, 2^N)`` arrays for as many states.
    Their contents are this thread's scratch: any later ``sample_bitstrings``
    or ``exact_p_min`` call on the thread may overwrite the buffer not
    holding the state it is given."""
    pair = _state_pair(1 << n_qubits, rows or 1)
    return tuple(b[0] if rows is None else b[:rows] for b in pair)


def _scratch(state: np.ndarray) -> np.ndarray:
    """This thread's state-sized ``float64`` buffer that shares no memory
    with ``state``: a row of the spare one for a state built in
    ``state_buffers``, of the pair's first one for any other state."""
    pair = _state_pair(len(state))
    return pair[1][0] if np.may_share_memory(state, pair[0]) else pair[0][0]


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
    # A read-only view: ``take`` copies an index array it may not write to,
    # so the build gathers through the view's base instead.
    view = src.view()
    view.flags.writeable = False
    return view


def build_statevector(
    spec: AnsatzSpec,
    params: np.ndarray,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Statevector prepared by the ansatz from |0...0> for one angle vector,
    or the ``(R, 2^N)`` states of an ``(R, k)`` array of them, row by row.

    All R states are built in one pass of the same numpy calls, each gate's
    cos and sin taken per row as an ``(R, 1)`` column, so row r holds the
    bits of the single build of ``params[r]``. The build works in two state
    buffers: ``buffers``, a pair of arrays of the states' shape that a
    caller can reuse from call to call, or two new arrays without it. The
    state is returned in one of them; the other is left as scratch.
    """
    n = spec.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"n_qubits {n} exceeds the simulator bound {MAX_QUBITS}")
    k = spec.num_parameters
    theta = np.asarray(params, dtype=np.float64)
    if theta.ndim not in (1, 2) or theta.shape[-1] != k or theta.size == 0:
        raise ValueError(f"expected {k} parameters for {spec}, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("parameters must be finite")
    if buffers is None:
        buffers = tuple(np.empty((*theta.shape[:-1], 1 << n)) for _ in range(2))
    rows = theta.size // k
    # Each half-angle as a Python float, the same quotient as float(t) / 2.0,
    # and its cos and sin by ``math``, gate by gate.
    halves = (theta / 2.0).T.ravel().tolist()
    cos = [math.cos(x) for x in halves]
    sin = [math.sin(x) for x in halves]
    if rows > 1:
        # A gate's angles for several rows are an (R, 1) column. One row keeps
        # Python floats: a (1, 1) column makes numpy broadcast on every call,
        # about 35% more per build at N = 6 and 5% at N = 16.
        cos, sin = (np.array(v).reshape(k, rows, 1) for v in (cos, sin))
        neg_sin = -sin
    else:
        neg_sin = [-x for x in sin]
    h = 1 << (n - 1)

    # Each buffer with the views a gate reads and writes, made once per build:
    # (the buffer as given, its states as rows, their two halves, their index
    # rotated right by one bit, their low halves, their high halves).
    def views(b):
        m = b.reshape(rows, 1 << n)
        return b, m, m.reshape(rows, 2, h), m.reshape(rows, h, 2).swapaxes(1, 2), m[:, :h], m[:, h:]

    cur, spare = views(buffers[0]), views(buffers[1])
    # Layer 0 acts on |0...0>, so it prepares a product state: qubit i splits
    # each of the 2^i amplitudes built so far into its cos part (bit i = 0)
    # and its sin part (bit i = 1), the same products an RY gate would form.
    state = cur[1]
    state[:, 0] = 1.0
    for i in range(n):
        built = state[:, : 1 << i]
        np.multiply(built, sin[i], out=state[:, 1 << i : 2 << i])
        built *= cos[i]
    for layer in range(1, spec.reps + 1):
        # The map is in range by construction; mode="raise" would copy out.
        cur[1].take(_entangler_source(n).base, axis=1, out=spare[1], mode="clip")
        cur, spare = spare, cur
        gates = slice(layer * n, (layer + 1) * n)
        for c, s, neg_s in zip(cos[gates], sin[gates], neg_sin[gates]):
            # Rotate the index right by one bit: the gate's qubit becomes the
            # top bit, so its pairs are the two contiguous halves.
            np.copyto(spare[2], cur[3])
            cur, spare = spare, cur
            _, state, _, _, low, high = cur
            np.multiply(high, neg_s, out=spare[4])
            np.multiply(low, s, out=spare[5])
            state *= c
            state += spare[1]
        # N rotations bring the index back to the standard layout.
    return cur[0]


def _born_probabilities(
    state: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Born-rule probabilities, in ``out`` if given, and their total, summed
    once for both the normalization check and the callers that rescale by it."""
    p = np.square(state, out=out)
    total = float(np.add.reduce(p))
    if not abs(total - 1.0) < 1e-10:  # NaN too, and not lost under ``python -O``
        raise ValueError(f"state not normalized: sum p = {total}")
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
    each draw u maps to the number of CDF entries <= u. The draws are
    resolved in chunks of ``_CHUNK``, each filled by ``rng.random(out=)``,
    which continues the same stream, so the temporaries stay chunk-sized.
    Fewer draws than 0.4 * 2^N are searched in sorted order and scattered
    back in draw order, so each index stays at the position of its uniform;
    more go through a guide table, the faster of the two from there up at
    N = 12 to 16.

    The indices go into ``out`` (a writable ``(shots,)`` ``intp`` array that a
    caller can reuse from call to call; any other is refused before a uniform
    is drawn), which is returned, or into a new array without it. The CDF and
    the guide table live in this thread's working memory: the CDF in the
    state-sized buffer of ``state_buffers`` not holding ``state``. Identical
    (state, shots, generator state) yields identical samples; use
    index_to_bits for the tuple form of an outcome.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if out is not None and (
        out.dtype != np.intp or out.shape != (shots,) or not out.flags.writeable
    ):
        raise ValueError(f"out must be writable ({shots},) intp, got {out.dtype} {out.shape}")
    cdf, total = _born_probabilities(state, out=_scratch(state))
    cdf /= total
    cdf.cumsum(out=cdf)
    cdf /= cdf[-1]
    idx = np.empty(shots, dtype=np.intp) if out is None else out
    d = len(cdf)
    u = np.empty(min(shots, _CHUNK))
    guided = 5 * shots >= 2 * d
    if guided:
        # Guide table over k = 2 * 2^N equal buckets of [0, 1). k is a power of
        # two, so u * k and cdf * k are exact: the CDF entries below bucket
        # b = floor(u * k) are <= u and those past it exceed u. A draw maps to
        # the first entry > u from ``below[b]``, the count below bucket b, on.
        # bincount reads the keys before ``below`` is written over them.
        k = 2 * d
        below = _reused("guide", d, lambda: np.empty(k + 1, dtype=np.intp))
        keys = np.multiply(cdf, k, out=below[:d], casting="unsafe")
        np.bincount(keys, minlength=k + 1)[:k].cumsum(out=below[1:])
        below[0] = 0
        entries, flags = np.empty(len(u)), np.empty(len(u), dtype=bool)
    for lo in range(0, shots, _CHUNK):
        uc = u[: min(_CHUNK, shots - lo)]
        rng.random(out=uc)
        chunk = idx[lo : lo + len(uc)]
        if not guided:
            # Sorted keys walk the CDF forward, each search starting from the
            # last one's answer; the scatter restores draw order.
            order = uc.argsort()
            chunk[order] = cdf.searchsorted(uc[order], side="right")
            continue
        # Truncated on the cast from float64, as ``(uc * k).astype(np.intp)``
        # would. ``take`` reads each in-range bucket index before writing its
        # start over it; mode="raise" would copy out.
        np.multiply(uc, k, out=chunk, casting="unsafe")
        below.take(chunk, out=chunk, mode="clip")
        # Step past the bucket's first entry where it is <= u, and search only
        # the few draws whose next entry is <= u too. None passes the last, 1.0.
        entry, flag = entries[: len(uc)], flags[: len(uc)]
        chunk += np.less_equal(cdf.take(chunk, out=entry, mode="clip"), uc, out=flag)
        many = np.less_equal(cdf.take(chunk, out=entry, mode="clip"), uc, out=flag).nonzero()[0]
        chunk[many] = cdf.searchsorted(uc[many], side="right")
    return idx


def exact_p_min(state: np.ndarray, is_minimal: np.ndarray) -> float:
    """Exact probability of measuring a global-minimum bitstring.

    ``is_minimal`` is brute_force_minimum's mask over basis indices, and one
    not ``bool`` or of another length than the state is refused. Computed
    from the statevector, not estimated from shots, so it carries no sampling
    noise. The Born probabilities go into this thread's state-sized buffer of
    ``state_buffers`` not holding ``state``.
    """
    if is_minimal.dtype != bool:
        raise ValueError(f"the mask must be bool, got {is_minimal.dtype}")
    if len(is_minimal) != len(state):
        raise ValueError(f"state dimension {len(state)} does not match mask of {len(is_minimal)}")
    p, total = _born_probabilities(state, out=_scratch(state))
    # Rescale by the realized total mass: removes ~1e-16 normalization drift,
    # and a fully degenerate instance (every bitstring minimal) gives exactly 1.
    value = float(p[is_minimal].sum()) / total
    assert -1e-12 <= value <= 1.0 + 1e-12
    return min(max(value, 0.0), 1.0)
