"""Tests for the statevector builder, sampling, and exact success probability.

The reference oracle builds the full 2^N x 2^N circuit unitary from Kronecker
products and explicit CNOT permutation matrices, a completely separate code
path from the rotation steps and entangler index map under test. Two more
oracles pin the fast paths bit for bit: the gate-by-gate build (every RY
layer as a stride update, the entangler as a scatter) and ``Generator.choice``
for the sampler's draws and generator stream.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from vqabench import circuit
from vqabench.circuit import (
    _CHUNK,
    AnsatzSpec,
    _born_probabilities,
    _entangler_source,
    build_statevector,
    exact_p_min,
    exact_probabilities,
    sample_bitstrings,
    state_buffers,
)
from vqabench.qubo import MAX_QUBITS, QuboInstance, brute_force_minimum, index_to_bits, random_qubo


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


def single_qubit_unitary(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    # index = sum x_i 2^i, so high bits are the leading kron factor
    return np.kron(np.eye(2 ** (n - 1 - qubit)), np.kron(gate, np.eye(2**qubit)))


def cnot_unitary(control: int, target: int, n: int) -> np.ndarray:
    u = np.zeros((2**n, 2**n))
    for j in range(2**n):
        out = j ^ (((j >> control) & 1) << target)
        u[out, j] = 1.0
    return u


def reference_statevector(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """Oracle: multiply explicit gate matrices onto |0...0>."""
    n = spec.n_qubits
    state = np.zeros(2**n)
    state[0] = 1.0
    for layer in range(spec.reps + 1):
        if layer > 0:
            for i in range(n - 2, -1, -1):
                state = cnot_unitary(i, i + 1, n) @ state
        for i in range(n):
            state = single_qubit_unitary(ry_matrix(params[layer * n + i]), i, n) @ state
    return state


def per_gate_statevector(spec: AnsatzSpec, params: np.ndarray) -> np.ndarray:
    """Oracle: every RY gate as an in-place stride update from |0...0>, and the
    entangler as a scatter of amplitude x to x ^ ((x << 1) & (2^N - 1))."""
    n = spec.n_qubits
    state = np.zeros(1 << n)
    state[0] = 1.0
    x = np.arange(1 << n)
    entangler = x ^ ((x << 1) & ((1 << n) - 1))
    for layer in range(spec.reps + 1):
        if layer > 0:
            state[entangler] = state.copy()
        for i in range(n):
            angle = float(params[layer * n + i])
            c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
            psi = state.reshape(-1, 2, 1 << i)
            a0 = psi[:, 0, :].copy()
            psi[:, 0, :] = c * a0 - s * psi[:, 1, :]
            psi[:, 1, :] = s * a0 + c * psi[:, 1, :]
    return state


def choice_oracle(state: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Oracle: numpy's own weighted draw over the Born probabilities."""
    p = exact_probabilities(state)
    return rng.choice(len(p), size=shots, p=p / p.sum())


class TestAnsatzSpec:
    @pytest.mark.parametrize("n_qubits, reps, named", [(0, 1, "n_qubits"), (2, -1, "reps")])
    def test_shape_range_enforced(self, n_qubits, reps, named):
        with pytest.raises(ValueError, match=named):
            AnsatzSpec(n_qubits=n_qubits, reps=reps)


class TestBuildStatevector:
    def test_zero_angles_leave_vacuum(self):
        spec = AnsatzSpec(n_qubits=3, reps=2)
        state = build_statevector(spec, np.zeros(spec.num_parameters))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(state, expected, atol=1e-14)

    def test_pi_rotation_flips_single_qubit(self):
        state = build_statevector(AnsatzSpec(1, 0), np.array([math.pi]))
        assert np.allclose(state, [0.0, 1.0], atol=1e-14)

    def test_half_pi_rotation_balances_single_qubit(self):
        state = build_statevector(AnsatzSpec(1, 0), np.array([math.pi / 2]))
        assert np.allclose(state, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)

    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError, match="parameters"):
            build_statevector(AnsatzSpec(2, 1), np.zeros(3))

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build_statevector(AnsatzSpec(2, 0), np.array([0.0, math.nan]))

    def test_refuses_more_qubits_than_the_bound(self):
        # Raises before any 2^N array is allocated: 2^25 amplitudes are 256 MiB.
        spec = AnsatzSpec(MAX_QUBITS + 1, 0)
        with pytest.raises(ValueError, match="simulator bound"):
            build_statevector(spec, np.zeros(spec.num_parameters))

    @pytest.mark.parametrize("n,reps", [(2, 1), (3, 1), (4, 2), (5, 1)])
    def test_matches_dense_matrix_oracle(self, n, reps):
        spec = AnsatzSpec(n, reps)
        rng = np.random.default_rng(n * 100 + reps)
        params = rng.uniform(-math.pi, math.pi, spec.num_parameters)
        state = build_statevector(spec, params)
        assert np.allclose(state, reference_statevector(spec, params), atol=1e-12)

    def test_entangler_order_matters_and_is_fixed(self):
        # Reversing the CNOT chain changes the state for this angle choice,
        # so agreement with the oracle pins the descending-control order.
        spec = AnsatzSpec(3, 1)
        params = np.array([0.7, -0.3, 1.1, 0.2, 0.9, -1.4])
        state = build_statevector(spec, params)

        n = spec.n_qubits
        forward = np.zeros(2**n)
        forward[0] = 1.0
        for i in range(n):
            forward = single_qubit_unitary(ry_matrix(params[i]), i, n) @ forward
        for i in range(n - 1):  # ascending control order instead
            forward = cnot_unitary(i, i + 1, n) @ forward
        for i in range(n):
            forward = single_qubit_unitary(ry_matrix(params[n + i]), i, n) @ forward

        assert np.allclose(state, reference_statevector(spec, params), atol=1e-12)
        assert not np.allclose(state, forward, atol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_real_and_normalized(self, seed):
        spec = AnsatzSpec(4, 1)
        rng = np.random.default_rng(seed)
        state = build_statevector(spec, rng.uniform(-4, 4, spec.num_parameters))
        assert state.dtype == np.float64
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-10


    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_equals_per_gate_build_bit_for_bit(self, n, reps, seed):
        spec = AnsatzSpec(n, reps)
        params = np.random.default_rng(seed).uniform(-7, 7, spec.num_parameters)
        assert np.array_equal(build_statevector(spec, params), per_gate_statevector(spec, params))

    @pytest.mark.parametrize("n,reps", [(15, 1), (15, 2), (16, 1), (16, 2), (16, 3)])
    def test_equals_per_gate_build_at_paper_size(self, n, reps):
        spec = AnsatzSpec(n, reps)
        params = np.random.default_rng(n * 10 + reps).uniform(-7, 7, spec.num_parameters)
        assert np.array_equal(build_statevector(spec, params), per_gate_statevector(spec, params))

    @pytest.mark.parametrize("rows", [1, 2, 17])
    @pytest.mark.parametrize("reps", range(4))
    def test_batched_rows_equal_single_builds_bit_for_bit(self, reps, rows):
        # Lockstep runs build their states as one batch; each row must hold
        # the bits of its own single build, or the records would move.
        rng = np.random.default_rng(10 * reps + rows)
        for n in range(1, 11):
            spec = AnsatzSpec(n, reps)
            params = rng.uniform(-7, 7, (rows, spec.num_parameters))
            singles = [build_statevector(spec, p).tobytes() for p in params]
            fresh = build_statevector(spec, params)
            lent = build_statevector(spec, params, buffers=state_buffers(n, rows))
            assert fresh.shape == lent.shape == (rows, 1 << n)
            assert [row.tobytes() for row in fresh] == singles
            assert [row.tobytes() for row in lent] == singles

    def test_batched_build_refuses_a_bad_shape_or_a_non_finite_row(self):
        spec = AnsatzSpec(3, 1)
        for params in (np.zeros((2, 5)), np.zeros((2, 2, 6)), np.zeros((0, 6))):
            with pytest.raises(ValueError, match="parameters"):
                build_statevector(spec, params)
        params = np.zeros((3, 6))
        params[1, 4] = math.inf
        with pytest.raises(ValueError, match="finite"):
            build_statevector(spec, params)

    def test_state_buffers_keep_one_pair_for_every_row_count(self):
        # A block's last build asks for fewer rows than its first, and its
        # final builds for one state: all are views of the same pair.
        wide = state_buffers(5, 16)
        assert [b.shape for b in wide] == [(16, 32), (16, 32)]
        for rows in (4, 1, None):
            pair = state_buffers(5, rows)
            assert all(np.shares_memory(a, b) for a, b in zip(pair, wide))
        assert [b.shape for b in state_buffers(5)] == [(32,), (32,)]

    def test_entangler_map_is_cached_read_only_inverse(self):
        for n in (1, 2, 5, 6):
            src = _entangler_source(n)
            assert src is _entangler_source(n)
            assert src.dtype == np.intp
            with pytest.raises(ValueError, match="read-only"):
                src[0] = 1
            # src inverts the chain: the amplitude it moves from x to y is
            # gathered back from x.
            x = np.arange(1 << n)
            assert np.array_equal(src[x ^ ((x << 1) & ((1 << n) - 1))], x)

    @pytest.mark.parametrize("reps", [1, 2])
    def test_build_holds_two_state_buffers(self, reps):
        # Without lent buffers a build allocates its two state buffers and
        # nothing else of state size: the entangler gathers into the spare one.
        spec = AnsatzSpec(16, reps)
        params = np.random.default_rng(7).uniform(-7, 7, spec.num_parameters)
        _entangler_source(16)  # cached for the process, not part of a build
        tracemalloc.start()
        try:
            build_statevector(spec, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * (1 << 16) * 8


class TestExactProbabilities:
    def test_vacuum_is_point_mass(self):
        state = build_statevector(AnsatzSpec(3, 1), np.zeros(6))
        p = exact_probabilities(state)
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(p[1:] < 1e-12)

    def test_balanced_state_splits_evenly(self):
        state = np.array([1, 1]) / math.sqrt(2)
        assert np.allclose(exact_probabilities(state), [0.5, 0.5])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        spec = AnsatzSpec(5, 1)
        state = build_statevector(spec, rng.uniform(-3, 3, spec.num_parameters))
        assert exact_probabilities(state).sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("size", [1, 7, 9, 129, 100_000])
    def test_total_equals_the_sum_it_replaced(self, size):
        # The total is ``np.add.reduce``, bit for bit the ``sum`` it replaced.
        state = np.random.default_rng(size).normal(size=size)
        state /= math.sqrt(state @ state)
        total = _born_probabilities(state)[1]
        assert total.hex() == float(np.square(state).sum()).hex()

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: sample_bitstrings(s, 10, np.random.default_rng(0)),
            lambda s: sample_bitstrings(s, 1_000, np.random.default_rng(0)),
            lambda s: exact_p_min(s, np.ones(len(s), dtype=bool)),
        ],
        ids=["sorted-search", "guide-table", "exact_p_min"],
    )
    @pytest.mark.parametrize("fill", [np.nan, 0.5], ids=["nan", "total-16"])
    def test_unnormalized_state_refused(self, call, fill):
        with pytest.raises(ValueError, match="not normalized"):
            call(np.full(64, fill))

    def test_unnormalized_state_refused_under_python_O(self):
        # ``python -O`` strips asserts, so the check must raise by itself,
        # and NaN must fail it: ``abs(nan - 1.0) < 1e-10`` is false.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from vqabench.circuit import exact_p_min, sample_bitstrings\n"
            "if __debug__:\n"
            "    sys.exit('asserts are on')\n"
            "calls = {\n"
            "    'sorted-search': lambda s: sample_bitstrings(s, 10, np.random.default_rng(0)),\n"
            "    'guide-table': lambda s: sample_bitstrings(s, 1_000, np.random.default_rng(0)),\n"
            "    'exact_p_min': lambda s: exact_p_min(s, np.ones(len(s), dtype=bool)),\n"
            "}\n"
            "for name, call in calls.items():\n"
            "    for fill in (np.nan, 0.5):\n"
            "        try:\n"
            "            call(np.full(64, fill))\n"
            "        except ValueError as err:\n"
            "            if 'not normalized' not in str(err):\n"
            "                sys.exit(f'{name}, {fill}: {err}')\n"
            "        else:\n"
            "            sys.exit(f'{name} took a state of {fill}s')\n"
        )
        src = str(Path(circuit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert done.returncode == 0, done.stderr


class TestSampling:
    def test_point_mass_always_hits(self):
        state = build_statevector(AnsatzSpec(3, 1), np.zeros(6))
        samples = sample_bitstrings(state, 500, np.random.default_rng(0))
        assert np.all(samples == 0)

    def test_balanced_state_frequency(self):
        state = np.array([1.0, 1.0]) / math.sqrt(2)
        samples = sample_bitstrings(state, 100_000, np.random.default_rng(1))
        # binomial 3 sigma at p=0.5, n=1e5 is ~0.0047, well inside 0.01
        assert abs(samples.mean() - 0.5) < 0.01

    def test_same_seed_same_samples(self):
        spec = AnsatzSpec(4, 1)
        state = build_statevector(spec, np.linspace(-1, 1, spec.num_parameters))
        a = sample_bitstrings(state, 1000, np.random.default_rng(99))
        b = sample_bitstrings(state, 1000, np.random.default_rng(99))
        assert np.array_equal(a, b)

    def test_shots_must_be_positive(self):
        state = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="shots"):
            sample_bitstrings(state, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [1, 7, 9, 129, 100_000])
    @pytest.mark.parametrize("n", [1, 6, 12, 16])
    def test_bucket_index_truncates_as_astype(self, size, n):
        # The guide path writes floor(u * k) into an intp buffer with an
        # unsafe cast; it must equal ``(u * k).astype(np.intp)``, also next
        # to bucket edges and just below 1.
        k = 2 << n
        rng = np.random.default_rng(size + n)
        u = rng.random(size)
        edges = rng.integers(0, k, size) / k
        for draws in (u, edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                      np.full(size, np.nextafter(1.0, 0.0))):
            bucket = np.multiply(draws, k, out=np.empty(size, dtype=np.intp), casting="unsafe")
            assert np.array_equal(bucket, (draws * k).astype(np.intp))

    @staticmethod
    def _state(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
        d = 1 << n
        if kind == "point":
            state = np.zeros(d)
            state[rng.integers(d)] = 1.0
        elif kind == "spread":
            state = build_statevector(AnsatzSpec(n, 1), rng.uniform(-math.pi, math.pi, 2 * n))
        elif kind == "zeros":  # exact-zero probabilities, runs of equal CDF entries
            state = rng.uniform(-1, 1, d) * (rng.random(d) < 0.4)
            state[rng.integers(d)] = 0.5
        elif kind == "peaked":  # one outcome carries most of the mass
            state = rng.random(d) ** 8
            state[rng.integers(d)] = 4.0
        else:  # crowded: one dominant amplitude, 2^N - 1 tiny ones and runs of
            # four zeros. The CDF entries before the dominant one all fall in
            # the guide table's first bucket and most after it in its last,
            # hundreds to a bucket at N = 12.
            state = rng.uniform(1e-3, 2e-3, d) / d
            state[np.arange(d) // 4 % 3 == 0] = 0.0
            state[rng.integers(d)] = 1.0
        return state / np.linalg.norm(state)

    @pytest.mark.parametrize("kind", ["point", "zeros", "peaked", "spread", "crowded"])
    @pytest.mark.parametrize("n", [1, 4, 10])
    @pytest.mark.parametrize(
        "shots_of",
        [lambda d: 1, lambda d: d - 1, lambda d: d, lambda d: 3 * d + 1],
        ids=["1", "2^N-1", "2^N", "3*2^N+1"],
    )
    def test_equals_generator_choice_stream(self, kind, n, shots_of):
        rng = np.random.default_rng(n)
        state = self._state(kind, n, rng)
        self._assert_same_stream_as_choice(state, shots_of(1 << n), int(rng.integers(2**63)))

    @pytest.mark.parametrize("kind", ["zeros", "spread"])
    @pytest.mark.parametrize("shots", [10_000, 2**16 - 1])
    def test_equals_generator_choice_stream_at_paper_size(self, kind, shots):
        rng = np.random.default_rng(16)
        state = self._state(kind, 16, rng)
        self._assert_same_stream_as_choice(state, shots, int(rng.integers(2**63)))

    @pytest.mark.parametrize("kind", ["zeros", "spread", "crowded"])
    @pytest.mark.parametrize("n", [6, 12, 16])
    @pytest.mark.parametrize("guided", [False, True], ids=["sorted-search", "guide-table"])
    def test_equals_generator_choice_stream_either_side_of_the_switch(
        self, monkeypatch, kind, n, guided
    ):
        # The guide table takes over from ceil(0.4 * 2^N) shots: 26 at N=6,
        # 1 639 at N=12 and 26 215 at N=16.
        shots = -(-2 * (1 << n) // 5) - (not guided)
        tables = []

        def reused(name, key, make, reused=circuit._reused):
            tables.append(name == "guide")
            return reused(name, key, make)

        monkeypatch.setattr(circuit, "_reused", reused)
        rng = np.random.default_rng(200 + n)
        state = self._state(kind, n, rng)
        self._assert_same_stream_as_choice(state, shots, int(rng.integers(2**63)))
        assert any(tables) == guided

    @pytest.mark.parametrize("kind", ["point", "zeros", "peaked", "spread", "crowded"])
    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize(
        "shots",
        [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5, 100_000],
        ids=["CHUNK-1", "CHUNK", "CHUNK+1", "3*CHUNK+5", "100000"],
    )
    def test_equals_generator_choice_stream_across_chunks(self, kind, n, shots):
        rng = np.random.default_rng(100 + n)
        state = self._state(kind, n, rng)
        self._assert_same_stream_as_choice(state, shots, int(rng.integers(2**63)))

    @pytest.mark.parametrize("n", [6, 12])
    def test_crowded_buckets_reach_the_search(self, n):
        # A guided draw starts at the first CDF entry of its bucket; those
        # that need two or more steps from there are resolved by the search.
        # Counted here from the CDF alone: the entries below bucket b are
        # those < b / k, as cdf * k is exact.
        shots, k = 100_000, 2 << n
        rng = np.random.default_rng(300 + n)
        state = self._state("crowded", n, rng)
        seed = int(rng.integers(2**63))
        p, total = _born_probabilities(state)
        cdf = np.cumsum(p / total)
        cdf /= cdf[-1]
        u = np.random.default_rng(seed).random(shots)
        start = cdf.searchsorted((u * k).astype(np.intp) / k, side="left")
        got = sample_bitstrings(state, shots, np.random.default_rng(seed))
        assert np.count_nonzero(got - start >= 2) > 0
        self._assert_same_stream_as_choice(state, shots, seed)

    @pytest.mark.parametrize("shots", [100, 1_000], ids=["sorted-search", "guide-table"])
    @pytest.mark.parametrize(
        "out",
        [
            lambda s: np.zeros(2 * s, dtype=np.intp),
            lambda s: np.zeros(s - 1, dtype=np.intp),
            lambda s: np.zeros((s, 1), dtype=np.intp),
            lambda s: np.zeros(s, dtype=np.int32),
            lambda s: np.zeros(s, dtype=np.float64),
            lambda s: np.broadcast_to(np.intp(0), s),
        ],
        ids=["too-long", "too-short", "2-d", "int32", "float64", "read-only"],
    )
    def test_wrong_out_refused_before_any_draw(self, shots, out):
        # At N = 10, 100 shots take the sorted search and 1 000 the table.
        state = self._state("spread", 10, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="out"):
            sample_bitstrings(state, shots, rng, out=out(shots))
        assert rng.bit_generator.state == before

    @staticmethod
    def _assert_same_stream_as_choice(state: np.ndarray, shots: int, seed: int) -> None:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_bitstrings(state, shots, ours)
        expected = choice_oracle(state, shots, theirs)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert ours.random() == theirs.random()
        # The same draws written into a caller's array, which is returned;
        # without one, every call returns an array of its own.
        out = np.full(shots, -1, dtype=np.intp)
        assert sample_bitstrings(state, shots, np.random.default_rng(seed), out=out) is out
        assert np.array_equal(out, expected)
        again = sample_bitstrings(state, shots, np.random.default_rng(seed))
        assert not np.shares_memory(again, got)

    def test_warm_call_lending_only_out_allocates_no_cdf_or_guide_table(self):
        # The CDF and the guide table live in this thread's working memory,
        # so a warm N=16 call at 100 000 shots allocates the guide table's
        # counts (2 * 2^N + 1 entries of 8 B, 2.0 states here) and chunk-sized
        # temporaries. A fresh CDF and guide table would add 3 states.
        n, shots = 16, 100_000
        rng = np.random.default_rng(3)
        state = self._state("spread", n, rng)
        out = np.empty(shots, dtype=np.intp)
        sample_bitstrings(state, shots, rng, out=out)
        tracemalloc.start()
        try:
            sample_bitstrings(state, shots, rng, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (1 << n) * 8

    @pytest.mark.parametrize("reps", [0, 1])
    @pytest.mark.parametrize("shots", [1_000, 10_000], ids=["sorted-search", "guide-table"])
    def test_sampling_either_state_buffer_leaves_it_intact(self, reps, shots):
        # A build at reps 0 ends in the first buffer of the thread's pair and
        # one at reps 1 (13 swaps at N=12) in the second; the CDF goes into
        # the other one either way.
        n = 12
        _, is_minimal = brute_force_minimum(random_qubo(n, seed=reps))
        spec = AnsatzSpec(n, reps)
        params = np.random.default_rng(reps).uniform(-3, 3, spec.num_parameters)
        buffers = state_buffers(n)
        state = build_statevector(spec, params, buffers=buffers)
        assert state is buffers[reps]
        before = state.tobytes()
        got = sample_bitstrings(state, shots, np.random.default_rng(5))
        p_min = exact_p_min(state, is_minimal)
        assert state.tobytes() == before
        copy = np.frombuffer(before).copy()
        assert np.array_equal(got, sample_bitstrings(copy, shots, np.random.default_rng(5)))
        assert p_min == exact_p_min(copy, is_minimal)

    @pytest.mark.parametrize("seed", range(4))
    def test_chisquare_against_exact_probabilities(self, seed):
        rng = np.random.default_rng(1000 + seed)
        spec = AnsatzSpec(4, 1)
        state = build_statevector(spec, rng.uniform(-math.pi, math.pi, spec.num_parameters))
        probs = exact_probabilities(state)
        samples = sample_bitstrings(state, 100_000, rng)
        counts = np.bincount(samples, minlength=len(probs)).astype(float)
        expected = probs * len(samples)
        keep = expected >= 5  # merge thin bins into one pooled cell
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        if exp[-1] == 0:
            obs, exp = obs[:-1], exp[:-1]
        _, p_value = chisquare(obs, exp)
        assert p_value > 0.001


class TestExactPMin:
    def test_vacuum_hits_all_zero_minimizer(self):
        q = QuboInstance(matrix=np.array([[1.0, 0.0], [0.0, 1.0]]))
        _, is_minimal = brute_force_minimum(q)  # unique minimizer (0, 0)
        state = build_statevector(AnsatzSpec(2, 1), np.zeros(4))
        assert exact_p_min(state, is_minimal) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_misses_ones_minimizer(self):
        q = QuboInstance(matrix=np.array([[-1.0, 0.0], [0.0, -1.0]]))
        _, is_minimal = brute_force_minimum(q)  # unique minimizer (1, 1)
        state = build_statevector(AnsatzSpec(2, 1), np.zeros(4))
        assert exact_p_min(state, is_minimal) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_instance_sums_to_one(self):
        q = QuboInstance(matrix=np.zeros((2, 2)))
        _, is_minimal = brute_force_minimum(q)  # every bitstring minimizes
        state = build_statevector(AnsatzSpec(2, 0), np.array([math.pi / 2, math.pi / 2]))
        assert exact_p_min(state, is_minimal) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        q = QuboInstance(matrix=np.zeros((3, 3)))
        _, is_minimal = brute_force_minimum(q)
        state = build_statevector(AnsatzSpec(2, 0), np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            exact_p_min(state, is_minimal)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64])
    def test_mask_that_is_not_bool_rejected(self, dtype):
        # A 0/1 mask of the right length would index p[0] and p[1] over and
        # over instead of selecting the minimizers.
        _, is_minimal = brute_force_minimum(random_qubo(4, seed=1))
        state = build_statevector(AnsatzSpec(4, 1), np.random.default_rng(1).uniform(-3, 3, 8))
        with pytest.raises(ValueError, match="bool"):
            exact_p_min(state, is_minimal.astype(dtype))

    @pytest.mark.parametrize("length", [3, 5, 8])
    def test_mask_of_another_length_rejected(self, length):
        # One entry short or long, or the mask of twice the state's size.
        state = build_statevector(AnsatzSpec(2, 0), np.zeros(2))
        with pytest.raises(ValueError, match="does not match"):
            exact_p_min(state, np.ones(length, dtype=bool))

    def test_fully_degenerate_n16_gives_exactly_one(self):
        n = 16
        _, is_minimal = brute_force_minimum(QuboInstance(matrix=np.zeros((n, n))))
        params = np.random.default_rng(4).uniform(-3, 3, 2 * n)
        state = build_statevector(AnsatzSpec(n, 1), params)
        assert exact_p_min(state, is_minimal) == 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_enumeration(self, seed):
        n = 6
        q = random_qubo(n, seed=seed)
        _, is_minimal = brute_force_minimum(q)
        rng = np.random.default_rng(seed)
        spec = AnsatzSpec(n, 1)
        state = build_statevector(spec, rng.uniform(-2, 2, spec.num_parameters))
        probs = exact_probabilities(state)
        by_bits = {index_to_bits(i, n): probs[i] for i in range(2**n)}
        found = [index_to_bits(int(i), n) for i in np.flatnonzero(is_minimal)]
        expected = sum(by_bits[m] for m in found)
        assert exact_p_min(state, is_minimal) == pytest.approx(expected, abs=1e-12)

    def test_warm_call_allocates_nothing_state_sized(self):
        # The Born probabilities go into this thread's working memory, so a
        # warm N=16 call allocates far less than one 2^N float64 state (1.0).
        n = 16
        _, is_minimal = brute_force_minimum(random_qubo(n, seed=2))
        state = build_statevector(AnsatzSpec(n, 1), np.random.default_rng(2).uniform(-3, 3, 2 * n))
        exact_p_min(state, is_minimal)
        tracemalloc.start()
        try:
            exact_p_min(state, is_minimal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * (1 << n) * 8
