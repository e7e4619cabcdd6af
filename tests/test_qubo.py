"""Tests for QUBO evaluation, brute-force minima, and instance generation."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqabench import qubo
from vqabench.qubo import (
    MAX_QUBITS,
    QuboInstance,
    bits_to_index,
    brute_force_minimum,
    evaluate,
    index_to_bits,
    load_qubo,
    random_qubo,
    save_qubo,
)


def make_qubo(rows) -> QuboInstance:
    return QuboInstance(matrix=np.array(rows, dtype=float))


class TestConstruction:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_rejected(self, value, where):
        # A NaN or infinite entry would make every cost NaN, the minimizers
        # empty and every run's p_min 0.
        m = np.zeros((3, 3))
        m[where] = m[where[::-1]] = value
        with pytest.raises(ValueError, match="not finite"):
            QuboInstance(matrix=m)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0)])
    def test_non_square_or_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            QuboInstance(matrix=np.zeros(shape))


class TestEvaluate:
    def test_all_zeros_is_free(self):
        q = random_qubo(5, seed=1)
        assert evaluate(q, (0, 0, 0, 0, 0)) == 0.0

    def test_identity_counts_ones(self):
        q = make_qubo([[1, 0], [0, 1]])
        assert evaluate(q, (1, 1)) == 2.0

    def test_off_diagonals_count_twice(self):
        # 1 - 2 - 2 + 1 over the full double sum
        q = make_qubo([[1, -2], [-2, 1]])
        assert evaluate(q, (1, 1)) == -2.0

    def test_dimension_mismatch_rejected(self):
        q = make_qubo([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="does not match dimension"):
            evaluate(q, (1, 0, 1))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**6 - 1), st.integers(0, 10_000))
    def test_matches_support_sum(self, index, seed):
        # x^T Q x == sum of Q[i][j] over pairs with x_i = x_j = 1
        n = 6
        q = random_qubo(n, seed=seed, value_range=(-5, 5))
        x = index_to_bits(index, n)
        expected = sum(
            q.matrix[i][j] for i in range(n) for j in range(n) if x[i] and x[j]
        )
        assert evaluate(q, x) == pytest.approx(expected, abs=1e-12)


class TestBruteForce:
    def test_two_variable_coupling(self):
        q = make_qubo([[1, -2], [-2, 1]])
        min_cost, minimizers = brute_force_minimum(q)
        assert min_cost == -2.0
        assert minimizers == ((1, 1),)
        assert q.min_cost == -2.0 and q.minimizers == ((1, 1),)

    def test_zero_matrix_fully_degenerate(self):
        q = make_qubo(np.zeros((3, 3)))
        min_cost, minimizers = brute_force_minimum(q)
        assert min_cost == 0.0
        assert set(minimizers) == set(itertools.product([0, 1], repeat=3))

    def test_negative_diagonal(self):
        q = make_qubo([[-1, 0], [0, -1]])
        assert brute_force_minimum(q) == (-2.0, ((1, 1),))

    def test_limit_enforced(self):
        # Raises before anything is enumerated: 2^25 costs would take 256 MiB.
        q = random_qubo(MAX_QUBITS + 1, seed=0)
        with pytest.raises(ValueError, match="exhaustive"):
            brute_force_minimum(q)

    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_minimum_bounds_every_bitstring(self, seed):
        n = 8
        q = random_qubo(n, seed=seed)
        min_cost, minimizers = brute_force_minimum(q)
        for index in range(2**n):
            assert evaluate(q, index_to_bits(index, n)) >= min_cost - 1e-9
        for m in minimizers:
            assert evaluate(q, m) == pytest.approx(min_cost, abs=1e-9)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_permuting_variables_permutes_minimizers(self, seed):
        n = 6
        q = random_qubo(n, seed=seed)
        perm = np.random.default_rng(seed).permutation(n)
        permuted = QuboInstance(matrix=q.matrix[np.ix_(perm, perm)])
        _, minimizers = brute_force_minimum(q)
        _, permuted_minimizers = brute_force_minimum(permuted)
        # variable i of the permuted problem is variable perm[i] of the original
        expected = {tuple(m[p] for p in perm) for m in minimizers}
        assert set(permuted_minimizers) == expected


class TestRandomQubo:
    def test_deterministic(self):
        a = random_qubo(2, seed=42, value_range=(-1, 1))
        b = random_qubo(2, seed=42, value_range=(-1, 1))
        assert np.array_equal(a.matrix, b.matrix)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**63 - 1))
    def test_symmetric_by_construction(self, dimension, seed):
        q = random_qubo(dimension, seed=seed)
        assert np.array_equal(q.matrix, q.matrix.T)

    def test_range_containment(self):
        q = random_qubo(16, seed=7, value_range=(-10, 10))
        assert q.matrix.min() >= -10 and q.matrix.max() <= 10

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            random_qubo(4, seed=0, value_range=(1, -1))

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            random_qubo(0, seed=0)


class TestIndexConversion:
    @given(st.integers(0, 2**10 - 1))
    def test_roundtrip(self, index):
        assert bits_to_index(index_to_bits(index, 10)) == index

    def test_bit_zero_is_least_significant(self):
        assert bits_to_index((1, 0, 0)) == 1
        assert bits_to_index((0, 0, 1)) == 4


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        q = random_qubo(6, seed=11, value_range=(-3, 3))
        path = tmp_path / "q.json"
        save_qubo(q, str(path))
        loaded = load_qubo(str(path))
        assert np.array_equal(loaded.matrix, q.matrix)
        # The config's qubo object, not the file, records how it was drawn.
        assert json.loads(path.read_text()).keys() == {"dimension", "matrix"}

    def test_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 2, "matrix": [[0.0, 1.0], [0.5, 0.0]]}')
        with pytest.raises(ValueError, match="not symmetric"):
            load_qubo(str(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dimension": 3, "matrix": [[0.0, 1.0], [1.0, 0.0]]}')
        with pytest.raises(ValueError, match="shape"):
            load_qubo(str(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, tmp_path, token):
        # Python's json reads these tokens as float nan and +-inf.
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dimension": 2, "matrix": [[0.0, {token}], [{token}, 0.0]]}}')
        with pytest.raises(ValueError, match="not finite"):
            load_qubo(str(path))


def test_all_costs_matches_evaluate():
    q = random_qubo(7, seed=2)
    table = qubo.all_costs(q)
    for index in [0, 1, 17, 100, 127]:
        assert table[index] == pytest.approx(evaluate(q, index_to_bits(index, 7)), abs=1e-12)


def einsum_costs(q: QuboInstance) -> np.ndarray:
    """The cost table as the row-blocked ``einsum("ij,jk,ik->i", bits, Q, bits)``
    that all_costs replaced: the oracle for its summation order."""
    n = q.dimension
    out = np.empty(1 << n, dtype=np.float64)
    for start in range(0, 1 << n, 1 << 10):
        indices = np.arange(start, min(start + (1 << 10), 1 << n), dtype=np.int64)
        bits = ((indices[:, None] >> np.arange(n)) & 1).astype(np.float64)
        out[start:start + len(indices)] = np.einsum("ij,jk,ik->i", bits, q.matrix, bits)
    return out


@pytest.mark.parametrize("value_range", [(-10.0, 10.0), (0.0, 1e-300), (-1e300, 1e300)])
@pytest.mark.parametrize("n", [*range(1, 19), 20])
def test_all_costs_equals_the_einsum_table_byte_for_byte(n, value_range):
    # Both add each cost's Q[j, k] terms in (j, k) order from +0.0; einsum's
    # extra terms are +-0.0, which leave every sum's bits as they are.
    for seed in range(1 if n > 16 else 3):
        q = random_qubo(n, seed=seed, value_range=value_range)
        assert qubo.all_costs(q).tobytes() == einsum_costs(q).tobytes()


@pytest.mark.parametrize(
    "matrix",
    [
        np.zeros((5, 5)),
        np.full((5, 5), -0.0),
        np.full((6, 6), 3.25),
        np.full((4, 4), -1.5),
        # configs/desk_mode.json, the benchmark's N=12 cut of
        # configs/full_scale.json, and configs/full_scale.json
        random_qubo(6, seed=3).matrix,
        random_qubo(12, seed=2025).matrix,
        random_qubo(16, seed=2025).matrix,
    ],
    ids=["zero", "negative-zero", "constant", "negative-constant", "desk", "n12", "n16"],
)
def test_all_costs_equals_the_einsum_table_on_fixed_matrices(matrix):
    q = QuboInstance(matrix=matrix)
    assert qubo.all_costs(q).tobytes() == einsum_costs(q).tobytes()


def test_all_costs_peaks_below_the_table_plus_one_state():
    # The pairs are added in place on views of the table, so the set-up's
    # transient stays below half a 2^N float64 array beside the table.
    q = random_qubo(16, seed=0)
    tracemalloc.start()
    try:
        table = qubo.all_costs(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes
