"""Tests for CVaR tail means and sampled cost estimates."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqabench import cost
from vqabench.circuit import (
    AnsatzSpec,
    build_statevector,
    exact_probabilities,
    sample_bitstrings,
)
from vqabench.cost import cost_estimate, cvar, cvar_tail_count
from vqabench.qubo import QuboInstance, all_costs, evaluate, index_to_bits, random_qubo

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


class TestCvar:
    def test_alpha_one_is_plain_mean(self):
        assert cvar([1, 2, 3, 4], 1.0) == 2.5

    def test_half_keeps_lower_two(self):
        # m = ceil(0.5 * 4) = 2 -> mean of {1, 2}
        assert cvar([1, 2, 3, 4], 0.5) == 1.5

    def test_small_alpha_keeps_minimum(self):
        # m = ceil(0.15 * 3) = 1 -> the minimum
        assert cvar([5, 1, 9], 0.15) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cvar([], 0.5)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            cvar([1.0], alpha)

    def test_tail_count_examples(self):
        assert cvar_tail_count(4, 1.0) == 4
        assert cvar_tail_count(4, 0.5) == 2
        assert cvar_tail_count(3, 0.15) == 1
        assert cvar_tail_count(1000, 0.15) == 150

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=50), st.integers(1, 20), st.integers(1, 20))
    def test_monotone_in_alpha(self, costs, a_num, b_num):
        lo, hi = sorted((a_num, b_num))
        assert cvar(costs, lo / 20) <= cvar(costs, hi / 20) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=50), st.integers(1, 20))
    def test_bounded_by_min_and_mean(self, costs, a_num):
        alpha = a_num / 20
        value = cvar(costs, alpha)
        assert min(costs) - 1e-9 <= value <= np.mean(costs) + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=30), st.integers(1, 20), st.integers(0, 100))
    def test_permutation_invariant(self, costs, a_num, seed):
        alpha = a_num / 20
        shuffled = list(costs)
        np.random.default_rng(seed).shuffle(shuffled)
        assert cvar(costs, alpha) == pytest.approx(cvar(shuffled, alpha), abs=1e-9)


class TestCostEstimate:
    def test_zero_matrix_costs_nothing(self):
        q = QuboInstance(matrix=np.zeros((3, 3)))
        spec = AnsatzSpec(3, 1)
        for alpha, shots in [(0.25, 10), (1.0, 100)]:
            value = cost_estimate(
                spec, np.zeros(spec.num_parameters), all_costs(q), alpha, shots,
                np.random.default_rng(0),
            )
            assert value == 0.0

    def test_zero_angles_give_origin_cost(self):
        q = random_qubo(4, seed=8)
        spec = AnsatzSpec(4, 1)
        value = cost_estimate(
            spec, np.zeros(spec.num_parameters), all_costs(q), 0.5, 64, np.random.default_rng(3)
        )
        assert value == pytest.approx(evaluate(q, (0, 0, 0, 0)), abs=1e-12)

    def test_mean_converges_to_exact_expectation(self):
        # alpha=1 with many shots approaches sum_x p(x) f(x)
        n, shots = 4, 200_000
        q = random_qubo(n, seed=21)
        spec = AnsatzSpec(n, 1)
        params = np.random.default_rng(5).uniform(-2, 2, spec.num_parameters)
        probs = exact_probabilities(build_statevector(spec, params))
        table = all_costs(q)
        exact_mean = float(probs @ table)
        exact_var = float(probs @ (table - exact_mean) ** 2)
        value = cost_estimate(spec, params, table, 1.0, shots, np.random.default_rng(6))
        assert abs(value - exact_mean) < 3 * np.sqrt(exact_var / shots)

    def test_cost_table_matches_direct_evaluation(self):
        # Oracle: draw the same seeded samples and price each with evaluate.
        q = random_qubo(5, seed=13)
        spec = AnsatzSpec(5, 1)
        params = np.random.default_rng(7).uniform(-1, 1, spec.num_parameters)
        with_table = cost_estimate(
            spec, params, all_costs(q), 0.5, 500, np.random.default_rng(42)
        )
        samples = sample_bitstrings(
            build_statevector(spec, params), 500, np.random.default_rng(42)
        )
        direct = [evaluate(q, index_to_bits(int(x), q.dimension)) for x in samples]
        assert with_table == pytest.approx(cvar(direct, 0.5), abs=1e-12)

    def test_warm_call_allocates_only_the_cvar_partition(self, monkeypatch):
        # The samples and costs are reused from the last call with these shots,
        # so up to CVaR only chunk- and state-sized temporaries are allocated
        # (about 0.6 in units of shots * 8 B here), and CVaR adds its partition
        # copy. A shots-sized temporary alone is 1.0.
        n, shots = 12, 100_000
        spec = AnsatzSpec(n, 1)
        table = all_costs(random_qubo(n, seed=4))
        params = np.random.default_rng(4).uniform(-3, 3, spec.num_parameters)
        rng = np.random.default_rng(5)
        before_cvar = []

        def traced_cvar(costs, alpha):
            before_cvar.append(tracemalloc.get_traced_memory()[1])
            return cvar(costs, alpha)

        monkeypatch.setattr(cost, "cvar", traced_cvar)
        cost_estimate(spec, params, table, 0.15, shots, rng)
        tracemalloc.start()
        try:
            cost_estimate(spec, params, table, 0.15, shots, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert before_cvar[-1] < shots * 8
        assert peak <= 1.5 * shots * 8

    @pytest.mark.parametrize("shots", [10, 1000])
    def test_one_pricing_path_on_both_sides_of_2_pow_n(self, monkeypatch, shots):
        # 10 < 2^6 <= 1000: the sorted search and the guide table both write
        # into this thread's buffers, so warm calls hand the sampler one array.
        spec = AnsatzSpec(6, 1)
        table = all_costs(random_qubo(6, seed=3))
        params = np.random.default_rng(3).uniform(-3, 3, spec.num_parameters)
        rng = np.random.default_rng(4)
        outs = []

        def recorded(state, shots, rng, out=None):
            outs.append(out)
            return sample_bitstrings(state, shots, rng, out=out)

        monkeypatch.setattr(cost, "sample_bitstrings", recorded)
        for _ in range(3):
            cost_estimate(spec, params, table, 0.25, shots, rng)
        assert outs[1] is not None and outs[2] is outs[1]

    @staticmethod
    def _stream(table, spec, params, shots, seed, calls):
        """CVaR values of ``calls`` objective calls priced without cost_estimate."""
        rng = np.random.default_rng(seed)
        state = build_statevector(spec, params)
        return [cvar(table[sample_bitstrings(state, shots, rng)], 0.25) for _ in range(calls)]

    def test_reused_buffers_keep_interleaved_and_threaded_calls_apart(self):
        n = 10
        spec = AnsatzSpec(n, 1)
        table = all_costs(random_qubo(n, seed=9))
        params = np.random.default_rng(9).uniform(-3, 3, spec.num_parameters)
        # 500 shots < 2^10 take fresh arrays, the others the cached buffers.
        streams = [(shots, seed) for seed, shots in enumerate([500, 3_000, 20_000, 20_000, 20_000])]
        expected = [self._stream(table, spec, params, shots, seed, 6) for shots, seed in streams]

        # Alternating shots values: each call from 2^N shots up replaces the
        # cached buffers.
        rngs = [np.random.default_rng(seed) for _, seed in streams[:3]]
        got = [[], [], []]
        for _ in range(6):
            for j, (shots, _) in enumerate(streams[:3]):
                got[j].append(cost_estimate(spec, params, table, 0.25, shots, rngs[j]))
        assert got == expected[:3]

        # More threads than cores, each on its own generator, with the same
        # shots on three of them: shared buffers would mix their samples.
        results = [None] * len(streams)

        def work(j):
            shots, seed = streams[j]
            rng = np.random.default_rng(seed)
            results[j] = [cost_estimate(spec, params, table, 0.25, shots, rng) for _ in range(6)]

        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(streams))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == expected
