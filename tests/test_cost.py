"""Tests for CVaR tail means and sampled cost estimates."""

import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqabench import circuit, cost
from vqabench.circuit import (
    _CHUNK,
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


#: Sizes on both sides of numpy's 8-way unrolled sum and its 128-element
#: pairwise blocks, up to the paper's shot counts.
SUM_SIZES = [1, 7, 9, 129, 100_000]


class TestCvarBits:
    """``cvar`` sums its tail with ``np.add.reduce`` and divides by the count:
    bit for bit the ``mean`` it replaced."""

    @pytest.mark.parametrize("size", SUM_SIZES)
    @pytest.mark.parametrize("alpha", [0.01, 0.15, 0.25, 0.5, 0.999])
    def test_tail_equals_partition_mean(self, size, alpha):
        values = np.random.default_rng(size).normal(-3.0, 40.0, size)
        m = cvar_tail_count(size, alpha)
        tail = values if m == size else np.partition(values, m - 1)[:m]
        expected = float(tail.mean())
        assert cvar(values, alpha).hex() == expected.hex()

    @pytest.mark.parametrize("size", SUM_SIZES)
    @pytest.mark.parametrize("alpha", [0.01, 0.15, 0.25, 0.5, 0.999, 1.0])
    def test_overwrite_partitions_in_place_to_the_same_bits(self, size, alpha):
        values = np.random.default_rng(size).normal(-3.0, 40.0, size)
        kept = values.copy()
        expected = cvar(values.copy(), alpha)
        assert cvar(values, alpha).hex() == expected.hex()
        assert np.array_equal(values, kept)
        assert cvar(values, alpha, overwrite=True).hex() == expected.hex()
        # The same multiset, now in partitioned order.
        assert np.array_equal(np.sort(values), np.sort(kept))

    @pytest.mark.parametrize("size", SUM_SIZES)
    def test_full_sample_equals_mean(self, size):
        values = np.random.default_rng(size).normal(-3.0, 40.0, size)
        assert cvar(values, 1.0).hex() == float(values.mean()).hex()


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

    @pytest.mark.parametrize(
        "table",
        [
            lambda t: t[:40],
            lambda t: np.concatenate([t, t]),
            lambda t: t.reshape(8, 8),
            lambda t: t.astype(np.float32),
            lambda t: t.astype(np.int64),
            lambda t: t.tolist(),
        ],
        ids=["short", "long", "2-d", "float32", "int64", "list"],
    )
    @pytest.mark.parametrize("rows", [None, 3], ids=["one-point", "three-points"])
    def test_wrong_cost_table_refused_before_the_build(self, monkeypatch, table, rows):
        # Pricing clips each draw into the table and writes the costs over
        # the draws as float64, so a table of another length would price
        # silently wrong and one of another dtype could not be written.
        spec = AnsatzSpec(6, 1)
        good = all_costs(random_qubo(6, seed=3))
        shape = spec.num_parameters if rows is None else (rows, spec.num_parameters)
        params = np.random.default_rng(3).uniform(-3, 3, shape)
        gens = [np.random.default_rng(4 + r) for r in range(rows or 1)]
        before = [g.bit_generator.state for g in gens]

        def build(*args, **kwargs):
            raise AssertionError("the state was built for a refused table")

        monkeypatch.setattr(cost, "build_statevector", build)
        with pytest.raises(ValueError, match="cost_table"):
            cost_estimate(spec, params, table(good), 0.25, 1000, gens[0] if rows is None else gens)
        assert [g.bit_generator.state for g in gens] == before

    @pytest.mark.parametrize("rows", [1, 3, 16])
    @pytest.mark.parametrize("shots", [10, 1_000, _CHUNK + 1])
    def test_points_equal_their_single_calls(self, rows, shots):
        # (R, k) points with R generators: each row's value is the bits of
        # the single call on that point and generator, which ends where the
        # single call leaves it. 10 < 0.4 * 2^6 <= 1 000 < _CHUNK + 1.
        spec = AnsatzSpec(6, 2)
        table = all_costs(random_qubo(6, seed=3))
        params = np.random.default_rng(rows).uniform(-3, 3, (rows, spec.num_parameters))
        batch = [np.random.default_rng(100 + r) for r in range(rows)]
        alone = [np.random.default_rng(100 + r) for r in range(rows)]
        got = cost_estimate(spec, params, table, 0.25, shots, batch)
        expected = [
            cost_estimate(spec, point, table, 0.25, shots, rng) for point, rng in zip(params, alone)
        ]
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert [g.bit_generator.state for g in batch] == [g.bit_generator.state for g in alone]

    @pytest.mark.parametrize("count", [2, 4])
    def test_points_refuse_a_generator_count_other_than_r(self, count):
        spec = AnsatzSpec(6, 1)
        table = all_costs(random_qubo(6, seed=3))
        params = np.random.default_rng(3).uniform(-3, 3, (3, spec.num_parameters))
        gens = [np.random.default_rng(r) for r in range(count)]
        fresh = [g.bit_generator.state for g in gens]
        with pytest.raises(ValueError, match=f"3 states need as many generators, got {count}"):
            cost_estimate(spec, params, table, 0.25, 100, gens)
        assert [g.bit_generator.state for g in gens] == fresh

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _problem(n):
        spec = AnsatzSpec(n, 1)
        params = np.random.default_rng(n).uniform(-3, 3, spec.num_parameters)
        return all_costs(random_qubo(n, seed=n)), spec, params

    @pytest.mark.parametrize("n", [12, 18], ids=["guide-table", "sorted-search"])
    @pytest.mark.parametrize(
        "shots",
        [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5, 100_000],
        ids=["CHUNK-1", "CHUNK", "CHUNK+1", "3*CHUNK+5", "100000"],
    )
    def test_equals_cvar_of_the_priced_samples_across_chunks(self, n, shots):
        # Every shots count here takes the guide table at N=12 (from
        # 0.4 * 2^12 = 1 639 shots) and the sorted search at N=18 (below
        # 104 858). Pricing the draws over themselves must give the bits of
        # pricing a copy, and leave the generator where the sampler does.
        assert (5 * shots >= 2 << n) == (n == 12)
        table, spec, params = self._problem(n)
        own, direct = np.random.default_rng(shots), np.random.default_rng(shots)
        got = cost_estimate(spec, params, table, 0.15, shots, own)
        state = build_statevector(spec, params)
        expected = cvar(table[sample_bitstrings(state, shots, direct)], 0.15)
        assert got.hex() == expected.hex()
        assert own.random() == direct.random()

    @staticmethod
    def _warm_call_peak(n, shots):
        """Tracemalloc peak of a warm objective call at N=n."""
        spec = AnsatzSpec(n, 1)
        table = all_costs(random_qubo(n, seed=4))
        params = np.random.default_rng(4).uniform(-3, 3, spec.num_parameters)
        rng = np.random.default_rng(5)
        cost_estimate(spec, params, table, 0.15, shots, rng)
        tracemalloc.start()
        try:
            cost_estimate(spec, params, table, 0.15, shots, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize(
        "n, shots",
        [(12, (100_000, 400_000)), (16, (10_000, 26_000))],
        ids=["guide-table", "sorted-search"],
    )
    def test_warm_call_allocates_nothing_that_grows_with_shots(self, n, shots):
        # The draws and their costs share one reused 8 B entry per shot, and
        # CVaR partitions it in place, so a warm call allocates only
        # chunk-sized temporaries (about 4 float64 chunks on either path).
        # Only the index list of the multi-entry buckets varies with the
        # draws, by a few hundred bytes.
        # One temporary entry per shot would grow the peak by 2.4 MB and by
        # 128 kB between the two shots counts.
        small, large = (self._warm_call_peak(n, s) for s in shots)
        chunk_bytes = _CHUNK * 8
        assert large <= small + chunk_bytes // 8
        assert small <= 8 * chunk_bytes

    def test_warm_guided_call_gathers_over_its_own_draws(self):
        # The draws are priced over themselves, and the guide table's bucket
        # indices are gathered over in the draws' own chunk: about 3.2 float64
        # chunks at N=12, s=100 000. A pricing buffer and a bucket buffer
        # would add a chunk each.
        assert self._warm_call_peak(12, 100_000) <= 3.5 * _CHUNK * 8

    def test_warm_call_allocates_nothing_state_sized(self):
        # At N=16 and 1 000 shots the state, its scratch and the samples all
        # live in this thread's buffers: what a warm call allocates is
        # chunk-sized, far below one 2^N float64 state (1.0 here).
        n = 16
        assert self._warm_call_peak(n, 1_000) <= 0.25 * (1 << n) * 8

    def test_warm_calls_keep_to_one_core(self):
        # A BLAS call over a 2^16 state, such as a norm check by np.dot,
        # wakes OpenBLAS's helper threads on every call, so a serial sweep
        # would keep a second core busy and slow every other pool worker.
        n = 16
        spec = AnsatzSpec(n, 1)
        table = all_costs(random_qubo(n, seed=4))
        params = np.random.default_rng(4).uniform(-3, 3, spec.num_parameters)
        rng = np.random.default_rng(5)
        cost_estimate(spec, params, table, 0.25, 10_000, rng)
        cpu, wall = time.process_time(), time.perf_counter()
        for _ in range(200):
            cost_estimate(spec, params, table, 0.25, 10_000, rng)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        assert cpu <= 1.2 * wall

    @pytest.mark.parametrize("shots", [10, 1000])
    def test_each_call_goes_once_through_the_sampler_and_cvar(self, monkeypatch, shots):
        # 10 < 2^6 <= 1000. The benchmark times the sampling and CVaR layers
        # by rebinding these two names in ``cost``, so every objective call
        # must reach each of them exactly once, through that name.
        spec = AnsatzSpec(6, 1)
        table = all_costs(random_qubo(6, seed=3))
        params = np.random.default_rng(3).uniform(-3, 3, spec.num_parameters)
        rng = np.random.default_rng(4)
        seen = []

        def sampled(*args, **kwargs):
            seen.append("sample")
            return sample_bitstrings(*args, **kwargs)

        def tail_mean(*args, **kwargs):
            seen.append("cvar")
            return cvar(*args, **kwargs)

        monkeypatch.setattr(cost, "sample_bitstrings", sampled)
        monkeypatch.setattr(cost, "cvar", tail_mean)
        for _ in range(3):
            cost_estimate(spec, params, table, 0.25, shots, rng)
        assert seen == ["sample", "cvar"] * 3

    @pytest.mark.parametrize("shots", [10, 1000])
    def test_one_pricing_path_on_both_sides_of_2_pow_n(self, monkeypatch, shots):
        # 10 < 0.4 * 2^6 <= 1000: the sorted search and the guide table both write
        # into this thread's buffers, so warm calls hand the sampler one array.
        spec = AnsatzSpec(6, 1)
        table = all_costs(random_qubo(6, seed=3))
        params = np.random.default_rng(3).uniform(-3, 3, spec.num_parameters)
        rng = np.random.default_rng(4)
        outs = []

        def recorded(state, shots, rng, out=None, **kwargs):
            outs.append(out)
            return sample_bitstrings(state, shots, rng, out=out, **kwargs)

        monkeypatch.setattr(cost, "sample_bitstrings", recorded)
        for _ in range(3):
            cost_estimate(spec, params, table, 0.25, shots, rng)
        # Each call lends a view of the same buffer.
        assert outs[1] is not None and outs[2].base is outs[1].base is not None

    @staticmethod
    def _stream(table, spec, params, shots, seed, calls):
        """CVaR values of ``calls`` objective calls priced without cost_estimate."""
        rng = np.random.default_rng(seed)
        state = build_statevector(spec, params)
        return [cvar(table[sample_bitstrings(state, shots, rng)], 0.25) for _ in range(calls)]

    def test_reused_buffers_keep_interleaved_and_threaded_calls_apart(self):
        problems = {}
        for n in (8, 10):
            spec = AnsatzSpec(n, 1)
            params = np.random.default_rng(9).uniform(-3, 3, spec.num_parameters)
            problems[n] = (all_costs(random_qubo(n, seed=9)), spec, params)
        # (N, shots) per stream: 400 shots < 0.4 * 2^10 take the sorted search,
        # the others the guide table.
        streams = [(10, 400), (10, 3_000), (8, 20_000), (10, 20_000), (10, 20_000), (8, 3_000)]
        expected = [
            self._stream(*problems[n], shots, seed, 6) for seed, (n, shots) in enumerate(streams)
        ]

        def priced(j, rng):
            n, shots = streams[j]
            table, spec, params = problems[n]
            return cost_estimate(spec, params, table, 0.25, shots, rng)

        # Alternating streams: each call replaces the cached sample and cost
        # arrays, and a change of N the state buffers and the guide table.
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        got = [[], [], []]
        for _ in range(6):
            for j in range(3):
                got[j].append(priced(j, rngs[j]))
        assert got == expected[:3]

        # More threads than cores, each on its own generator. Two share N and
        # shots, and two pairs share shots at different N: shared buffers
        # would mix their states or their samples.
        # Between its objective calls each thread also samples a state built
        # outside its buffers, whose CDF goes into the same thread's pair.
        results = [None] * len(streams)
        direct = [None] * len(streams)

        def work(j):
            n, shots = streams[j]
            table, spec, params = problems[n]
            state = build_statevector(spec, params)
            rng, own = np.random.default_rng(j), np.random.default_rng(j)
            results[j], direct[j] = [], []
            for _ in range(6):
                results[j].append(priced(j, rng))
                direct[j].append(cvar(table[sample_bitstrings(state, shots, own)], 0.25))

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
        assert results == expected and direct == expected


#: Shots on both sides of the guide table's switch (from 0.4 * 2^N shots: 7
#: at N=4, 26 at N=6, 205 at N=9) and of the chunk size, where a tile of
#: whole rows gives way to one cut row.
BATCH_SHOTS = [1, 25, 26, 100, 1_000, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


class TestBatchedSampledCvar:
    """R states with their R generators in one ``sampled_cvar`` call: each
    row's value is the bits of the single call on that state and generator,
    and each generator ends where the single call leaves it."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _rows(n, rows):
        """Read-only ``(rows, 2^n)`` states, a crowded one every third row, and
        the cost table. The crowded state puts tiny probabilities on most
        entries, so its guide buckets hold many CDF entries and some draws
        need the search."""
        spec = AnsatzSpec(n, 1)
        params = np.random.default_rng(n).uniform(-3, 3, (rows, spec.num_parameters))
        states = build_statevector(spec, params)
        for r in range(2, rows, 3):
            p = np.full(1 << n, 1e-7)
            p[[1, (1 << n) // 2, (1 << n) - 2]] = 1.0
            states[r] = np.sqrt(p / p.sum())
        states.flags.writeable = False
        return states, all_costs(random_qubo(n, seed=n))

    @pytest.mark.parametrize("n", [4, 6, 9])
    @pytest.mark.parametrize("rows", [1, 2, 3, 16])
    @pytest.mark.parametrize("shots", BATCH_SHOTS)
    def test_rows_equal_their_single_calls(self, n, rows, shots):
        states, table = self._rows(n, rows)
        for alpha in (0.15, 0.25, 1.0):
            seeds = [1000 * n + 10 * rows + r for r in range(rows)]
            batch = [np.random.default_rng(seed) for seed in seeds]
            alone = [np.random.default_rng(seed) for seed in seeds]
            got = cost.sampled_cvar(states, table, alpha, shots, batch)
            expected = [
                cost.sampled_cvar(state, table, alpha, shots, rng)
                for state, rng in zip(states, alone)
            ]
            assert [v.hex() for v in got] == [v.hex() for v in expected]
            assert [g.bit_generator.state for g in batch] == [g.bit_generator.state for g in alone]

    @pytest.mark.parametrize("shots", [25, 26, 1_000])
    def test_sampler_rows_equal_their_single_calls(self, shots):
        # 16 rows of N=6 states, below and above the guide table's switch,
        # in one chunk (25 and 26 shots) and in two (1 000 shots).
        states, _ = self._rows(6, 16)
        batch = [np.random.default_rng(r) for r in range(16)]
        alone = [np.random.default_rng(r) for r in range(16)]
        out = np.full((16, shots), -1, dtype=np.intp)
        assert sample_bitstrings(states, shots, batch, out=out) is out
        for r in range(16):
            assert np.array_equal(out[r], sample_bitstrings(states[r], shots, alone[r]))
        assert [g.random() for g in batch] == [g.random() for g in alone]

    def test_a_refused_state_refuses_its_tile_before_drawing(self):
        # Row 1 has a Born total of 4: the call raises the single call's
        # error before any row of the tile has drawn a uniform.
        states, table = self._rows(6, 3)
        states = states.copy()
        states[1] *= 2.0
        gens = [np.random.default_rng(r) for r in range(3)]
        fresh = [g.bit_generator.state for g in gens]
        with pytest.raises(ValueError) as refused:
            cost.sampled_cvar(states[1], table, 0.25, 100, np.random.default_rng(1))
        with pytest.raises(ValueError) as batch:
            cost.sampled_cvar(states, table, 0.25, 100, gens)
        assert str(batch.value) == str(refused.value)
        assert [g.bit_generator.state for g in gens] == fresh

    @pytest.mark.parametrize("count", [2, 4])
    @pytest.mark.parametrize("shots", [100, _CHUNK + 1])
    def test_a_generator_count_other_than_r_is_refused(self, count, shots):
        # One tile of three rows at 100 shots, three tiles of one above
        # _CHUNK: either way no generator draws.
        states, table = self._rows(6, 3)
        gens = [np.random.default_rng(r) for r in range(count)]
        fresh = [g.bit_generator.state for g in gens]
        with pytest.raises(ValueError, match=f"3 states need as many generators, got {count}"):
            cost.sampled_cvar(states, table, 0.25, shots, gens)
        assert [g.bit_generator.state for g in gens] == fresh

    @staticmethod
    def _warm_batch_peak(n, rows, shots):
        states, table = TestBatchedSampledCvar._rows(n, rows)
        gens = [np.random.default_rng(r) for r in range(rows)]
        cost.sampled_cvar(states, table, 0.15, shots, gens)
        tracemalloc.start()
        try:
            cost.sampled_cvar(states, table, 0.15, shots, gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize(
        "n, rows, shots",
        [(6, 16, 100), (6, 16, 1_000), (9, 2, 1_000), (6, 3, 3 * _CHUNK + 5)],
        ids=["one-tile", "two-tiles", "guided-n9", "cut-rows"],
    )
    def test_warm_batch_allocates_chunk_sized_temporaries(self, n, rows, shots):
        # The tiles' draws share this thread's buffer of max(shots, _CHUNK)
        # entries, and the rows' CDFs its spare state rows, so what a warm
        # batch allocates is chunk-sized: uniforms, probes, flags, offsets
        # and, on the guided path, the rows' bucket counts.
        peak = self._warm_batch_peak(n, rows, shots)
        held = circuit._workspace.shots[1]
        assert held.dtype == np.intp and held.size <= max(shots, _CHUNK)
        assert peak <= 4 * _CHUNK * 8

