"""Tests for the trust-region optimizer: convergence, accounting, determinism."""

import ctypes
import functools
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from vqabench import optimizer
from vqabench.optimizer import (
    OptimizationResult,
    OptimizerSettings,
    _norm,
    _norms,
    minimize,
)


def quadratic(x):
    return float(((x - 1.0) ** 2).sum())


class TestSettings:
    def test_radii_ordering_enforced(self):
        with pytest.raises(ValueError, match="rho_end"):
            OptimizerSettings(n_max=100, rho_beg=1e-4, rho_end=1.0)

    @pytest.mark.parametrize("rho_beg", [math.inf, math.nan])
    def test_radii_must_be_finite(self, rho_beg):
        # json.load reads "Infinity" and "NaN"; an infinite radius would
        # pass the ordering check and fail inside every run instead.
        with pytest.raises(ValueError, match="rho_beg"):
            OptimizerSettings(n_max=100, rho_beg=rho_beg, rho_end=1e-4)

    def test_budget_positive(self):
        with pytest.raises(ValueError, match="n_max"):
            OptimizerSettings(n_max=0)

    def test_budget_must_cover_model_construction(self):
        with pytest.raises(ValueError, match="n_max"):
            minimize(quadratic, np.zeros(4), OptimizerSettings(n_max=5))


class TestConvergence:
    def test_constant_objective_terminates(self):
        settings = OptimizerSettings(n_max=200, rho_beg=1.0, rho_end=1e-4)
        result = minimize(lambda x: 0.0, np.zeros(3), settings)
        assert result.best_value == 0.0
        assert result.n_calls <= settings.n_max

    def test_quadratic_two_dims(self):
        settings = OptimizerSettings(n_max=500, rho_beg=0.5, rho_end=1e-6)
        result = minimize(quadratic, np.zeros(2), settings)
        assert np.linalg.norm(result.final_params - 1.0) < 1e-3

    def test_quadratic_four_dims_within_500_calls(self):
        settings = OptimizerSettings(n_max=500, rho_beg=0.5, rho_end=1e-6)
        result = minimize(quadratic, np.zeros(4), settings)
        assert result.n_calls <= 500
        assert np.linalg.norm(result.final_params - 1.0) < 1e-3

    def test_anisotropic_quadratic(self):
        weights = np.array([1.0, 10.0, 0.3])
        objective = lambda x: float(weights @ (x - 2.0) ** 2)
        result = minimize(objective, np.zeros(3), OptimizerSettings(2000, 1.0, 1e-8))
        assert np.linalg.norm(result.final_params - 2.0) < 1e-3


class TestAccounting:
    def test_cap_binds_during_model_construction(self):
        k = 3
        settings = OptimizerSettings(n_max=k + 2, rho_beg=1.0, rho_end=1e-6)
        result = minimize(quadratic, np.zeros(k), settings)
        assert result.n_calls == k + 2

    def test_history_matches_call_count(self):
        values = []

        def recorded(x):
            values.append(quadratic(x))
            return values[-1]

        settings = OptimizerSettings(n_max=80, rho_beg=0.5, rho_end=1e-8)
        result = minimize(recorded, np.zeros(2), settings)
        assert len(result.history) == result.n_calls
        assert result.history == values  # call i + 1 at position i

    def test_best_value_is_history_minimum(self):
        result = minimize(quadratic, np.zeros(3), OptimizerSettings(200, 0.7, 1e-7))
        assert result.best_value == min(result.history)
        assert quadratic(result.final_params) == pytest.approx(result.best_value, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_cap_respected_under_fuzz(self, seed):
        # stochastic objectives with NaN patches must never exceed the budget
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        n_max = int(rng.integers(k + 2, 60))
        nan_rate = float(rng.uniform(0, 0.5))

        def objective(x):
            if rng.random() < nan_rate:
                return math.nan
            return float(rng.normal() + (x**2).sum())

        settings = OptimizerSettings(n_max=n_max, rho_beg=1.0, rho_end=1e-5)
        result = minimize(objective, rng.normal(size=k), settings)
        assert 1 <= result.n_calls <= n_max
        assert len(result.history) == result.n_calls

    def test_all_nan_objective_terminates(self):
        settings = OptimizerSettings(n_max=50, rho_beg=1.0, rho_end=1e-4)
        result = minimize(lambda x: math.nan, np.zeros(2), settings)
        assert result.n_calls <= 50
        assert result.best_value == math.inf
        assert all(v == math.inf for v in result.history)

    def test_nan_never_becomes_best(self):
        calls = []

        def objective(x):
            calls.append(1)
            return math.nan if len(calls) % 2 else float((x**2).sum())

        result = minimize(objective, np.ones(2), OptimizerSettings(60, 0.5, 1e-6))
        assert math.isfinite(result.best_value)


class TestDeterminism:
    def test_identical_runs_identical_history(self):
        settings = OptimizerSettings(n_max=300, rho_beg=0.8, rho_end=1e-7)
        a = minimize(quadratic, np.array([0.3, -0.2, 0.9]), settings)
        b = minimize(quadratic, np.array([0.3, -0.2, 0.9]), settings)
        assert a.history == b.history
        assert np.array_equal(a.final_params, b.final_params)

    def test_objective_cannot_corrupt_state(self):
        # mutating the argument in place must not affect the search
        def mutating(x):
            value = quadratic(x)
            x[:] = 1e9
            return value

        a = minimize(mutating, np.zeros(2), OptimizerSettings(200, 0.5, 1e-6))
        b = minimize(quadratic, np.zeros(2), OptimizerSettings(200, 0.5, 1e-6))
        assert a.history == b.history

    def test_ask_tell_search_is_the_driven_search(self):
        # Lockstep runs drive the search by hand: every asked point is a copy
        # the caller may overwrite, a NaN told back counts as +inf, and the
        # result is the one minimize returns with the objective.
        settings = OptimizerSettings(60, 0.5, 1e-6)

        def noisy(x):
            value = quadratic(x)
            return math.nan if value > 2.5 else value

        search = minimize(None, np.zeros(3), settings)
        asked = []
        point = next(search)
        try:
            while True:
                asked.append(point.copy())
                value = noisy(point)
                point[:] = 1e9
                point = search.send(value)
        except StopIteration as stop:
            told = stop.value
        points = []
        driven = minimize(lambda x: points.append(x.copy()) or noisy(x), np.zeros(3), settings)
        assert [p.tobytes() for p in asked] == [p.tobytes() for p in points]
        assert told.history == driven.history and math.inf in told.history
        assert (told.n_calls, told.best_value) == (driven.n_calls, driven.best_value)
        assert told.final_params.tobytes() == driven.final_params.tobytes()

    def test_ask_tell_search_checks_its_start_before_it_is_made(self):
        with pytest.raises(ValueError, match="finite"):
            minimize(None, np.array([0.0, math.nan]), OptimizerSettings(100))
        with pytest.raises(ValueError, match="n_max"):
            minimize(None, np.zeros(4), OptimizerSettings(n_max=5))


class TestValidation:
    def test_initial_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            minimize(quadratic, np.array([0.0, math.inf]), OptimizerSettings(100))

    def test_initial_must_be_vector(self):
        with pytest.raises(ValueError, match="vector"):
            minimize(quadratic, np.zeros((2, 2)), OptimizerSettings(100))

    def test_result_type(self):
        result = minimize(quadratic, np.zeros(2), OptimizerSettings(100, 0.5, 1e-5))
        assert isinstance(result, OptimizationResult)


def noisy_staircase():
    # A quantized quadratic with seeded noise: flat models force radius
    # shrinks, and the noise makes model steps both pass and fail.
    rng = np.random.default_rng(1)

    def objective(x):
        value = float(((x - 0.7) ** 2).sum()) + 0.05 * float(rng.normal())
        return math.floor(value * 4.0) / 4.0

    return objective


def nan_patched():
    # Every fourth call and the half-space x[0] > 0.9 read NaN, so vertices
    # sit at +inf and the model is non-finite on some steps.
    calls = []

    def objective(x):
        calls.append(1)
        if len(calls) % 4 == 0 or x[0] > 0.9:
            return math.nan
        return float(((x - 0.5) ** 2).sum() + np.sin(3 * x).sum())

    return objective


def coupled_quadratic(x):
    return float(((x - 1.0) ** 2).sum() + 0.3 * x[0] * x[1])


@functools.cache
def openblas_core() -> str:
    """The core of numpy's bundled OpenBLAS that this process dispatches to,
    such as ``SkylakeX``, or ``Haswell`` on AVX2 without AVX-512 (AMD Zen
    included) and under ``OPENBLAS_CORETYPE=Haswell``."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return "none (numpy has no bundled scipy-openblas64)"
    corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = (), ctypes.c_char_p
    return corename().decode()


class TestPinnedHistory:
    """Full trajectories pinned bit for bit on paths the benchmark's
    workloads never take: radius shrinks on a flat model, non-finite
    vertices, and the rank-deficient (``svd``) repair. Each digest covers
    every queried point and every history value.

    The optimizer's ``inv``, ``lstsq``, ``svd`` and ``@`` run in OpenBLAS,
    whose cores round differently, so each trajectory is pinned per core,
    and a core without a pin fails."""

    @staticmethod
    def pinned(**by_core):
        core = openblas_core()
        assert core in by_core, f"no trajectory is pinned for the OpenBLAS core {core}"
        return by_core[core]

    @staticmethod
    def digest(objective, initial, settings):
        points = []

        def traced(x):
            points.append(x.tobytes())
            return objective(x)

        result = minimize(traced, initial, settings)
        assert len(points) == len(result.history) == result.n_calls
        sha = hashlib.sha256(b"".join(points))
        sha.update(" ".join(v.hex() for v in result.history).encode())
        return result.n_calls, sha.hexdigest()

    def test_noisy_staircase(self):
        got = self.digest(noisy_staircase(), np.zeros(4), OptimizerSettings(150, 1.0, 1e-4))
        assert got == self.pinned(
            SkylakeX=(40, "1f6f6267a0c6375f31dbddda4c3446db9165a5ad50e2da04cfa2976ec6a238ae"),
            Haswell=(40, "17963f471feee12fb3660c2a77d617322cc58406d7d586a57b552f4fed37acee"),
        )

    def test_nan_patched(self):
        got = self.digest(nan_patched(), np.zeros(3), OptimizerSettings(120, 1.0, 1e-5))
        assert got == self.pinned(
            SkylakeX=(41, "1669201cdbe34a8cbebca6ff2fd0d1d4496ebde393753e38580f9a2258d56266"),
            Haswell=(41, "ed76381a02c467c958f65182834f11212510ce774edcb5d2a534552b2aa7fe82"),
        )

    def test_rank_deficient_steps(self, monkeypatch):
        # Steps 3 and 9 see no inverse and rebuild a vertex along the span's
        # null direction.
        steps = []
        inverse = optimizer._inverse_or_none

        def failing_at_two_steps(span):
            steps.append(1)
            return None if len(steps) in (3, 9) else inverse(span)

        monkeypatch.setattr(optimizer, "_inverse_or_none", failing_at_two_steps)
        got = self.digest(coupled_quadratic, np.zeros(3), OptimizerSettings(80, 1.0, 1e-6))
        assert got == self.pinned(
            SkylakeX=(79, "9befff0e088b6c55ae5531619c0eb8c7b46822ccfa3242c74923f1cf343884af"),
            Haswell=(79, "b59e38b0dcc45d848e4085e0a8af0fa1216a5e51827d0559072de9ea0cd57e7c"),
        )


class TestNormBits:
    """The optimizer's norms are bit for bit ``np.linalg.norm``'s, on both
    sides of numpy's 8-way unrolled sum and its 128-element pairwise blocks."""

    SIZES = [1, 7, 9, 129, 100_000]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_row_and_column_norms(self, size, axis):
        rng = np.random.default_rng(size)
        for x in (rng.normal(0.0, 3.0, (4, size)), rng.normal(0.0, 3.0, (size, 4))):
            assert _norms(x, axis=axis).tobytes() == np.linalg.norm(x, axis=axis).tobytes()

    @pytest.mark.parametrize("size", SIZES)
    def test_vector_norm(self, size):
        v = np.random.default_rng(size).normal(0.0, 3.0, size)
        assert _norm(v).hex() == float(np.linalg.norm(v)).hex()

    @pytest.mark.parametrize("size", SIZES)
    def test_non_contiguous_column_norm(self, size):
        x = np.random.default_rng(size).normal(0.0, 3.0, (size, 5))
        for j in range(5):
            column = x[:, j]
            assert not column.flags.c_contiguous or size == 1
            assert _norm(column).hex() == float(np.linalg.norm(column)).hex()
