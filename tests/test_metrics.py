"""Tests for diagram normalization, the three metrics, intervals, and selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqabench import metrics
from vqabench.metrics import (
    ESTIMATES,
    GRID_BINS,
    Estimate,
    RunOutcome,
    SelectionThresholds,
    Verdict,
    VqaDistribution,
    compute_report,
    diagram_occupancy,
    feasibility,
    normalize,
    quality,
    quality_function,
    quality_level_curve,
    reproducibility,
    required_sample_size,
    select,
    z_value,
)

THRESHOLDS = SelectionThresholds(f0=0.70, q0=1.20, r0=0.60)


def dist_of(outcomes, n_max=101, p_threshold=0.5) -> VqaDistribution:
    return VqaDistribution(
        outcomes=[RunOutcome(*o) for o in outcomes], n_max=n_max, p_threshold=p_threshold
    )


def uniform_grid_outcomes(n_max=101):
    """One outcome in the center of each of the 100 diagram bins."""
    outcomes = []
    for i in range(GRID_BINS):
        n_calls = 6 + 10 * i  # u = (i + 0.5)/10 with n_max = 101
        for j in range(GRID_BINS):
            p_min = 1.0 - (j + 0.5) / 10  # v = (j + 0.5)/10
            outcomes.append((n_calls, p_min))
    return outcomes


class TestZValue:
    def test_95_percent_quantile(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-6)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5])
    def test_range_enforced(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            z_value(confidence)

    def test_matches_scipy_reference(self):
        from scipy.stats import norm

        for confidence in np.linspace(0.001, 0.999, 999):
            expected = norm.ppf(0.5 * (1.0 + confidence))
            assert z_value(confidence) == pytest.approx(expected, rel=4e-15)


class TestNormalize:
    def test_ideal_run_maps_to_origin(self):
        assert normalize(RunOutcome(1, 1.0), 100) == (0.0, 0.0)

    def test_worst_run_maps_to_far_corner(self):
        assert normalize(RunOutcome(100, 0.0), 100) == (1.0, 1.0)

    def test_midpoint(self):
        point = normalize(RunOutcome(51, 0.75), 101)
        assert point == pytest.approx((0.5, 0.25))

    def test_calls_beyond_budget_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            normalize(RunOutcome(101, 0.5), 100)

    def test_degenerate_budget_rejected(self):
        with pytest.raises(ValueError, match="n_max"):
            normalize(RunOutcome(1, 0.5), 1)


class TestQualityFunction:
    def test_below_threshold_is_worthless(self):
        assert quality_function(RunOutcome(1, 0.49), 101, 0.5) == 0.0

    def test_threshold_boundary_counts_as_feasible(self):
        # the gate uses >= so feasibility and nonzero quality coincide
        assert quality_function(RunOutcome(101, 0.5), 101, 0.5) > 0.0

    def test_slowest_certain_run_scores_one(self):
        assert quality_function(RunOutcome(101, 1.0), 101, 0.5) == pytest.approx(1.0)

    def test_hand_case(self):
        # r = sqrt(0.5^2 + (0.25/0.5)^2) = sqrt(0.5) -> q = sqrt(2)
        value = quality_function(RunOutcome(51, 0.75), 101, 0.5)
        assert value == pytest.approx(1.41421, abs=1e-5)

    def test_ideal_point_capped_not_infinite(self):
        assert quality_function(RunOutcome(1, 1.0), 101, 0.5) == 1e9

    def test_monotone_on_feasible_grid(self):
        n_max, p_t = 1000, 0.5
        calls = np.linspace(1, n_max, 25, dtype=int)
        p_mins = np.linspace(p_t, 1.0, 25)
        grid = [[quality_function(RunOutcome(int(c), float(p)), n_max, p_t) for p in p_mins] for c in calls]
        for row in grid:  # fixed n_calls: more success probability, more quality
            assert all(a < b or b == 1e9 for a, b in zip(row, row[1:]))
        for col in zip(*grid):  # fixed p_min: fewer calls, more quality
            assert all(a > b or a == 1e9 for a, b in zip(col, col[1:]))


class TestFeasibility:
    def test_proportion(self):
        outcomes = [(10, 0.9)] * 280 + [(10, 0.1)] * 120
        est = feasibility(dist_of(outcomes, n_max=101))
        assert est.value == pytest.approx(0.70)
        assert est.half_width == pytest.approx(1.959964 * math.sqrt(0.7 * 0.3 / 400), abs=1e-9)

    def test_half_width_at_worst_case(self):
        outcomes = [(10, 0.9)] * 200 + [(10, 0.1)] * 200
        est = feasibility(dist_of(outcomes, n_max=101))
        assert est.value == 0.5
        assert 0.048 <= est.half_width <= 0.050

    def test_unanimous_ensemble_has_no_width(self):
        est = feasibility(dist_of([(10, 0.9)] * 50, n_max=101))
        assert est == (1.0, 0.0)

    def test_boundary_p_min_counts(self):
        est = feasibility(dist_of([(10, 0.5)], n_max=101, p_threshold=0.5))
        assert est.value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            feasibility(dist_of([]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 100), st.floats(0, 1)), min_size=1, max_size=60), st.integers(0, 999))
    def test_permutation_invariant_and_counts(self, raw, seed):
        outcomes = [(c, p) for c, p in raw]
        shuffled = list(outcomes)
        np.random.default_rng(seed).shuffle(shuffled)
        a = feasibility(dist_of(outcomes, n_max=100))
        b = feasibility(dist_of(shuffled, n_max=100))
        assert a == b
        assert a.value == sum(1 for _, p in outcomes if p >= 0.5) / len(outcomes)


class TestRequiredSampleSize:
    def test_worst_case_five_percent(self):
        # z^2 * 0.25 / 0.05^2 = 384.146 -> 385 runs
        assert required_sample_size(0.05, 0.5, 0.95) == 385

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_proportions_need_nothing(self, p):
        assert required_sample_size(0.05, p) == 0

    def test_inverse_square_law(self):
        z = z_value(0.95)
        raw = z * z * 0.3 * 0.7 / 0.08**2
        assert required_sample_size(0.04, 0.3) == math.ceil(4 * raw)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="half_width"):
            required_sample_size(0.0, 0.5)


class TestQuality:
    def test_all_infeasible_scores_zero(self):
        est = quality(dist_of([(10, 0.1), (20, 0.2), (30, 0.3)]))
        assert est == (0.0, 0.0)

    def test_two_point_hand_case(self):
        # q values are exactly {1.0, 2.0}: mean 1.5, stddev sqrt(1/2)
        est = quality(dist_of([(101, 1.0), (51, 1.0)]))
        assert est.value == pytest.approx(1.5)
        assert est.half_width == pytest.approx(1.959964 * math.sqrt(0.5) / math.sqrt(2), abs=1e-6)
        assert est.half_width == pytest.approx(0.98, abs=0.01)

    def test_identical_outcomes_have_no_width(self):
        est = quality(dist_of([(51, 0.75)] * 40))
        assert est.value == pytest.approx(math.sqrt(2), abs=1e-5)
        assert est.half_width == 0.0

    def test_needs_two_outcomes(self):
        with pytest.raises(ValueError, match="two"):
            quality(dist_of([(10, 0.9)]))


class TestReproducibility:
    def test_point_mass_is_fully_reproducible(self):
        est = reproducibility(dist_of([(51, 0.75)] * 25))
        assert est == (1.0, 0.0)

    def test_uniform_occupancy_is_fully_spread(self):
        est = reproducibility(dist_of(uniform_grid_outcomes()))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_two_bin_even_split(self):
        outcomes = [(1, 1.0)] * 50 + [(101, 1.0)] * 50
        est = reproducibility(dist_of(outcomes))
        assert est.value == pytest.approx(1.0 - math.log(2) / math.log(100), abs=1e-9)
        # symmetric split: ln p identical in both bins, delta-method variance vanishes
        assert est.half_width == pytest.approx(0.0, abs=1e-12)

    def test_uneven_split_has_width(self):
        outcomes = [(1, 1.0)] * 75 + [(101, 1.0)] * 25
        n = 100
        est = reproducibility(dist_of(outcomes))
        entropy_terms = 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
        var = (0.75 * math.log(0.75) ** 2 + 0.25 * math.log(0.25) ** 2 - entropy_terms**2) / n
        assert est.value == pytest.approx(1.0 + entropy_terms / math.log(100), abs=1e-12)
        assert est.half_width == pytest.approx(1.959964 * math.sqrt(var) / math.log(100), abs=1e-6)

    def test_doubling_the_ensemble_changes_nothing(self):
        outcomes = [(6, 0.95), (6, 0.95), (56, 0.55), (96, 0.15)]
        a = reproducibility(dist_of(outcomes))
        b = reproducibility(dist_of(outcomes * 2))
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_spreading_mass_never_raises_it(self):
        concentrated = reproducibility(dist_of([(6, 0.95)] * 64))
        for n_bins in (2, 4, 8):
            spread = [(6 + 10 * (k % GRID_BINS), 0.95) for k in range(n_bins) for _ in range(64 // n_bins)]
            est = reproducibility(dist_of(spread))
            assert est.value <= concentrated.value + 1e-12
            concentrated = est

    def test_needs_two_outcomes(self):
        with pytest.raises(ValueError, match="two"):
            reproducibility(dist_of([(10, 0.9)]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 101), st.floats(0, 1)), min_size=2, max_size=80))
    def test_always_in_unit_interval(self, raw):
        est = reproducibility(dist_of(raw))
        assert -1e-12 <= est.value <= 1.0 + 1e-12

    def test_occupancy_partitions_the_ensemble(self):
        outcomes = uniform_grid_outcomes()[:37]
        counts = diagram_occupancy(dist_of(outcomes))
        assert counts.sum() == 37


class TestWaldCoverage:
    def test_coverage_close_to_nominal(self):
        # Wald intervals undercover near the boundary; demand >= 93% at 95%
        # nominal for a mid-range proportion, per the documented tolerance.
        rng = np.random.default_rng(314159)
        n, p_true, z = 400, 0.7, z_value(0.95)
        covered = 0
        for _ in range(1000):
            value = rng.binomial(n, p_true) / n
            half = z * math.sqrt(value * (1 - value) / n)
            covered += abs(value - p_true) <= half
        assert covered >= 930


class TestSelect:
    def test_feasibility_gate_first(self):
        assert select(0.69, 2.0, 0.9, THRESHOLDS) is Verdict.REJECTED_FEASIBILITY

    def test_quality_gate_second(self):
        assert select(0.80, 1.19, 0.9, THRESHOLDS) is Verdict.REJECTED_QUALITY

    def test_reproducibility_gate_third(self):
        assert select(0.92, 1.36, 0.46, THRESHOLDS) is Verdict.REJECTED_REPRODUCIBILITY

    def test_all_gates_cleared(self):
        assert select(0.75, 1.46, 0.62, THRESHOLDS) is Verdict.ACCEPTED

    def test_boundary_equality_passes(self):
        assert select(0.70, 1.20, 0.60, THRESHOLDS) is Verdict.ACCEPTED

    def test_strict_mode_subtracts_half_widths(self, monkeypatch):
        # Strict selection lives in compute_report alone: select compares
        # whatever triple it is given, and strict mode hands it the lower
        # interval edges.
        estimates = {
            "feasibility": Estimate(0.72, 0.05),
            "quality": Estimate(1.46, 0.09),
            "reproducibility": Estimate(0.62, 0.03),
        }
        for name, est in estimates.items():
            monkeypatch.setattr(metrics, name, lambda dist, confidence, est=est: est)
        dist = dist_of([(6, 0.95)] * 4)
        report = compute_report(dist, THRESHOLDS, strict=True)
        assert report.verdict is Verdict.REJECTED_FEASIBILITY
        assert [getattr(report, name) for name in ESTIMATES] == list(estimates.values())
        assert compute_report(dist, THRESHOLDS).verdict is Verdict.ACCEPTED

    @pytest.mark.parametrize("name", ["f0", "q0", "r0"])
    def test_nan_threshold_rejected(self, name):
        # Every comparison with NaN is False: a check written as q0 < 0.0
        # lets a NaN through, and the quality gate then accepts cells of
        # quality 0. ``json.load`` reads a NaN literal, so an
        # ``analyze --config`` file can carry one.
        values = {"f0": 0.70, "q0": 1.20, "r0": 0.60, name: math.nan}
        with pytest.raises(ValueError, match=name):
            SelectionThresholds(**values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0, 1), st.floats(0, 4), st.floats(0, 1),
        st.floats(0, 1), st.floats(0, 4), st.floats(0, 1),
        st.floats(0, 0.3), st.floats(0, 1), st.floats(0, 0.4),
    )
    def test_raising_thresholds_never_rescues(self, f, q, r, f0, q0, r0, df, dq, dr):
        base = SelectionThresholds(f0=min(f0, 1.0), q0=q0, r0=min(r0, 1.0))
        raised = SelectionThresholds(
            f0=min(base.f0 + df, 1.0), q0=base.q0 + dq, r0=min(base.r0 + dr, 1.0)
        )
        if select(f, q, r, base) is not Verdict.ACCEPTED:
            assert select(f, q, r, raised) is not Verdict.ACCEPTED


class TestReport:
    def test_verdict_consistent_with_estimates(self):
        outcomes = [(6, 0.95)] * 90 + [(96, 0.05)] * 10
        dist = dist_of(outcomes)
        report = compute_report(dist, THRESHOLDS, alpha=0.75, shots=1000)
        assert report.feasibility.value == pytest.approx(0.9)
        assert report.verdict is select(
            report.feasibility.value, report.quality.value, report.reproducibility.value, THRESHOLDS
        )
        assert report.alpha == 0.75 and report.shots == 1000
        estimates = [getattr(report, name) for name in ESTIMATES]
        assert all(isinstance(est, Estimate) for est in estimates)
        assert report.to_csv_row()[4:-1] == [x for est in estimates for x in est]
        assert report.to_csv_row()[-1] == report.verdict.value
        assert len(report.to_csv_row()) == 11

    def test_estimates_are_named_pairs(self):
        est = Estimate(0.5, 0.01)
        assert est.value == 0.5 and est.half_width == 0.01


class TestLevelCurves:
    def test_unit_level_reaches_the_far_corner(self):
        curve = quality_level_curve(1.0, p_threshold=0.5)
        assert curve[0] == pytest.approx((1.0, 0.0))
        assert curve[-1] == pytest.approx((0.0, 0.5))

    @pytest.mark.parametrize("q_value", [1.0, 2.0, 4.0])
    def test_points_lie_on_the_level_set(self, q_value):
        p_t = 0.5
        for u, v in quality_level_curve(q_value, p_t):
            r = math.hypot(u, v / (1 - p_t))
            assert r == pytest.approx(1.0 / q_value, abs=1e-12)

    def test_wide_curves_clip_to_the_square(self):
        curve = quality_level_curve(0.5, p_threshold=0.5)
        assert np.all(curve[:, 0] <= 1.0 + 1e-12)
