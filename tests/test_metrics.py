"""NLL, dice sweep, reliability diagrams, calibration gap, and the KDE."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (adaptive_bruteforce, dice_sweep_bruteforce,
                     evenly_spaced_bruteforce, kde_direct_sum)
from segact import (THRESHOLD_SWEEP, best_threshold_dice, calibration_gap,
                    clamp_probability, dice_at_threshold, kde_conditional,
                    make_loss, nll, reliability)
from segact.exceptions import EmptyDiagramError


def random_instance(rng, max_pixels=64):
    """A small prediction/target pair; sometimes gridded values so that
    duplicates and exact bin edges are exercised."""
    n = int(rng.integers(1, max_pixels + 1))
    if rng.random() < 0.3:
        yhat = rng.integers(0, 21, n) / 20.0
    else:
        yhat = rng.uniform(0.0, 1.0, n)
    y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
    return yhat, y


class TestNll:
    def test_half_is_log_two(self):
        assert nll([0.5], [1.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_near_perfect(self):
        assert nll([1.0 - 1e-7], [1.0]) == pytest.approx(1e-7, rel=1e-3)

    def test_identical_to_bce_to_the_last_bit(self):
        rng = np.random.default_rng(0)
        bce = make_loss("bce")
        for _ in range(50):
            yhat, y = random_instance(rng)
            yhat = clamp_probability(yhat)
            assert nll(yhat, y) == bce.value(yhat, y)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nll([], [])


class TestDiceAtThreshold:
    def test_exact_match(self):
        assert dice_at_threshold([0.9, 0.2], [1.0, 0.0], 0.5) == 1.0

    def test_disjoint(self):
        assert dice_at_threshold([0.9, 0.2], [0.0, 1.0], 0.5) == 0.0

    def test_hand_counted_partial_overlap(self):
        # pred = {0, 1}, truth = {0, 2}: dice = 2 * 1 / (2 + 2).
        assert dice_at_threshold([0.6, 0.6, 0.1], [1.0, 0.0, 1.0], 0.5) == 0.5

    def test_empty_prediction_of_empty_mask_is_one(self):
        assert dice_at_threshold([0.1, 0.2], [0.0, 0.0], 0.5) == 1.0

    def test_returns_a_python_float(self):
        # records.csv writes the value with str(); a numpy scalar would
        # print as "np.float64(...)".
        assert type(dice_at_threshold([0.6, 0.1], [1.0, 1.0], 0.5)) is float

    def test_binary_mask_selfdice_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = (rng.random(30) < 0.4).astype(float)
            assert dice_at_threshold(y, y, 0.5) == 1.0

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_prediction_count_nonincreasing_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        yhat, _ = random_instance(rng)
        counts = [int(np.sum(yhat > t)) for t in THRESHOLD_SWEEP]
        assert all(b <= a for a, b in zip(counts, counts[1:]))


class TestDiceSweep:
    def test_constant_predictions_all_foreground(self):
        res = best_threshold_dice([0.6] * 5, [1.0] * 5)
        assert res.best_dice == 1.0
        assert res.best_threshold == 0.0

    def test_all_background_smallest_excluding_threshold_wins(self):
        # Predictions of 0.4 with an empty mask: any t >= 0.4 empties the
        # prediction (strict inequality), giving dice 1; smallest is 0.4.
        res = best_threshold_dice([0.4, 0.4, 0.4], [0.0, 0.0, 0.0])
        assert res.best_dice == 1.0
        assert res.best_threshold == 0.4

    def test_sweep_set_is_fixed(self):
        assert len(THRESHOLD_SWEEP) == 21
        assert THRESHOLD_SWEEP[0] == 0.0 and THRESHOLD_SWEEP[-1] == 1.0
        res = best_threshold_dice([0.5], [1.0])
        assert res.best_threshold in THRESHOLD_SWEEP
        assert len(res.as_table()) == 21

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            yhat, y = random_instance(rng)
            res = best_threshold_dice(yhat, y)
            t_ref, d_ref, table_ref = dice_sweep_bruteforce(yhat, y)
            assert res.best_threshold == t_ref
            assert res.best_dice == d_ref
            assert list(res.dice_values) == table_ref

    def test_matches_bruteforce_on_large_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            yhat, y = random_instance(rng, max_pixels=5000)
            res = best_threshold_dice(yhat, y)
            t_ref, d_ref, table_ref = dice_sweep_bruteforce(yhat, y)
            assert (res.best_threshold, res.best_dice) == (t_ref, d_ref)
            assert list(res.dice_values) == table_ref


class TestReliability:
    def test_two_point_example(self):
        d = reliability([0.1, 0.9], [0.0, 1.0], "evenly-spaced", n_bins=2)
        np.testing.assert_allclose(d.confidence, [0.1, 0.9])
        np.testing.assert_allclose(d.fraction, [0.0, 1.0])
        np.testing.assert_array_equal(d.counts, [1, 1])

    def test_prediction_of_one_lands_in_last_bin(self):
        d = reliability([1.0, 0.0], [1.0, 0.0], "evenly-spaced", n_bins=15)
        assert d.counts[-1] == 1 and d.counts[0] == 1

    def test_forty_point_handbuilt_instance_both_strategies(self):
        rng = np.random.default_rng(7)
        yhat = np.concatenate([rng.uniform(0.0, 0.3, 25),
                               rng.uniform(0.3, 1.0, 15)])
        y = (rng.random(40) < yhat).astype(float)
        even = reliability(yhat, y, "evenly-spaced", n_bins=15)
        c_ref, f_ref, n_ref = evenly_spaced_bruteforce(yhat, y, 15)
        np.testing.assert_array_equal(even.counts, n_ref)
        np.testing.assert_array_equal(even.confidence, c_ref)
        np.testing.assert_array_equal(even.fraction, f_ref)

        adaptive = reliability(yhat, y, "adaptive", n_bins=15)
        ref = adaptive_bruteforce(yhat, y, 15, 1e-2, 1.0 - 1e-2)
        np.testing.assert_array_equal(adaptive.counts, ref[2])
        np.testing.assert_array_equal(adaptive.confidence, ref[0])
        np.testing.assert_array_equal(adaptive.fraction, ref[1])

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            yhat, y = random_instance(rng)
            for n_bins in (2, 7, 15):
                even = reliability(yhat, y, "evenly-spaced", n_bins=n_bins)
                c_ref, f_ref, n_ref = evenly_spaced_bruteforce(yhat, y,
                                                               n_bins)
                np.testing.assert_array_equal(even.counts, n_ref)
                np.testing.assert_array_equal(even.confidence, c_ref)
                np.testing.assert_array_equal(even.fraction, f_ref)
                ref = adaptive_bruteforce(yhat, y, n_bins, 1e-2, 1 - 1e-2)
                try:
                    adaptive = reliability(yhat, y, "adaptive",
                                           n_bins=n_bins)
                except EmptyDiagramError:
                    assert ref is None
                    continue
                np.testing.assert_array_equal(adaptive.counts, ref[2])
                np.testing.assert_array_equal(adaptive.confidence, ref[0])
                np.testing.assert_array_equal(adaptive.fraction, ref[1])

    def test_evenly_spaced_bitwise_on_large_instances(self):
        # Bins of hundreds of members, whose sums are pairwise blocked.
        rng = np.random.default_rng(44)
        for _ in range(3):
            yhat, y = random_instance(rng, max_pixels=5000)
            even = reliability(yhat, y, "evenly-spaced", n_bins=15)
            c_ref, f_ref, n_ref = evenly_spaced_bruteforce(yhat, y, 15)
            np.testing.assert_array_equal(even.counts, n_ref)
            np.testing.assert_array_equal(even.confidence, c_ref)
            np.testing.assert_array_equal(even.fraction, f_ref)

    def test_count_conservation_and_edge_containment(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            yhat, y = random_instance(rng, max_pixels=200)
            even = reliability(yhat, y, "evenly-spaced", n_bins=15)
            assert even.counts.sum() == yhat.size
            for b in range(15):
                if even.counts[b]:
                    assert even.bin_edges[b] <= even.confidence[b] <= \
                        even.bin_edges[b + 1]

    def test_adaptive_counts_balanced(self):
        rng = np.random.default_rng(9)
        yhat = rng.uniform(0.05, 0.95, 333)
        y = (rng.random(333) < 0.5).astype(float)
        d = reliability(yhat, y, "adaptive", n_bins=15)
        assert d.counts.sum() == 333
        assert d.counts.max() - d.counts.min() <= 1

    def test_adaptive_filters_extremes(self):
        yhat = np.array([1e-3, 0.5, 0.999])
        y = np.array([0.0, 1.0, 1.0])
        d = reliability(yhat, y, "adaptive", n_bins=2)
        assert d.counts.sum() == 1  # only the 0.5 survives

    def test_adaptive_all_filtered_raises(self):
        with pytest.raises(EmptyDiagramError):
            reliability([1e-4, 1.0 - 1e-4], [0.0, 1.0], "adaptive")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            reliability([0.5], [1.0], "quantile")


class TestCalibrationGap:
    def test_zero_when_confidence_equals_fraction(self):
        from segact.metrics import ReliabilityDiagram
        d = ReliabilityDiagram(
            strategy="evenly-spaced", n_bins=2,
            confidence=np.array([0.25, 0.75]),
            fraction=np.array([0.25, 0.75]),
            counts=np.array([4, 4]))
        assert calibration_gap(d) == 0.0

    def test_maximum_over_bins(self):
        # Hand-built diagram: gaps of 0.05 and 0.20.
        from segact.metrics import ReliabilityDiagram
        d = ReliabilityDiagram(
            strategy="evenly-spaced", n_bins=2,
            confidence=np.array([0.25, 0.80]),
            fraction=np.array([0.30, 0.60]),
            counts=np.array([3, 3]))
        assert calibration_gap(d) == pytest.approx(0.20)

    def test_empty_bins_are_ignored(self):
        from segact.metrics import ReliabilityDiagram
        d = ReliabilityDiagram(
            strategy="evenly-spaced", n_bins=3,
            confidence=np.array([0.2, np.nan, 0.8]),
            fraction=np.array([0.1, np.nan, 0.8]),
            counts=np.array([5, 0, 5]))
        assert calibration_gap(d) == pytest.approx(0.1)

    def test_monte_carlo_calibrated_stream(self):
        rng = np.random.default_rng(2024)
        yhat = rng.uniform(0.0, 1.0, 100_000)
        y = (rng.random(100_000) < yhat).astype(float)
        for strategy in ("evenly-spaced", "adaptive"):
            gap = calibration_gap(reliability(yhat, y, strategy, n_bins=15))
            assert gap < 0.02

    def test_all_bins_empty_rejected(self):
        from segact.metrics import ReliabilityDiagram
        d = ReliabilityDiagram(
            strategy="evenly-spaced", n_bins=2,
            confidence=np.array([np.nan, np.nan]),
            fraction=np.array([np.nan, np.nan]),
            counts=np.array([0, 0]))
        with pytest.raises(ValueError):
            calibration_gap(d)


class TestKde:
    def test_point_mass_peaks_at_the_value(self):
        yhat = np.full(50, 0.8)
        y = np.ones(50)
        curve = kde_conditional(yhat, y, grid_points=512)
        peak = curve.grid[int(np.argmax(curve.density))]
        assert peak == pytest.approx(0.8, abs=curve.step)

    def test_density_integrates_to_about_one(self):
        rng = np.random.default_rng(5)
        yhat = np.clip(rng.normal(0.55, 0.1, 500), 0.0, 1.0)
        y = np.ones(500)
        curve = kde_conditional(yhat, y)
        mass = float(np.trapezoid(curve.density, curve.grid))
        assert 0.95 <= mass <= 1.0

    def test_mixture_is_bimodal(self):
        yhat = np.concatenate([np.full(40, 0.1), np.full(40, 0.9)])
        y = np.ones(80)
        curve = kde_conditional(yhat, y)
        d = np.diff(curve.density)
        sign_changes = int(np.sum(np.diff(np.sign(d[d != 0.0])) != 0.0))
        maxima = [i for i in range(1, len(curve.density) - 1)
                  if curve.density[i] > curve.density[i - 1]
                  and curve.density[i] >= curve.density[i + 1]]
        assert len(maxima) == 2
        assert sign_changes >= 2

    def test_silverman_bandwidth(self):
        rng = np.random.default_rng(8)
        yhat = rng.uniform(0.2, 0.8, 200)
        y = np.ones(200)
        curve = kde_conditional(yhat, y)
        expected = 1.06 * float(np.std(yhat, ddof=1)) * 200 ** -0.2
        assert curve.bandwidth == pytest.approx(expected, rel=1e-12)
        assert curve.n_points == 200

    def test_uses_only_foreground_pixels(self):
        yhat = np.array([0.9, 0.9, 0.1, 0.1])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        curve = kde_conditional(yhat, y)
        assert curve.n_points == 2
        peak = curve.grid[int(np.argmax(curve.density))]
        assert peak == pytest.approx(0.9, abs=2 * curve.step)

    def test_too_few_foreground_rejected(self):
        with pytest.raises(ValueError):
            kde_conditional([0.5, 0.5], [1.0, 0.0])


def _kde_cases():
    """(yhat, y) pairs by name; y is all foreground unless stated."""
    rng = np.random.default_rng(11)
    n = 100_000
    cases = {
        "point mass at 0.8": np.full(50, 0.8),
        "bimodal 0.1/0.9": np.concatenate([np.full(40, 0.1),
                                           np.full(40, 0.9)]),
        "within 1e-4 of 1": 1.0 - rng.uniform(0.0, 1e-4, 1000),
        "uniform": rng.uniform(0.0, 1.0, n),
        "clipped normal": np.clip(rng.normal(0.55, 0.1, n), 0.0, 1.0),
    }
    cases = {name: (yhat, np.ones(yhat.size))
             for name, yhat in cases.items()}
    cases["two points"] = (np.array([0.3, 0.7]), np.ones(2))
    cases["two foreground of four"] = (np.array([0.9, 0.9, 0.1, 0.1]),
                                       np.array([1.0, 1.0, 0.0, 0.0]))
    return cases


class TestKdeAgainstExactSum:
    """The linear-binned KDE against the direct Gaussian sum."""

    #: Largest allowed error at any grid point, relative to the exact
    #: curve's peak.
    TOLERANCE = 5e-3

    @pytest.mark.parametrize("case", list(_kde_cases()))
    def test_within_tolerance_of_the_direct_sum(self, case):
        yhat, y = _kde_cases()[case]
        curve = kde_conditional(yhat, y)
        exact = kde_direct_sum(yhat, y)
        assert curve.bandwidth == exact.bandwidth
        assert curve.n_points == exact.n_points
        np.testing.assert_array_equal(curve.grid, exact.grid)
        error = np.max(np.abs(curve.density - exact.density))
        assert error <= self.TOLERANCE * np.max(exact.density)

    def test_bandwidth_floor_is_hit(self):
        curve = kde_conditional(*_kde_cases()["within 1e-4 of 1"])
        assert curve.bandwidth == 1e-3

    def test_other_grid_sizes(self):
        rng = np.random.default_rng(4)
        yhat = rng.beta(2.0, 5.0, 5000)
        y = (rng.random(5000) < 0.6).astype(float)
        for grid_points in (2, 3, 100, 2048):
            curve = kde_conditional(yhat, y, grid_points)
            exact = kde_direct_sum(yhat, y, grid_points)
            assert curve.density.shape == (grid_points,)
            error = np.max(np.abs(curve.density - exact.density))
            assert error <= self.TOLERANCE * np.max(exact.density)
