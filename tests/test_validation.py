"""The input-check contract: which inputs are rejected, with which
exception type and which message."""
import numpy as np
import pytest

from segact.validation import (check_binary, check_image_stack,
                               check_prediction_target, check_probabilities)

NAN, INF = float("nan"), float("inf")
BELOW_ZERO = float(np.nextafter(0.0, -1.0))
ABOVE_ONE = float(np.nextafter(1.0, 2.0))


def _raises(fn, exc_type, message):
    with pytest.raises(exc_type) as info:
        fn()
    assert str(info.value) == message
    return info.value


class TestCheckProbabilities:
    @pytest.mark.parametrize("values", [
        [NAN], [INF], [-INF], [0.5, NAN], [NAN, 0.5], [0.5, INF, 0.25],
        [-INF, 0.5], [NAN, 2.0], [2.0, NAN], [-1.0, NAN], [NAN, -1.0, 2.0],
        [INF, -0.5], [-INF, 1.5], [NAN, INF, -INF],
    ])
    def test_non_finite_raises_floating_point_error(self, values):
        err = _raises(lambda: check_probabilities(values),
                      FloatingPointError, "yhat must be finite")
        assert not isinstance(err, ValueError)

    def test_non_finite_in_a_large_array(self):
        for bad in (NAN, INF, -INF):
            values = np.full(70_000, 0.5)
            values[54_321] = bad
            _raises(lambda: check_probabilities(values),
                    FloatingPointError, "yhat must be finite")

    @pytest.mark.parametrize("values", [
        [BELOW_ZERO], [ABOVE_ONE], [0.5, ABOVE_ONE], [BELOW_ZERO, 0.5],
        [-1e-300, 1.0], [0.0, 1.0 + 1e-12], [-2.0, 3.0],
    ])
    def test_just_outside_the_unit_interval_raises_value_error(self, values):
        _raises(lambda: check_probabilities(values), ValueError,
                "yhat must lie in [0, 1]")

    def test_name_appears_in_the_message(self):
        _raises(lambda: check_probabilities([NAN], name="p"),
                FloatingPointError, "p must be finite")
        _raises(lambda: check_probabilities([2.0], name="p"), ValueError,
                "p must lie in [0, 1]")
        _raises(lambda: check_probabilities([], name="p"), ValueError,
                "p must not be empty")

    def test_bounds_and_signed_zero_accepted(self):
        out = check_probabilities([[0.0, -0.0], [1.0, 0.5]])
        assert out.dtype == np.float64 and out.shape == (4,)
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 0.5])

    @pytest.mark.parametrize("values", [[], np.zeros(0), np.zeros((0, 3))])
    def test_empty_raises_value_error(self, values):
        _raises(lambda: check_probabilities(values), ValueError,
                "yhat must not be empty")


class TestCheckBinary:
    @pytest.mark.parametrize("values", [
        [0.5], [NAN], [2.0], [INF], [-INF], [-1.0], [0.0, 1.0, 0.5],
        [1.0, NAN], [NAN, 0.0], [0.0, 2.0, 1.0], [ABOVE_ONE],
        [float(np.nextafter(1.0, 0.0))], [5e-324],
    ])
    def test_non_binary_raises_value_error(self, values):
        _raises(lambda: check_binary(values), ValueError,
                "y must contain only 0 and 1")

    def test_non_binary_in_a_large_array(self):
        for bad in (0.5, NAN, 2.0):
            values = np.tile([0.0, 1.0], 35_000)
            values[54_321] = bad
            _raises(lambda: check_binary(values), ValueError,
                    "y must contain only 0 and 1")

    def test_name_appears_in_the_message(self):
        _raises(lambda: check_binary([0.5], name="mask"), ValueError,
                "mask must contain only 0 and 1")
        _raises(lambda: check_binary([], name="mask"), ValueError,
                "mask must not be empty")

    def test_zeros_ones_and_signed_zero_accepted(self):
        out = check_binary([[0.0, 1.0], [-0.0, 1.0]])
        assert out.dtype == np.float64 and out.shape == (4,)
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0, 1.0])
        check_binary([True, False])

    def test_empty_raises_value_error(self):
        _raises(lambda: check_binary([]), ValueError, "y must not be empty")


class TestCheckPredictionTarget:
    def test_probabilities_are_checked_first(self):
        _raises(lambda: check_prediction_target([NAN], [0.5]),
                FloatingPointError, "yhat must be finite")
        _raises(lambda: check_prediction_target([], []), ValueError,
                "yhat must not be empty")
        _raises(lambda: check_prediction_target([0.5], []), ValueError,
                "y must not be empty")
        _raises(lambda: check_prediction_target([0.5], [NAN]), ValueError,
                "y must contain only 0 and 1")

    def test_length_mismatch(self):
        _raises(lambda: check_prediction_target([0.5, 0.5], [1.0]),
                ValueError, "length mismatch: 2 predictions vs 1 targets")


class TestCheckImageStack:
    def test_non_binary_masks_rejected(self):
        X = np.zeros((2, 3, 1))
        for bad in (0.5, NAN, 2.0):
            y = np.zeros((2, 3))
            y[1, 2] = bad
            _raises(lambda: check_image_stack(X, y), ValueError,
                    "y must contain only 0 and 1")

    def test_binary_masks_accepted(self):
        X, y = check_image_stack(np.zeros((3, 1)), [1.0, -0.0, 0.0])
        assert X.shape == (1, 3, 1) and y.shape == (1, 3)
