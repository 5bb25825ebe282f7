"""Input validation helpers shared by the estimator, losses and metrics."""
from __future__ import annotations

import numpy as np

from .exceptions import NotFittedError


def as_float_array(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        a = a.ravel()
    return a


def check_probabilities(yhat, name: str = "yhat") -> np.ndarray:
    yhat = as_float_array(yhat)
    if yhat.size == 0:
        raise ValueError(f"{name} must not be empty")
    # NaN propagates through min and max, so two reductions see every
    # non-finite value.
    lo, hi = yhat.min(), yhat.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise FloatingPointError(f"{name} must be finite")
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")
    return yhat


def _is_binary(y) -> bool:
    """Every value is 0 or 1 (NaN is neither)."""
    return (np.count_nonzero(y == 0.0) + np.count_nonzero(y == 1.0)
            == y.size)


def check_binary(y, name: str = "y") -> np.ndarray:
    y = as_float_array(y)
    if y.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not _is_binary(y):
        raise ValueError(f"{name} must contain only 0 and 1")
    return y


def check_prediction_target(yhat, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (probabilities, binary targets) pair of equal length."""
    yhat = check_probabilities(yhat)
    y = check_binary(y)
    if yhat.shape != y.shape:
        raise ValueError(
            f"length mismatch: {yhat.shape[0]} predictions vs "
            f"{y.shape[0]} targets")
    return yhat, y


def check_weights(weight, size: int):
    """Validate finite, non-negative per-pixel weights for ``size`` pixels."""
    weight = as_float_array(weight)
    if weight.size != size:
        raise ValueError(
            f"length mismatch: {weight.size} weights vs {size} predictions")
    if weight.size:
        lo, hi = weight.min(), weight.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise FloatingPointError("sample_weight must be finite")
        if lo < 0.0:
            raise ValueError("sample_weight must not be negative")
    return weight


def check_image_stack(X, y=None):
    """Coerce inputs to (n_images, n_pixels, n_features) and matching masks.

    A single image may be passed as a 2-D array; it is promoted to a
    stack of one.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        X = X[None]
    if X.ndim != 3:
        raise ValueError("X must have shape (n_images, n_pixels, n_features)")
    if not np.all(np.isfinite(X)):
        raise ValueError("X must be finite")
    if y is None:
        return X
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None]
    if y.shape != X.shape[:2]:
        raise ValueError(
            f"y shape {y.shape} does not match images {X.shape[:2]}")
    if not _is_binary(y):
        raise ValueError("y must contain only 0 and 1")
    return X, y


def check_is_fitted(estimator, attribute: str = "layers_"):
    if not hasattr(estimator, attribute):
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted yet; call fit() first")
