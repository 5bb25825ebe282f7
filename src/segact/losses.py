"""Loss functions on clamped probability predictions.

All three losses take a probability array (already clamped into
``[1e-7, 1 - 1e-7]`` by the caller, see ``clamp_probability``) and a
binary target array.  Cross-entropy and squared error are averaged over
pixels so the gradient scale does not depend on image size; soft dice is
one overlap term per group of pixels: the whole array given to the
public methods, or each image of a training batch.
"""
from __future__ import annotations

import numpy as np

from .activations import CLAMP_HI, CLAMP_LO, make_activation
from .validation import check_binary, check_prediction_target


class Loss:
    """Value and gradient of a loss over probability predictions.

    The public methods validate their inputs and flatten them, so the
    arrays form one group.  Subclasses implement ``_value`` and ``_grad``
    on validated arrays of one shape, whose leading axes (if any) group
    the pixels of the last axis; only soft dice depends on the grouping.
    """

    name = "base"
    label = "base"

    def value(self, yhat, y) -> float:
        return self._value(*check_prediction_target(yhat, y))

    def grad(self, yhat, y) -> np.ndarray:
        """Gradient of ``value`` with respect to each prediction."""
        return self._grad(*check_prediction_target(yhat, y))

    def _value(self, p, t) -> float:
        raise NotImplementedError

    def _grad(self, p, t) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class BinaryCrossEntropy(Loss):
    """Mean of -[y log(p) + (1 - y) log(1 - p)]."""

    name = "bce"
    label = "BCE"

    def _value(self, p, t):
        return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log1p(-p)))

    def _grad(self, p, t):
        return (-t / p + (1.0 - t) / (1.0 - p)) / p.size


class MeanSquaredError(Loss):
    """Mean of (p - y)^2."""

    name = "mse"
    label = "MSE"

    def _value(self, p, t):
        d = p - t
        return float(np.mean(d * d))

    def _grad(self, p, t):
        return 2.0 * (p - t) / p.size


class SoftDice(Loss):
    """1 - 2 sum(p y) / (sum(p) + sum(y) + denom_epsilon).

    The epsilon keeps the denominator positive when both prediction and
    target are all zero.  Unlike the pixelwise losses, every prediction
    couples to every other in its group through the sums.  With grouped
    input the loss is the mean of one such term per group (image), which
    keeps its scale independent of the batch size.
    """

    name = "dice"
    label = "Dice"

    def __init__(self, denom_epsilon: float = 1e-7):
        if denom_epsilon <= 0.0:
            raise ValueError("denom_epsilon must be positive")
        self.denom_epsilon = float(denom_epsilon)

    def _overlap(self, p, t):
        inter = np.sum(p * t, axis=-1, keepdims=True)
        denom = np.sum(p, axis=-1, keepdims=True) + \
            np.sum(t, axis=-1, keepdims=True) + self.denom_epsilon
        return inter, denom

    def _value(self, p, t):
        inter, denom = self._overlap(p, t)
        return float(np.mean(1.0 - 2.0 * inter / denom))

    def _grad(self, p, t):
        inter, denom = self._overlap(p, t)
        return (2.0 * inter - 2.0 * t * denom) / (denom * denom) / inter.size

    def __repr__(self):
        return f"SoftDice(denom_epsilon={self.denom_epsilon!r})"


def _logit_head(activation, loss, logits, y, bounds=None):
    """Loss value and d loss / d logit through activation, clamp and loss.

    Shared by the train step and ``loss_gradient_wrt_logits``; inputs
    are not validated.  ``logits`` and ``y`` share one shape, grouped as
    ``Loss`` describes.  ``bounds=None`` takes the activation's
    ``training_bounds`` of these logits.  The clamp is a stop-gradient.
    """
    if bounds is None:
        bounds = activation.training_bounds(logits)
    p_raw = np.asarray(activation(logits, bounds=bounds), dtype=float)
    p = np.clip(p_raw, CLAMP_LO, CLAMP_HI)
    g = loss._grad(p, y)
    g *= activation.derivative(logits, bounds=bounds)
    g *= p == p_raw  # False where the clamp was active
    return loss._value(p, y), g


def loss_gradient_wrt_logits(loss, activation, logits, y, bounds=None):
    """Chain rule through activation and clamp: d loss / d logit.

    Where the forward clamp was active the gradient is zero, matching a
    stop-gradient treatment of the clamp.
    """
    loss = make_loss(loss)
    activation = make_activation(activation)
    logits = np.asarray(logits, dtype=float)
    y = check_binary(y)
    if y.size != logits.size:
        raise ValueError(
            f"length mismatch: {logits.size} logits vs {y.size} targets")
    _, g = _logit_head(activation, loss, logits, y.reshape(logits.shape),
                       bounds)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("probabilities must be finite")
    return g


_REGISTRY = {cls.name: cls for cls in (
    BinaryCrossEntropy, SoftDice, MeanSquaredError)}

#: Catalogue order used by tables and reports.
LOSS_ORDER = tuple(_REGISTRY)

_ALIASES = {
    "binary_cross_entropy": "bce",
    "cross_entropy": "bce",
    "mean_squared_error": "mse",
    "soft_dice": "dice",
    "softdice": "dice",
}


def make_loss(name, **kwargs) -> Loss:
    """Build a loss from its registry name or an alias, in any case; its
    ``name`` is the registry name."""
    if isinstance(name, Loss):
        return name
    key = _ALIASES.get(str(name).lower(), str(name).lower())
    if key not in _REGISTRY:
        known = ", ".join(LOSS_ORDER)
        raise ValueError(f"unknown loss {name!r}; expected one of {known}")
    return _REGISTRY[key](**kwargs)
