"""Output activation functions mapping logits to probabilities.

Seven activations are provided.  Five of them (normal CDF, sigmoid,
inverse square root, arctangent, softsign) are smooth, strictly
increasing, symmetric maps with ``f(0) = 1/2`` and ``f(x) + f(-x) = 1``.
The linear activation rescales logits against a min/max context, and
hardtanh clips logits into the unit interval.

Each activation exposes its derivative and an *effective domain*: the
logit interval outside which the output is within ``epsilon`` of the
saturation values 0 and 1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .erf import erf
from .exceptions import DegenerateBoundsWarning, NonFiniteBoundsError

CLAMP_LO = 1e-7
CLAMP_HI = 1.0 - 1e-7

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Bisection tolerance for effective-domain roots, and the window within
# which a root is snapped to the nearest integer before floor/ceil (the
# softsign root at epsilon=0.0025 is exactly 199; without snapping the
# bisection error could push ceil() one integer too far).
_ROOT_TOL = 1e-9
_SNAP_TOL = 1e-7


def clamp_probability(p):
    """Clip probabilities into [1e-7, 1 - 1e-7] so logs stay finite."""
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise FloatingPointError("probabilities must be finite")
    out = np.clip(p, CLAMP_LO, CLAMP_HI)
    return out.item() if out.ndim == 0 else out


@dataclass(frozen=True)
class EffectiveDomain:
    """Logit interval on which an activation is at least epsilon away
    from both saturation values."""

    lo: float
    hi: float
    epsilon: float
    rounded: bool
    lo_exact: float
    hi_exact: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("effective domain requires lo < hi")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")


def _snap(x: float) -> float:
    r = round(x)
    return float(r) if abs(x - r) <= _SNAP_TOL else x


def _solve_upper(fn, target: float) -> float:
    """Root of fn(x) = target for increasing fn with fn(0) = 1/2 < target."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if fn(hi) >= target:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ArithmeticError("failed to bracket the effective-domain root")
    while hi - lo > _ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Activation:
    """Increasing map from logits to probabilities in [0, 1]."""

    name = "base"
    label = "base"
    symmetric = True  # f(x) + f(-x) == 1
    smooth = True     # continuously differentiable everywhere

    def __call__(self, x, bounds=None):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._value(x), dtype=float)
        return out.item() if out.ndim == 0 else out

    def derivative(self, x, bounds=None):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._derivative(x), dtype=float)
        return out.item() if out.ndim == 0 else out

    def _value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def training_bounds(self, logits):
        """Rescale context used by a training step; None for fixed maps."""
        return None

    def evaluation_bounds(self, logits):
        """Rescale context used at prediction time; None for fixed maps."""
        return None

    def effective_domain(self, epsilon: float) -> EffectiveDomain:
        """Solve f(x) = 1 - epsilon numerically; the lower bound follows
        from symmetry.  Bounds are rounded outward to integers."""
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        hi = _solve_upper(lambda v: float(self(v)), 1.0 - epsilon)
        return EffectiveDomain(
            lo=float(np.floor(_snap(-hi))),
            hi=float(np.ceil(_snap(hi))),
            epsilon=epsilon,
            rounded=True,
            lo_exact=-hi,
            hi_exact=hi,
        )

    def __repr__(self):
        return f"{type(self).__name__}()"


class NormalCdf(Activation):
    """Cumulative distribution function of the standard normal.

    The derivative is the standard normal density
    ``exp(-x^2 / 2) / sqrt(2 pi)``.
    """

    name = "cdf"
    label = "normal CDF"

    def _value(self, x):
        return 0.5 * erf(x / _SQRT2) + 0.5

    def _derivative(self, x):
        return np.exp(-0.5 * x * x) * _INV_SQRT_2PI


class Sigmoid(Activation):
    """Logistic function 1 / (1 + exp(-x))."""

    name = "sigmoid"
    label = "sigmoid"

    def _value(self, x):
        # Evaluate through exp(-|x|) so neither tail overflows.
        z = np.exp(-np.abs(x))
        return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))

    def _derivative(self, x):
        s = self._value(x)
        return s * (1.0 - s)


class InverseSquareRoot(Activation):
    """x / (2 sqrt(1 + x^2)) + 1/2."""

    name = "isqrt"
    label = "inverse square root"

    def _value(self, x):
        return 0.5 * x / np.sqrt(1.0 + x * x) + 0.5

    def _derivative(self, x):
        return 0.5 * (1.0 + x * x) ** -1.5


class Arctangent(Activation):
    """arctan(x) / pi + 1/2."""

    name = "arctan"
    label = "arctangent"

    def _value(self, x):
        return np.arctan(x) / math.pi + 0.5

    def _derivative(self, x):
        return 1.0 / (math.pi * x * x + math.pi)


class Softsign(Activation):
    """x / (2 (1 + |x|)) + 1/2."""

    name = "softsign"
    label = "softsign"

    def _value(self, x):
        return 0.5 * x / (1.0 + np.abs(x)) + 0.5

    def _derivative(self, x):
        return 0.5 / (1.0 + np.abs(x)) ** 2


class HardTanh(Activation):
    """Identity clipped to [0, 1]: 1 for x > 1, 0 for x < 0, x otherwise.

    The derivative is 1 on the closed interval [0, 1] and 0 outside.
    """

    name = "hardtanh"
    label = "hardtanh"
    symmetric = False
    smooth = False

    def _value(self, x):
        return np.clip(x, 0.0, 1.0)

    def _derivative(self, x):
        return ((x >= 0.0) & (x <= 1.0)).astype(float)

    def effective_domain(self, epsilon):
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        return EffectiveDomain(0.0, 1.0, epsilon, rounded=False,
                               lo_exact=0.0, hi_exact=1.0)


class Linear(Activation):
    """Logits rescaled against a min/max context and clipped to [0, 1].

    The context can be passed per call as ``bounds=(lo, hi)`` (scalars or
    arrays broadcastable against ``x``), fixed at construction, or, when
    absent, derived from the evaluated array itself.  ``scope`` selects
    whether a training step derives the context from the whole batch (the
    default, as in ``PixelClassifier``) or per image row.
    """

    name = "linear"
    label = "linear"
    symmetric = False
    smooth = False

    def __init__(self, scope: str = "batch", bounds=None):
        if scope not in ("image", "batch"):
            raise ValueError("scope must be 'image' or 'batch'")
        if bounds is not None:
            bounds = (float(bounds[0]), float(bounds[1]))
            self._check_bounds(*bounds)
        self.scope = scope
        self.bounds = bounds

    @staticmethod
    def _check_bounds(lo, hi):
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise NonFiniteBoundsError("rescale bounds must be finite")
        if np.any(np.asarray(lo) > np.asarray(hi)):
            raise ValueError("rescale bounds require x_min <= x_max")

    def _resolve(self, x, bounds):
        if bounds is None:
            bounds = self.bounds
        if bounds is None:
            bounds = (np.min(x), np.max(x))
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        self._check_bounds(lo, hi)
        width = hi - lo
        degenerate = width == 0.0
        if np.any(degenerate):
            warnings.warn(
                "degenerate rescale context (x_min == x_max); "
                "emitting constant 0.5",
                DegenerateBoundsWarning,
                stacklevel=3,
            )
        return lo, hi, width, degenerate

    def __call__(self, x, bounds=None):
        x = np.asarray(x, dtype=float)
        lo, hi, width, degenerate = self._resolve(x, bounds)
        safe = np.where(degenerate, 1.0, width)
        out = np.clip((x - lo) / safe, 0.0, 1.0)
        out = np.where(degenerate, 0.5, out)
        return out.item() if out.ndim == 0 else out

    def derivative(self, x, bounds=None):
        x = np.asarray(x, dtype=float)
        lo, hi, width, degenerate = self._resolve(x, bounds)
        safe = np.where(degenerate, 1.0, width)
        inside = (x >= lo) & (x <= hi) & ~degenerate
        out = np.where(inside, 1.0 / safe, 0.0)
        return out.item() if out.ndim == 0 else out

    def training_bounds(self, logits):
        return self._context(logits, per_image=self.scope == "image")

    def evaluation_bounds(self, logits):
        return self._context(logits, per_image=True)

    def _context(self, logits, per_image):
        """Fixed bounds, else min/max per row of a 2-D stack or overall."""
        if self.bounds is not None:
            return self.bounds
        logits = np.asarray(logits, dtype=float)
        if not per_image or logits.ndim == 1:
            return float(np.min(logits)), float(np.max(logits))
        return (logits.min(axis=1, keepdims=True),
                logits.max(axis=1, keepdims=True))

    def effective_domain(self, epsilon):
        if not 0.0 < epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if self.bounds is None:
            raise ValueError(
                "linear activation needs fixed bounds to report a domain")
        lo, hi = self.bounds
        if lo == hi:
            raise ValueError("rescale bounds require x_min < x_max")
        return EffectiveDomain(lo, hi, epsilon, rounded=False,
                               lo_exact=lo, hi_exact=hi)

    def __repr__(self):
        if self.bounds is not None:
            return f"Linear(scope={self.scope!r}, bounds={self.bounds!r})"
        return f"Linear(scope={self.scope!r})"


_REGISTRY = {cls.name: cls for cls in (
    NormalCdf, Sigmoid, InverseSquareRoot, Arctangent, Softsign, Linear,
    HardTanh)}

#: Catalogue order: the five smooth activations sorted by effective
#: domain size, then the two special cases.
ACTIVATION_ORDER = tuple(_REGISTRY)

_ALIASES = {
    "normal_cdf": "cdf",
    "normal-cdf": "cdf",
    "probit": "cdf",
    "inverse_square_root": "isqrt",
    "inverse-square-root": "isqrt",
    "arctangent": "arctan",
}


def make_activation(name, **kwargs) -> Activation:
    """Build an activation from its registry name or an alias, in any
    case; its ``name`` is the registry name.

    Keyword arguments are forwarded to the constructor (only the linear
    activation takes any).
    """
    if isinstance(name, Activation):
        return name
    key = _ALIASES.get(str(name).lower(), str(name).lower())
    if key not in _REGISTRY:
        known = ", ".join(ACTIVATION_ORDER)
        raise ValueError(f"unknown activation {name!r}; expected one of {known}")
    return _REGISTRY[key](**kwargs)
