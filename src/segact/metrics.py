"""Probabilistic and overlap evaluation of segmentation predictions.

Negative log-likelihood, thresholded dice with a fixed threshold sweep,
reliability diagrams (evenly spaced and adaptive/quantile binning), the
maximum calibration gap, and a kernel density estimate of the foreground
prediction distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyDiagramError
from .losses import BinaryCrossEntropy
from .validation import check_prediction_target

#: Thresholds tried by the dice sweep: 0, 0.05, ..., 0.95, 1.
THRESHOLD_SWEEP = tuple(k / 20 for k in range(21))

_bce = BinaryCrossEntropy()


def nll(yhat, y) -> float:
    """Mean negative log-likelihood; identical to the BCE loss value."""
    return _bce.value(yhat, y)


def dice_at_threshold(yhat, y, t: float) -> float:
    """Dice coefficient of the mask ``yhat > t`` against ``y``.

    Defined as 1.0 when both the thresholded prediction and the target
    are empty: an empty prediction of an empty mask is correct.
    """
    yhat, y = check_prediction_target(yhat, y)
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    pred = yhat > t
    truth = y == 1.0
    denom = int(np.count_nonzero(pred)) + int(np.count_nonzero(truth))
    if denom == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(pred & truth)) / denom


@dataclass(frozen=True)
class DiceSweepResult:
    """Best thresholded dice over the sweep set, ties broken low."""

    best_threshold: float
    best_dice: float
    thresholds: tuple = THRESHOLD_SWEEP
    dice_values: tuple = ()

    def as_table(self):
        return list(zip(self.thresholds, self.dice_values))


def best_threshold_dice(yhat, y) -> DiceSweepResult:
    """Evaluate every threshold in the sweep set and keep the best.

    The smallest threshold attaining the maximum wins ties.
    """
    values = tuple(dice_at_threshold(yhat, y, t) for t in THRESHOLD_SWEEP)
    best_idx = int(np.argmax(values))  # argmax returns the first maximum
    return DiceSweepResult(
        best_threshold=THRESHOLD_SWEEP[best_idx],
        best_dice=values[best_idx],
        dice_values=values,
    )


@dataclass
class ReliabilityDiagram:
    """Per-bin mean confidence and fraction of positives.

    Empty bins carry count 0 and NaN confidence/fraction; they render as
    gaps.  For the adaptive strategy, ``filter_lo``/``filter_hi`` record
    the thresholds applied before quantile binning.
    """

    strategy: str
    n_bins: int
    confidence: np.ndarray
    fraction: np.ndarray
    counts: np.ndarray
    bin_edges: np.ndarray | None = None
    filter_lo: float | None = None
    filter_hi: float | None = None


def _evenly_spaced_diagram(yhat, y, n_bins):
    edges = np.array([k / n_bins for k in range(n_bins + 1)])
    # Bin k holds [k/n, (k+1)/n); the last bin is closed at 1.
    idx = np.searchsorted(edges, yhat, side="right") - 1
    idx = np.minimum(idx, n_bins - 1)
    # A stable sort by bin keeps each bin's members in their original
    # order, so each slice equals the masked selection yhat[idx == b].
    order = np.argsort(idx.astype(np.min_scalar_type(n_bins - 1)),
                       kind="stable")
    yhat, y = yhat[order], y[order]
    counts = np.bincount(idx, minlength=n_bins)
    conf = np.full(n_bins, np.nan)
    frac = np.full(n_bins, np.nan)
    start = 0
    for b, size in enumerate(counts.tolist()):
        if size:
            conf[b] = float(np.mean(yhat[start:start + size]))
            frac[b] = float(np.mean(y[start:start + size]))
        start += size
    return ReliabilityDiagram("evenly-spaced", n_bins, conf, frac, counts,
                              bin_edges=edges)


def _adaptive_diagram(yhat, y, n_bins, lo, hi):
    keep = (yhat >= lo) & (yhat <= hi)
    if not keep.any():
        raise EmptyDiagramError(
            "no predictions survive the adaptive filter "
            f"[{lo}, {hi}]")
    vals = yhat[keep]
    targets = y[keep]
    order = np.argsort(vals, kind="stable")
    m = vals.size
    base, extra = divmod(m, n_bins)
    conf = np.full(n_bins, np.nan)
    frac = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    start = 0
    for b in range(n_bins):
        size = base + (1 if b < extra else 0)
        chunk = order[start:start + size]
        start += size
        counts[b] = size
        if size:
            conf[b] = float(np.mean(vals[chunk]))
            frac[b] = float(np.mean(targets[chunk]))
    return ReliabilityDiagram("adaptive", n_bins, conf, frac, counts,
                              filter_lo=lo, filter_hi=hi)


def reliability(yhat, y, strategy: str = "evenly-spaced", n_bins: int = 15,
                lo: float = 1e-2, hi: float = 1.0 - 1e-2) -> ReliabilityDiagram:
    """Bin predictions and report per-bin confidence vs observed fraction.

    ``evenly-spaced`` uses the fixed intervals [k/n, (k+1)/n) with the
    last bin closed; ``adaptive`` first removes predictions outside
    [lo, hi], then forms n_bins equal-count bins in sorted order (the
    earlier bins absorb any remainder).
    """
    yhat, y = check_prediction_target(yhat, y)
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    if strategy == "evenly-spaced":
        return _evenly_spaced_diagram(yhat, y, n_bins)
    if strategy == "adaptive":
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("filter thresholds require 0 <= lo < hi <= 1")
        return _adaptive_diagram(yhat, y, n_bins, lo, hi)
    raise ValueError("strategy must be 'evenly-spaced' or 'adaptive'")


def calibration_gap(diagram: ReliabilityDiagram) -> float:
    """Largest |confidence - fraction of positives| over nonempty bins."""
    nonempty = diagram.counts > 0
    if not nonempty.any():
        raise ValueError("calibration gap needs at least one nonempty bin")
    gaps = np.abs(diagram.confidence[nonempty] - diagram.fraction[nonempty])
    return float(np.max(gaps))


@dataclass(frozen=True)
class DensityCurve:
    """Kernel density estimate on a uniform grid over [0, 1]."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float
    n_points: int

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])


# Degenerate samples (all foreground predictions identical) would give a
# zero Silverman bandwidth; the floor keeps the curve finite.
_BANDWIDTH_FLOOR = 1e-3


def kde_conditional(yhat, y, grid_points: int = 512) -> DensityCurve:
    """Gaussian KDE of the predictions at foreground pixels (y == 1).

    Bandwidth follows the Silverman rule 1.06 * std * m^(-1/5) over the
    m foreground predictions.  The estimate is linear-binned (Silverman
    1982, AS 176; Wand 1994): each prediction splits its weight between
    the two nearest points of the grid refined so that one bandwidth
    spans at least 8 bins, the bin weights are convolved with the
    Gaussian truncated at 8 bandwidths, and every refined point that
    lies on the output grid is kept.
    """
    yhat, y = check_prediction_target(yhat, y)
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    fg = yhat[y == 1.0]
    m = fg.size
    if m < 2:
        raise ValueError("need at least 2 foreground predictions for a KDE")
    sigma = float(np.std(fg, ddof=1))
    bandwidth = max(1.06 * sigma * m ** -0.2, _BANDWIDTH_FLOOR)
    grid = np.linspace(0.0, 1.0, grid_points)
    refine = math.ceil(8.0 / ((grid_points - 1) * bandwidth))
    n_bins = refine * (grid_points - 1) + 1
    bin_width = 1.0 / (n_bins - 1)
    pos = fg * (n_bins - 1)
    lo = np.minimum(pos.astype(np.intp), n_bins - 2)  # fg >= 0: floor
    frac = pos - lo
    weights = (np.bincount(lo, 1.0 - frac, n_bins)
               + np.bincount(lo + 1, frac, n_bins))
    reach = min(math.ceil(8.0 * bandwidth / bin_width), n_bins - 1)
    offsets = np.arange(-reach, reach + 1) * (bin_width / bandwidth)
    kernel = np.exp(-0.5 * offsets * offsets)
    smoothed = np.convolve(weights, kernel)[reach:reach + n_bins:refine]
    norm = 1.0 / (m * bandwidth * math.sqrt(2.0 * math.pi))
    return DensityCurve(grid=grid, density=smoothed * norm,
                        bandwidth=bandwidth, n_points=m)
