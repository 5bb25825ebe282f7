"""Probabilistic and overlap evaluation of segmentation predictions.

Negative log-likelihood, thresholded dice with a fixed threshold sweep,
reliability diagrams (evenly spaced and adaptive/quantile binning), the
maximum calibration gap, and a kernel density estimate of the foreground
prediction distribution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import EmptyDiagramError
from .losses import BinaryCrossEntropy
from .validation import check_prediction_target, check_weights

#: Thresholds tried by the dice sweep: 0, 0.05, ..., 0.95, 1.
THRESHOLD_SWEEP = tuple(k / 20 for k in range(21))

_bce = BinaryCrossEntropy()


class PredictionSet:
    """A checked (predictions, targets) pair that every metric can read.

    The pair is checked once, here.  The sorted predictions, the
    foreground predictions (``y == 1``) in their original order and
    their sort are computed on first use and kept, so the dice sweep,
    the adaptive diagram and the KDE share them.  The metric functions
    take a set in place of the ``(yhat, y)`` pair; the arrays must not
    change while the set is in use.
    """

    def __init__(self, yhat, y):
        self.yhat, self.y = check_prediction_target(yhat, y)

    @cached_property
    def ranked(self) -> np.ndarray:
        """The predictions in ascending order."""
        return np.sort(self.yhat)

    @cached_property
    def foreground(self) -> np.ndarray:
        """Predictions at foreground pixels, in their original order."""
        # The same values as ``yhat[y == 1]``; compress runs about 3x
        # faster than boolean indexing at 30% foreground.
        return np.compress(self.y == 1.0, self.yhat)

    @cached_property
    def ranked_foreground(self) -> np.ndarray:
        """The foreground predictions in ascending order."""
        return np.sort(self.foreground)


def _prepared(yhat, y) -> PredictionSet:
    """The given set, or a new one checked from the ``(yhat, y)`` pair."""
    if isinstance(yhat, PredictionSet):
        if y is not None:
            raise TypeError("pass a PredictionSet without separate targets")
        return yhat
    if y is None:
        raise TypeError("targets are required unless a PredictionSet is "
                        "given")
    return PredictionSet(yhat, y)


def nll(yhat, y=None) -> float:
    """Mean negative log-likelihood; identical to the BCE loss value."""
    ps = _prepared(yhat, y)
    return _bce._value(ps.yhat, ps.y)


def dice_at_threshold(yhat, y, t: float, sample_weight=None) -> float:
    """Dice coefficient of the mask ``yhat > t`` against ``y``.

    Defined as 1.0 when both the thresholded prediction and the target
    are empty: an empty prediction of an empty mask is correct.  With
    ``sample_weight``, each pixel counts its (finite, non-negative)
    weight instead of 1; integer weights give the dice of the pixels
    repeated that many times, to the last bit.
    """
    yhat, y = check_prediction_target(yhat, y)
    if not 0.0 <= t <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if sample_weight is None:
        def count(mask):
            return int(np.count_nonzero(mask))
    else:
        weight = check_weights(sample_weight, yhat.size)

        def count(mask):
            return float(np.sum(weight[mask]))
    pred = yhat > t
    truth = y == 1.0
    denom = count(pred) + count(truth)
    if denom == 0:
        return 1.0
    return 2.0 * count(pred & truth) / denom


@dataclass(frozen=True)
class DiceSweepResult:
    """Best thresholded dice over the sweep set, ties broken low."""

    best_threshold: float
    best_dice: float
    thresholds: tuple = THRESHOLD_SWEEP
    dice_values: tuple = ()

    def as_table(self):
        return list(zip(self.thresholds, self.dice_values))


def best_threshold_dice(yhat, y=None) -> DiceSweepResult:
    """Evaluate every threshold in the sweep set and keep the best.

    The smallest threshold attaining the maximum wins ties.  A
    prediction in (t[k-1], t[k]] (at most t[0] for k = 0) lies above
    exactly the thresholds that t[k] lies above.  So the sweep counts
    each interval's pixels of each class with ``searchsorted`` into the
    shared sorts and scores one point per (interval, class) at t[k],
    weighted by its count.  The counts are exact integers, so each dice
    is the one the pixels give.
    """
    ps = _prepared(yhat, y)
    thresholds = np.array(THRESHOLD_SWEEP)
    # Every prediction is at most THRESHOLD_SWEEP[-1] == 1, so the
    # intervals hold every pixel.
    per_interval = np.diff(np.searchsorted(ps.ranked, thresholds, "right"),
                           prepend=0)
    fg_per_interval = np.diff(
        np.searchsorted(ps.ranked_foreground, thresholds, "right"),
        prepend=0)
    points = np.concatenate([thresholds, thresholds])
    classes = np.repeat([1.0, 0.0], thresholds.size)
    weights = np.concatenate([fg_per_interval,
                              per_interval - fg_per_interval])
    values = tuple(dice_at_threshold(points, classes, t, sample_weight=weights)
                   for t in THRESHOLD_SWEEP)
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


def _evenly_spaced_bin(yhat, edges):
    """Index of the bin [k/n, (k+1)/n) holding each value, the last bin
    closed at 1: ``searchsorted(edges, yhat, "right") - 1`` clipped to
    the last bin.  ``floor(yhat * n)`` is off by at most one where the
    product rounds across an edge, so one step against ``edges`` each
    way corrects it."""
    n_bins = edges.size - 1
    idx = (yhat * n_bins).astype(np.intp)  # yhat >= 0: floor
    np.minimum(idx, n_bins - 1, out=idx)
    idx -= np.take(edges, idx) > yhat
    idx += np.take(edges, idx + 1) <= yhat
    np.minimum(idx, n_bins - 1, out=idx)
    return idx


def _evenly_spaced_diagram(yhat, y, n_bins):
    edges = np.array([k / n_bins for k in range(n_bins + 1)])
    idx = _evenly_spaced_bin(yhat, edges)
    # A stable sort by bin keeps each bin's members in their original
    # order, so each slice equals the masked selection yhat[idx == b].
    order = np.argsort(idx.astype(np.min_scalar_type(n_bins - 1)),
                       kind="stable")
    yhat = yhat[order]
    counts = np.bincount(idx, minlength=n_bins)
    # Sums of 0/1 targets are exact in any order.
    positives = np.bincount(idx, weights=y, minlength=n_bins)
    conf = np.full(n_bins, np.nan)
    frac = np.full(n_bins, np.nan)
    start = 0
    for b, size in enumerate(counts.tolist()):
        if size:
            conf[b] = float(np.mean(yhat[start:start + size]))
            frac[b] = positives[b] / size
        start += size
    return ReliabilityDiagram("evenly-spaced", n_bins, conf, frac, counts,
                              bin_edges=edges)


def _positives_below(yhat, y, ranked, positive_vals, rank):
    """Positive targets among the first ``rank`` (at least 1) kept values
    in stable sorted order.  ``ranked`` holds the kept values sorted and
    ``positive_vals`` those of them whose target is 1."""
    v = ranked[rank - 1]
    if rank == int(np.searchsorted(ranked, v, "right")):
        return int(np.searchsorted(positive_vals, v, "right"))
    # The tie at v straddles rank.  A stable sort keeps it in index
    # order, so only its first rank - (values below v) members count.
    below = int(np.searchsorted(ranked, v, "left"))
    # Every value equal to v passed the filter, so the tie's index order
    # is its order in yhat.
    tied = np.flatnonzero(yhat == v)[:rank - below]
    return (int(np.searchsorted(positive_vals, v, "left"))
            + int(np.count_nonzero(y[tied])))


def _adaptive_diagram(ps, n_bins, lo, hi):
    # The kept values are a slice of the shared sort.  Tied values are
    # equal, so each bin's slice is the sequence a stable argsort of the
    # kept values would gather, and its mean the same.
    ranked = ps.ranked[np.searchsorted(ps.ranked, lo, "left"):
                       np.searchsorted(ps.ranked, hi, "right")]
    if not ranked.size:
        raise EmptyDiagramError(
            "no predictions survive the adaptive filter "
            f"[{lo}, {hi}]")
    fg = ps.ranked_foreground
    positive_vals = fg[np.searchsorted(fg, lo, "left"):
                       np.searchsorted(fg, hi, "right")]
    m = ranked.size
    base, extra = divmod(m, n_bins)
    conf = np.full(n_bins, np.nan)
    frac = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    start = 0
    below = 0
    for b in range(n_bins):
        size = base + (1 if b < extra else 0)
        counts[b] = size
        if size:
            end = start + size
            through = _positives_below(ps.yhat, ps.y, ranked, positive_vals,
                                       end)
            conf[b] = float(np.mean(ranked[start:end]))
            frac[b] = (through - below) / size
            start, below = end, through
    return ReliabilityDiagram("adaptive", n_bins, conf, frac, counts,
                              filter_lo=lo, filter_hi=hi)


def reliability(yhat, y=None, strategy: str = "evenly-spaced",
                n_bins: int = 15, lo: float = 1e-2,
                hi: float = 1.0 - 1e-2) -> ReliabilityDiagram:
    """Bin predictions and report per-bin confidence vs observed fraction.

    ``evenly-spaced`` uses the fixed intervals [k/n, (k+1)/n) with the
    last bin closed; ``adaptive`` first removes predictions outside
    [lo, hi], then forms n_bins equal-count bins in sorted order (the
    earlier bins absorb any remainder).
    """
    ps = _prepared(yhat, y)
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    if strategy == "evenly-spaced":
        return _evenly_spaced_diagram(ps.yhat, ps.y, n_bins)
    if strategy == "adaptive":
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("filter thresholds require 0 <= lo < hi <= 1")
        return _adaptive_diagram(ps, n_bins, lo, hi)
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


def kde_conditional(yhat, y=None, grid_points: int = 512) -> DensityCurve:
    """Gaussian KDE of the predictions at foreground pixels (y == 1).

    Bandwidth follows the Silverman rule 1.06 * std * m^(-1/5) over the
    m foreground predictions.  The estimate is linear-binned (Silverman
    1982, AS 176; Wand 1994): each prediction splits its weight between
    the two nearest points of the grid refined so that one bandwidth
    spans at least 8 bins, the bin weights are convolved with the
    Gaussian truncated at 8 bandwidths, and every refined point that
    lies on the output grid is kept.
    """
    ps = _prepared(yhat, y)
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    fg = ps.foreground
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
