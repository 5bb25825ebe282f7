"""Chart builders shared by the report writer and the CLI."""
from __future__ import annotations

import numpy as np

from . import svg
from .activations import ACTIVATION_ORDER, clamp_probability, make_activation
from .losses import LOSS_ORDER, make_loss
from .metrics import ReliabilityDiagram, kde_conditional


def activation_curves(x_lo: float = -10.0, x_hi: float = 10.0,
                      n_points: int = 201) -> str:
    """All seven activations over one logit window, sigmoid dashed.

    The linear activation is rescaled against the plotted window itself.
    """
    x = np.linspace(x_lo, x_hi, n_points)
    series = []
    for name in ACTIVATION_ORDER:
        act = make_activation(name)
        kwargs = {"bounds": (x_lo, x_hi)} if name == "linear" else {}
        series.append(svg.Series(label=act.label, x=x, y=act(x, **kwargs),
                                 dashed=(name == "sigmoid")))
    return svg.line_chart(series, title="Output activation functions",
                          x_label="logit", y_label="probability",
                          y_range=(-0.05, 1.05))


def single_prediction_loss_curves(activation_name: str, losses=LOSS_ORDER,
                                  x_lo: float = -6.0, x_hi: float = 6.0,
                                  n_points: int = 241) -> str:
    """Loss of a single foreground prediction (y = 1) as the logit moves."""
    act = make_activation(activation_name)
    x = np.linspace(x_lo, x_hi, n_points)
    kwargs = {"bounds": (x_lo, x_hi)} if activation_name == "linear" else {}
    p = clamp_probability(np.asarray(act(x, **kwargs), dtype=float))
    series = []
    for loss_name in losses:
        loss = make_loss(loss_name)
        values = [loss.value([pi], [1.0]) for pi in p]
        series.append(svg.Series(label=loss.label, x=x, y=np.array(values)))
    return svg.line_chart(
        series,
        title=f"Single-prediction error, {act.label} output",
        x_label="logit", y_label="loss")


def reliability_chart(diagrams: dict[str, ReliabilityDiagram],
                      title: str) -> str:
    """Confidence vs fraction-of-positives with the diagonal reference."""
    diag = svg.Series(label="perfectly calibrated",
                      x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]),
                      dashed=True, color="#999999")
    series = [diag]
    for label, d in diagrams.items():
        series.append(svg.Series(label=label, x=d.confidence, y=d.fraction,
                                 markers=True))
    return svg.line_chart(series, title=title, x_label="confidence",
                          y_label="fraction of positives",
                          x_range=(0.0, 1.0), y_range=(0.0, 1.0))


def kde_chart(curves: dict[str, np.ndarray], grid: np.ndarray,
              title: str) -> str:
    """Foreground prediction densities on a shared grid."""
    series = [svg.Series(label=label, x=grid, y=density)
              for label, density in curves.items()]
    return svg.line_chart(series, title=title, x_label="predicted probability",
                          y_label="density", x_range=(0.0, 1.0))


def kde_comparison(predictions: dict, truth: np.ndarray, loss_name: str,
                   activations=("cdf", "softsign"),
                   grid_points: int = 512) -> str | None:
    """KDE chart for chosen activations under one loss; None if no data."""
    curves = {}
    grid = None
    for act in activations:
        key = (act, loss_name)
        if key not in predictions:
            continue
        try:
            curve = kde_conditional(predictions[key], truth, grid_points)
        except ValueError:
            continue
        grid = curve.grid
        act_label = make_activation(act).label
        curves[act_label] = curve.density
    if not curves:
        return None
    loss_label = make_loss(loss_name).label
    return kde_chart(curves, grid,
                     f"Foreground prediction density, {loss_label} loss")
