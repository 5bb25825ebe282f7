"""Binary segmentation with configurable output activation functions.

The package bundles seven output activations with derivatives and
effective domains, three training losses, a small dense pixel classifier
with an sklearn-style estimator API, a probabilistic/overlap metric
suite (NLL, thresholded dice, reliability diagrams, KDE), a synthetic
task generator, and a grid experiment harness with SVG reports.
"""
from .activations import (ACTIVATION_ORDER, Activation, Arctangent,
                          EffectiveDomain, HardTanh, InverseSquareRoot,
                          Linear, NormalCdf, Sigmoid, Softsign,
                          clamp_probability, make_activation)
from .datagen import PRESETS, Sample, TaskConfig, generate, kfold_split, stack
from .estimator import PixelClassifier
from .exceptions import (DegenerateBoundsWarning, EmptyDiagramError,
                         NonFiniteBoundsError, NotFittedError)
from .harness import (ExperimentConfig, RunRecord, SummaryTables,
                      emit_report, run_experiment, run_grid, summarize)
from .losses import (LOSS_ORDER, BinaryCrossEntropy, Loss, MeanSquaredError,
                     SoftDice, loss_gradient_wrt_logits, make_loss)
from .metrics import (THRESHOLD_SWEEP, DensityCurve, DiceSweepResult,
                      PredictionSet, ReliabilityDiagram, best_threshold_dice,
                      calibration_gap, dice_at_threshold, kde_conditional,
                      nll, reliability)
from .network import (AdamState, TrainConfig, TrainHistory, adam_init,
                      adam_step, backward, forward, init_layers,
                      train_network)

__version__ = "0.1.0"

__all__ = [
    "ACTIVATION_ORDER", "Activation", "Arctangent", "EffectiveDomain",
    "HardTanh", "InverseSquareRoot", "Linear", "NormalCdf", "Sigmoid",
    "Softsign", "clamp_probability", "make_activation",
    "PRESETS", "Sample", "TaskConfig", "generate", "kfold_split", "stack",
    "PixelClassifier",
    "DegenerateBoundsWarning", "EmptyDiagramError", "NonFiniteBoundsError",
    "NotFittedError",
    "ExperimentConfig", "RunRecord", "SummaryTables", "emit_report",
    "run_experiment", "run_grid", "summarize",
    "LOSS_ORDER", "BinaryCrossEntropy", "Loss", "MeanSquaredError",
    "SoftDice", "loss_gradient_wrt_logits", "make_loss",
    "THRESHOLD_SWEEP", "DensityCurve", "DiceSweepResult", "PredictionSet",
    "ReliabilityDiagram", "best_threshold_dice", "calibration_gap",
    "dice_at_threshold", "kde_conditional", "nll", "reliability",
    "AdamState", "TrainConfig", "TrainHistory", "adam_init", "adam_step",
    "backward", "forward", "init_layers", "train_network",
    "__version__",
]
