"""Exception and warning types shared across the package."""


class NotFittedError(ValueError, AttributeError):
    """Estimator used before ``fit`` was called."""


class EmptyDiagramError(ValueError):
    """Every prediction was filtered out before binning."""


class NonFiniteBoundsError(ValueError, FloatingPointError):
    """Linear rescaling context is not finite.

    Also a ``FloatingPointError``: logits that overflow in a diverging
    run give such a context, and the trainer flags the run as diverged.
    """


class DegenerateBoundsWarning(RuntimeWarning):
    """Linear rescaling context has zero width; output pinned to 0.5."""
