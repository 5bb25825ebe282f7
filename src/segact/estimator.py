"""Scikit-learn style estimator around the pixel classifier trainer.

``PixelClassifier`` follows the usual conventions: hyperparameters are
constructor arguments stored verbatim, ``fit`` returns ``self``, fitted
state lives in trailing-underscore attributes, and ``get_params`` /
``set_params`` make the estimator clonable and grid-searchable.

Images are stacks of per-pixel feature rows: ``X`` has shape
``(n_images, n_pixels, n_features)`` and ``y`` holds the binary masks
``(n_images, n_pixels)``.  A single image may be passed as a 2-D array.
"""
from __future__ import annotations

import inspect

import numpy as np

from .activations import make_activation
from .losses import make_loss
from .metrics import dice_at_threshold
from .network import (SCHEDULE_FIELDS, TrainConfig, _predict_probabilities,
                      forward, init_layers, train_network)
from .validation import check_image_stack, check_is_fitted


class PixelClassifier:
    """Dense per-pixel classifier with a configurable output activation.

    Parameters
    ----------
    hidden_layer_sizes : tuple of int
        Width of each hidden ReLU layer.  On imbalanced masks, training
        with a pixelwise loss first drives every prediction toward the
        foreground prior (dice at 0.5 sits at zero meanwhile); the
        default width keeps that phase shorter than the early-stopping
        patience.
    activation : str or Activation
        Output activation mapping logits to probabilities.
    loss : str or Loss
        Training loss.
    learning_rate, batch_size, plateau_patience, stop_patience,
    lr_factor, max_epochs
        The training schedule, with ``TrainConfig``'s defaults.
    linear_scope : {"batch", "image"}
        How the linear activation derives its rescale context during
        training: from the whole batch (the default, as in ``Linear``) or
        per image.  Prediction always rescales per image.
    validation_fraction : float
        Share of images held out for the schedule when ``fit`` is not
        given an explicit validation set.
    random_state : int
        Seeds initialization, shuffling and the validation split.
    """

    def __init__(self, hidden_layer_sizes=(64,), activation="sigmoid",
                 loss="bce", learning_rate=TrainConfig.learning_rate,
                 batch_size=TrainConfig.batch_size,
                 plateau_patience=TrainConfig.plateau_patience,
                 stop_patience=TrainConfig.stop_patience,
                 lr_factor=TrainConfig.lr_factor,
                 max_epochs=TrainConfig.max_epochs, linear_scope="batch",
                 validation_fraction=0.2, denom_epsilon=1e-7,
                 random_state=0):
        self.hidden_layer_sizes = hidden_layer_sizes
        self.activation = activation
        self.loss = loss
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.plateau_patience = plateau_patience
        self.stop_patience = stop_patience
        self.lr_factor = lr_factor
        self.max_epochs = max_epochs
        self.linear_scope = linear_scope
        self.validation_fraction = validation_fraction
        self.denom_epsilon = denom_epsilon
        self.random_state = random_state

    @classmethod
    def from_config(cls, train: TrainConfig, activation, loss, random_state):
        """A classifier with ``train``'s schedule (``SCHEDULE_FIELDS``)."""
        return cls(activation=activation, loss=loss,
                   random_state=random_state,
                   **{name: getattr(train, name) for name in SCHEDULE_FIELDS})

    @classmethod
    def _param_names(cls):
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    # Named linear takes linear_scope, named dice denom_epsilon.
    def _make_activation(self):
        activation = make_activation(self.activation)
        if isinstance(self.activation, str) and activation.name == "linear":
            activation = make_activation("linear", scope=self.linear_scope)
        return activation

    def _make_loss(self):
        loss = make_loss(self.loss)
        if isinstance(self.loss, str) and loss.name == "dice":
            loss = make_loss("dice", denom_epsilon=self.denom_epsilon)
        return loss

    def fit(self, X, y, X_val=None, y_val=None, monitor=None):
        """Train on image stacks; optionally against an explicit
        validation set (otherwise ``validation_fraction`` is held out)."""
        X, y = check_image_stack(X, y)
        seeds = np.random.SeedSequence(self.random_state).generate_state(
            3, dtype=np.uint64)
        init_seed, shuffle_seed, split_seed = (int(s) for s in seeds)

        if X_val is None:
            if y_val is not None:
                raise ValueError("y_val given without X_val")
            n_val = max(1, round(self.validation_fraction * len(X)))
            if n_val >= len(X):
                raise ValueError(
                    "not enough images to hold out a validation set")
            order = np.random.default_rng(split_seed).permutation(len(X))
            X, X_val = X[order[n_val:]], X[order[:n_val]]
            y, y_val = y[order[n_val:]], y[order[:n_val]]
        else:
            X_val, y_val = check_image_stack(X_val, y_val)

        activation = self._make_activation()
        loss = self._make_loss()
        cfg = TrainConfig(seed=shuffle_seed, **{
            name: getattr(self, name) for name in SCHEDULE_FIELDS})
        sizes = [X.shape[2], *map(int, self.hidden_layer_sizes), 1]
        layers = init_layers(sizes, init_seed)
        self.layers_, self.history_ = train_network(
            layers, X, y, X_val, y_val, activation, loss, cfg,
            monitor=monitor)
        self.activation_ = activation
        self.loss_ = loss
        self.n_features_in_ = X.shape[2]
        return self

    def decision_function(self, X):
        """Raw logits, shape (n_images, n_pixels)."""
        check_is_fitted(self)
        X = check_image_stack(X)
        n_images, n_pixels, d = X.shape
        return forward(self.layers_, X.reshape(-1, d)).reshape(n_images,
                                                               n_pixels)

    def predict_proba(self, X):
        """Clamped foreground probabilities, shape (n_images, n_pixels)."""
        check_is_fitted(self)
        X = check_image_stack(X)
        return _predict_probabilities(self.layers_, X, self.activation_)

    def predict(self, X, threshold=0.5):
        """Binary masks from thresholded probabilities."""
        return (self.predict_proba(X) > threshold).astype(np.uint8)

    def score(self, X, y):
        """Pooled dice coefficient at threshold 0.5."""
        X, y = check_image_stack(X, y)
        probs = self.predict_proba(X)
        return dice_at_threshold(probs.ravel(), y.ravel(), 0.5)

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
