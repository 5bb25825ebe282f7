"""Dense feed-forward pixel classifier trained with Adam.

Parameters are a list of ``(weights, bias)`` pairs with ReLU between
layers and a single linear output unit producing one logit per pixel.
Gradients are hand-written reverse mode through the composition
loss(clamp(activation(forward(x)))).  The training loop follows a
plateau learning-rate schedule and early stopping, both driven by the
validation dice coefficient at threshold 0.5.

The train step and the per-epoch validation predict both run in blocks
of ``STEP_BLOCK_ROWS`` rows through buffers the trainer keeps in one
workspace dict, so neither forms a (pixels x width) hidden array.  The
predict's logits are bitwise those of one pass over the whole matrix
(see ``forward``).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .activations import CLAMP_HI, CLAMP_LO, Activation
from .losses import Loss, _logit_head
from .metrics import dice_at_threshold
from .validation import check_image_stack

Layers = list  # list of (weights, bias) pairs


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for one training run."""

    learning_rate: float = 1e-3
    batch_size: int = 8
    plateau_patience: int = 5
    stop_patience: int = 10
    lr_factor: float = 0.1
    max_epochs: int = 200
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError("lr_factor must lie in (0, 1)")
        if self.plateau_patience >= self.stop_patience:
            raise ValueError("plateau_patience must be below stop_patience")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")


#: The TrainConfig fields a user sets, as config-file keys and as
#: PixelClassifier parameters; the seed and Adam's constants are not.
SCHEDULE_FIELDS = ("learning_rate", "batch_size", "plateau_patience",
                   "stop_patience", "lr_factor", "max_epochs")


# Validation dice must beat the best seen so far by this much to count
# as an improvement.
IMPROVEMENT_DELTA = 1e-6


def init_layers(layer_sizes, seed) -> Layers:
    """Glorot-uniform weights and zero biases, deterministic per seed."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output size")
    if sizes[-1] != 1:
        raise ValueError("the final layer must have exactly one output")
    if min(sizes) < 1:
        raise ValueError("layer sizes must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append((w, np.zeros(fan_out)))
    return layers


# Rows per block of the train step and the predict: a block of a 64-unit
# hidden layer (2048 x 64 doubles, about 1 MB) stays in a core's L2 cache
# while a pass makes its several sweeps over it.
STEP_BLOCK_ROWS = 2048


def _blocks(n_rows):
    """Row slices of ``STEP_BLOCK_ROWS`` rows.  A shorter tail joins the
    last block, so every block starts at a multiple of the block size
    and BLAS never takes its few-row kernels, which round differently
    from the kernels of a whole-matrix call."""
    starts = range(0, max(n_rows - STEP_BLOCK_ROWS, 0) + 1, STEP_BLOCK_ROWS)
    return [slice(start, stop) for start, stop in
            zip(starts, [*starts[1:], n_rows])]


def forward(layers: Layers, features, workspace: dict | None = None
            ) -> np.ndarray:
    """Logit per row of ``features`` (shape n x d).

    The rows pass through the net in blocks (``_blocks``), so no
    (n x width) hidden array is formed.  Each row takes the same
    operations in the same order as in one pass over the whole matrix
    (``matmul``, ``+= b``, ``maximum``), and its logit has the same bits
    wherever BLAS rounds a row independently of the rows around it: on
    every row count with one BLAS thread, and on whole blocks, such as
    the trainer's validation stacks, with several.  ``workspace`` keeps
    the block buffers between calls, as in ``backward``.
    """
    a = np.asarray(features, dtype=float)
    if a.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if a.shape[1] != layers[0][0].shape[1]:
        raise ValueError(
            f"feature width {a.shape[1]} does not match first layer "
            f"input size {layers[0][0].shape[1]}")
    blocks = _blocks(len(a))
    block_rows = max(rows.stop - rows.start for rows in blocks)
    key = ("forward", block_rows, *(w.shape for w, _ in layers))
    workspace = {} if workspace is None else workspace
    hidden = workspace.get(key)
    if hidden is None:
        hidden = workspace[key] = [np.empty((block_rows, w.shape[0]))
                                   for w, _ in layers[:-1]]
    w_out, b_out = layers[-1]
    logits = np.empty(len(a))
    for rows in blocks:
        h = a[rows]
        for (w, b), out in zip(layers, hidden):
            h = np.matmul(h, w.T, out=out[:len(h)])
            h += b
            np.maximum(h, 0.0, out=h)
        np.matmul(h, w_out.T, out=logits[rows, None])
    logits += b_out
    return logits


def _step_buffers(workspace: dict, n_rows: int, layers: Layers):
    """Scratch arrays of one batch shape, made on first use.

    ``inputs[k]`` is the input of hidden layer k with a ones column
    appended, so its bias rides in its weight matrix: the batch for layer
    0, the ReLU output (later the ReLU mask) of hidden layer k - 1
    otherwise.  ReLU and the mask both map the ones column to itself.
    ``top`` is the output layer's input without a ones column: the top
    hidden layer's ReLU output (later its mask), or the batch when the
    net has no hidden layer.  ``scaled`` holds delta times the top hidden
    layer's input, ``logits`` the output.
    """
    key = (n_rows, *(w.shape for w, _ in layers))
    buffers = workspace.get(key)
    if buffers is None:
        inputs = [np.ones((n_rows, w.shape[1] + 1)) for w, _ in layers[:-1]]
        top = np.empty((n_rows, layers[-1][0].shape[1]))
        scaled = np.empty_like(inputs[-1]) if inputs else None
        logits = np.empty(n_rows)
        buffers = workspace[key] = inputs, top, scaled, logits
    return buffers


def backward(layers: Layers, features, y, activation: Activation,
             loss: Loss, bounds=None, workspace: dict | None = None):
    """Gradients of the composed loss for every parameter.

    ``features`` is a flat (pixels, d) batch or an (images, pixels, d)
    stack, with ``y`` of the matching shape.  A stack groups the pixels
    by image: soft dice is taken per image and averaged, and the linear
    activation's rescale context comes from each image or from the whole
    batch as its ``scope`` says.  A flat batch is one group.  With
    ``bounds=None`` the context comes from the step's own logits.

    Inputs are not validated here; the trainer checks them once on entry
    and non-finite values surface in the loss or the gradients.
    ``workspace`` is a dict in which scratch buffers are kept between
    calls; one dict serves one thread.

    Returns ``(grads, loss_value)`` where grads mirrors the layer list.
    The clamp is treated as a stop: pixels whose raw activation fell
    outside [1e-7, 1 - 1e-7] contribute zero gradient.  ReLU uses
    subgradient 0 at 0.
    """
    x = np.asarray(features, dtype=float)
    if x.shape[-1] != layers[0][0].shape[1]:
        raise ValueError("feature width does not match the first layer")
    groups = x.shape[:-1]
    n_rows = math.prod(groups)
    inputs, top, scaled, logits = _step_buffers(
        {} if workspace is None else workspace, n_rows, layers)
    (inputs[0][:, :-1] if inputs else top)[...] = x.reshape(n_rows, -1)
    augmented = [np.column_stack((w, b)) for w, b in layers[:-1]]
    outputs = [a[:, :-1] for a in inputs[1:]] + [top]
    w_out, b_out = layers[-1][0][0], layers[-1][1]
    blocks = _blocks(n_rows)
    for rows in blocks:
        for a, w, out in zip(inputs, augmented, outputs):
            h = out[rows]
            np.matmul(a[rows], w.T, out=h)
            np.maximum(h, 0.0, out=h)
        np.matmul(top[rows], w_out, out=logits[rows])
    logits += b_out

    value, g = _logit_head(activation, loss, logits.reshape(groups),
                           np.reshape(y, groups), bounds)
    g = g.reshape(-1)
    grads: Layers = [None] * len(layers)
    bias_out = np.array([g.sum()])
    if not inputs:
        grads[0] = ((g @ top)[None, :], bias_out)
        return grads, value

    # The output layer has one unit, so the top hidden layer's delta is
    # the rank-1 outer(g, w) times its ReLU mask M, and its gradient is
    # w * G with G = (g * input).T @ M: the (pixels x width) delta is
    # never formed.  The top hidden output is turned into its mask in
    # place; (S.T @ M).T reads M in memory order.
    G = 0.0
    for rows in blocks:
        m = top[rows]
        np.greater(m, 0.0, out=m)
        s = scaled[rows]
        np.multiply(inputs[-1][rows], g[rows, None], out=s)
        G = G + s.T @ m
    # Unit j's ReLU output is M[:, j] * (input @ W_aug[j]), so the output
    # weights' gradient g @ output is sum_i W_aug[j, i] * G[i, j]: read
    # off G, without another pass over the hidden layer.
    grads[-1] = (np.einsum("ji,ij->j", augmented[-1], G)[None, :], bias_out)
    grad_wb = G.T * w_out[:, None]
    grads[-2] = (grad_wb[:, :-1], grad_wb[:, -1])

    # Deeper layers take the plain chain rule with an explicit delta.
    if len(layers) > 2:
        delta = top * g[:, None]
        delta *= w_out
        for k in reversed(range(len(layers) - 2)):
            mask = inputs[k + 1]
            np.greater(mask, 0.0, out=mask)
            delta = delta @ layers[k + 1][0]
            delta *= mask[:, :-1]
            grad_wb = delta.T @ inputs[k]
            grads[k] = (grad_wb[:, :-1], grad_wb[:, -1])
    return grads, value


@dataclass
class AdamState:
    step: int
    m: Layers
    v: Layers


def adam_init(layers: Layers) -> AdamState:
    zeros = lambda: [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
    return AdamState(step=0, m=zeros(), v=zeros())


def adam_step(layers: Layers, grads: Layers, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected Adam update; parameters are updated in place."""
    for idx, (gw, gb) in enumerate(grads):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise FloatingPointError(f"non-finite gradient in layer {idx}")
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(layers, grads,
                                                    state.m, state.v):
        for p, g, m, v in ((w, gw, mw, vw), (b, gb, mb, vb)):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return layers, state


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_dice: float
    lr: float
    stagnant: int
    lr_reduced: bool


@dataclass
class TrainHistory:
    """Per-epoch trace of one training run."""

    epochs: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_dice: float = float("-inf")
    converged: bool = True
    stopped: str = "max_epochs"
    #: Validation probabilities of the best epoch, (images, pixels);
    #: None until an epoch improves.
    best_val_probs: np.ndarray | None = field(default=None, repr=False,
                                              compare=False)

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)


def _predict_probabilities(layers, images, activation, workspace=None):
    """Clamped probabilities per image with per-image rescale context."""
    n_images, n_pixels, d = images.shape
    logits = forward(layers, images.reshape(-1, d), workspace)
    logits = logits.reshape(n_images, n_pixels)
    bounds = activation.evaluation_bounds(logits)
    p = activation(logits, bounds=bounds)
    return np.clip(p, CLAMP_LO, CLAMP_HI)


def pooled_validation_dice(probs, masks) -> float:
    """Dice at threshold 0.5 over all validation pixels pooled together."""
    return dice_at_threshold(np.ravel(probs), np.ravel(masks), 0.5)


def train_network(layers: Layers, train_images, train_masks, val_images,
                  val_masks, activation: Activation, loss: Loss,
                  cfg: TrainConfig, monitor=None):
    """Train with Adam, plateau LR reduction and early stopping.

    ``monitor`` maps (validation probabilities, validation masks) to the
    scalar that drives the schedule; the default is the pooled dice
    coefficient at threshold 0.5.  Returns ``(best_layers, history)``
    where ``best_layers`` are the parameters of the best-monitor epoch.

    Images and masks are validated here, once; each batch trains as an
    (images, pixels, features) stack, so soft dice is per image.  A
    non-finite loss, gradient, rescale context or validation result
    aborts the run: the history is flagged as not converged and the best
    parameters seen so far are returned.
    """
    train_images, train_masks = check_image_stack(train_images, train_masks)
    val_images, val_masks = check_image_stack(val_images, val_masks)
    if monitor is None:
        monitor = pooled_validation_dice

    n_train, n_pixels, d = train_images.shape
    if val_images.shape[1:] != (n_pixels, d):
        raise ValueError("validation images must match the training shape")

    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    lr = cfg.learning_rate
    state = adam_init(layers)
    best_layers = copy.deepcopy(layers)
    plateau = 0
    stagnant = 0
    workspace = {}

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n_train)
        batch_losses = []
        try:
            for start in range(0, n_train, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                grads, batch_loss = backward(
                    layers, train_images[idx], train_masks[idx], activation,
                    loss, workspace=workspace)
                if not np.isfinite(batch_loss):
                    raise FloatingPointError("non-finite loss")
                adam_step(layers, grads, state, lr,
                          cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
                batch_losses.append(batch_loss)

            val_probs = _predict_probabilities(layers, val_images,
                                               activation, workspace)
            val_loss = loss._value(val_probs, val_masks)
            val_metric = float(monitor(val_probs, val_masks))
            if not (np.isfinite(val_loss) and np.isfinite(val_metric)):
                raise FloatingPointError("non-finite validation result")
        except FloatingPointError:
            history.converged = False
            history.stopped = "diverged"
            break

        improved = val_metric > history.best_val_dice + IMPROVEMENT_DELTA
        epoch_lr = lr
        reduced = False
        if improved:
            history.best_val_dice = val_metric
            history.best_epoch = epoch
            history.best_val_probs = val_probs
            best_layers = copy.deepcopy(layers)
            plateau = 0
            stagnant = 0
        else:
            plateau += 1
            stagnant += 1

        stop = (not improved) and stagnant >= cfg.stop_patience
        if not stop and not improved and plateau >= cfg.plateau_patience:
            lr *= cfg.lr_factor
            plateau = 0
            reduced = True

        history.epochs.append(EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(batch_losses)),
            val_loss=float(val_loss),
            val_dice=val_metric,
            lr=epoch_lr,
            stagnant=stagnant,
            lr_reduced=reduced,
        ))

        if stop:
            history.stopped = "early_stop"
            break

    return best_layers, history
