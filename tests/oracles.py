"""Independent brute-force reference implementations for the tests.

Everything here is written as plainly as possible (Python loops, direct
interval checks, explicit parameter flattening) and deliberately avoids
the vectorized code paths in the package, so a disagreement points at a
real defect rather than shared arithmetic.
"""
import numpy as np

from segact.activations import CLAMP_HI, CLAMP_LO, Linear
from segact.losses import Loss, SoftDice
from segact.network import forward
from segact.validation import check_prediction_target

SWEEP = [k / 20 for k in range(21)]


def dice_sweep_bruteforce(yhat, y):
    """Best dice over the fixed threshold sweep, ties to the smallest t."""
    best_t, best_d, table = None, -1.0, []
    for t in SWEEP:
        inter = 0
        n_pred = 0
        n_truth = 0
        for p, target in zip(yhat, y):
            pred = p > t
            n_pred += int(pred)
            n_truth += int(target == 1)
            inter += int(pred and target == 1)
        d = 1.0 if n_pred + n_truth == 0 else 2.0 * inter / (n_pred + n_truth)
        table.append(d)
        if d > best_d:
            best_t, best_d = t, d
    return best_t, best_d, table


def evenly_spaced_bruteforce(yhat, y, n_bins):
    """Reliability bins [k/n, (k+1)/n), last bin closed at 1."""
    edges = [k / n_bins for k in range(n_bins + 1)]
    conf, frac, counts = [], [], []
    for b in range(n_bins):
        members = []
        for i, p in enumerate(yhat):
            if b < n_bins - 1:
                inside = edges[b] <= p < edges[b + 1]
            else:
                inside = edges[b] <= p <= edges[b + 1]
            if inside:
                members.append(i)
        counts.append(len(members))
        if members:
            conf.append(float(np.mean(np.asarray([yhat[i] for i in members]))))
            frac.append(float(np.mean(np.asarray([y[i] for i in members]))))
        else:
            conf.append(float("nan"))
            frac.append(float("nan"))
    return conf, frac, counts


def adaptive_bruteforce(yhat, y, n_bins, lo, hi):
    """Equal-count bins over sorted filtered predictions; earlier bins
    take the remainder.  Returns None when everything is filtered."""
    kept = [i for i, p in enumerate(yhat) if lo <= p <= hi]
    if not kept:
        return None
    kept.sort(key=lambda i: yhat[i])  # Python sort is stable, like argsort
    m = len(kept)
    base, extra = divmod(m, n_bins)
    conf, frac, counts = [], [], []
    start = 0
    for b in range(n_bins):
        size = base + (1 if b < extra else 0)
        members = kept[start:start + size]
        start += size
        counts.append(size)
        if members:
            conf.append(float(np.mean(np.asarray([yhat[i] for i in members]))))
            frac.append(float(np.mean(np.asarray([y[i] for i in members]))))
        else:
            conf.append(float("nan"))
            frac.append(float("nan"))
    return conf, frac, counts


def forward_bruteforce(layers, features):
    """Layer-by-layer forward pass with explicit loops."""
    outputs = []
    for row in features:
        a = list(row)
        for k, (w, b) in enumerate(layers):
            nxt = []
            for j in range(w.shape[0]):
                s = b[j]
                for i in range(w.shape[1]):
                    s += w[j, i] * a[i]
                if k < len(layers) - 1:
                    s = max(s, 0.0)
                nxt.append(s)
            a = nxt
        outputs.append(a[0])
    return np.asarray(outputs)


def flatten_layers(layers):
    return np.concatenate([np.concatenate([w.ravel(), b])
                           for w, b in layers])


def unflatten_layers(flat, layers):
    rebuilt, i = [], 0
    for w, b in layers:
        wn = flat[i:i + w.size].reshape(w.shape)
        i += w.size
        bn = flat[i:i + b.size]
        i += b.size
        rebuilt.append((wn, bn))
    return rebuilt


def finite_difference(fn, x0, h=1e-5):
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        grad[i] = (fn(x0 + step) - fn(x0 - step)) / (2.0 * h)
    return grad


# The train step as it was before the buffered rewrite: a flat batch, a
# per-image soft dice adapter, and the linear rescale context taken from
# a second forward pass and repeated per pixel.  ``backward_reference``
# is the earlier ``network.backward`` unchanged.

def backward_reference(layers, features, y, activation, loss, bounds=None):
    """Gradients of the composed loss for every parameter.

    Returns ``(grads, loss_value)`` where grads mirrors the layer list.
    The clamp is treated as a stop: pixels whose raw activation fell
    outside [1e-7, 1 - 1e-7] contribute zero gradient.  ReLU uses
    subgradient 0 at 0.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    pre = []
    acts = [x]
    a = x
    if x.shape[1] != layers[0][0].shape[1]:
        raise ValueError("feature width does not match the first layer")
    for w, b in layers[:-1]:
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    w, b = layers[-1]
    logits = (a @ w.T + b)[:, 0]

    p_raw = np.asarray(activation(logits, bounds=bounds), dtype=float)
    p = np.clip(p_raw, CLAMP_LO, CLAMP_HI)
    value = loss.value(p, y)
    passthru = (p_raw >= CLAMP_LO) & (p_raw <= CLAMP_HI)
    delta = loss.grad(p, y) * activation.derivative(logits, bounds=bounds)
    delta = (delta * passthru)[:, None]

    grads = [None] * len(layers)
    for k in reversed(range(len(layers))):
        grads[k] = (delta.T @ acts[k], delta.sum(axis=0))
        if k:
            delta = (delta @ layers[k][0]) * (pre[k - 1] > 0.0)
    return grads, float(value)


class PerImageSoftDiceReference(Loss):
    """Soft dice per image of a flat (batch * pixels) array, averaged."""

    name = "dice"

    def __init__(self, pixels_per_image, denom_epsilon):
        self.pixels_per_image = int(pixels_per_image)
        self.denom_epsilon = float(denom_epsilon)

    def _reshape(self, yhat, y):
        yhat, y = check_prediction_target(yhat, y)
        p = yhat.reshape(-1, self.pixels_per_image)
        t = y.reshape(-1, self.pixels_per_image)
        inter = (p * t).sum(axis=1)
        denom = p.sum(axis=1) + t.sum(axis=1) + self.denom_epsilon
        return p, t, inter, denom

    def value(self, yhat, y):
        _, _, inter, denom = self._reshape(yhat, y)
        return float(np.mean(1.0 - 2.0 * inter / denom))

    def grad(self, yhat, y):
        p, t, inter, denom = self._reshape(yhat, y)
        g = (2.0 * inter[:, None] - 2.0 * t * denom[:, None]) / \
            (denom * denom)[:, None]
        return g.ravel() / p.shape[0]


def train_step_reference(layers, images, masks, activation, loss):
    """``backward_reference`` on an (images, pixels, d) batch, set up as
    the earlier trainer set up each batch."""
    n_images, n_pixels, d = images.shape
    xb = images.reshape(-1, d)
    yb = masks.ravel()
    if isinstance(loss, SoftDice):
        loss = PerImageSoftDiceReference(n_pixels, loss.denom_epsilon)
    bounds = None
    if isinstance(activation, Linear):
        logits = forward(layers, xb)
        bounds = activation.training_bounds(
            logits.reshape(n_images, n_pixels))
        if isinstance(bounds[0], np.ndarray):
            bounds = (np.repeat(bounds[0].ravel(), n_pixels),
                      np.repeat(bounds[1].ravel(), n_pixels))
    return backward_reference(layers, xb, yb, activation, loss,
                              bounds=bounds)
