"""Initialization, forward/backward, Adam, and the training loop."""
import copy

import numpy as np
import pytest

from oracles import (backward_reference, finite_difference, flatten_layers,
                     forward_bruteforce, train_step_reference,
                     unflatten_layers)
from segact import (TrainConfig, adam_init, adam_step, backward, forward,
                    init_layers, make_activation, make_loss, train_network)
from segact.activations import CLAMP_HI, CLAMP_LO
from segact.network import STEP_BLOCK_ROWS, _predict_probabilities

ALL_COMBOS = [(a, l)
              for a in ("cdf", "sigmoid", "isqrt", "arctan", "softsign",
                        "linear", "hardtanh")
              for l in ("bce", "dice", "mse")]


def composed_loss(layers, X, y, activation, loss, bounds=None):
    z = forward(layers, X)
    p = np.clip(np.asarray(activation(z, bounds=bounds), dtype=float),
                CLAMP_LO, CLAMP_HI)
    return loss.value(p, y)


def gradcheck_instance(act_name, seed, n=12, d=2, hidden=5):
    """A small net and batch whose logits stay clear of kinks and clamps."""
    activation = make_activation(act_name)
    for attempt in range(seed, seed + 50):
        rng = np.random.default_rng(attempt)
        layers = init_layers([d, hidden, 1], attempt)
        X = rng.normal(scale=1.2, size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        if y.sum() in (0, n):
            continue
        hidden_pre = X @ layers[0][0].T + layers[0][1]
        if np.abs(hidden_pre).min() < 1e-3:
            continue
        z = forward(layers, X)
        if np.abs(z).max() > 4.5:
            continue
        if act_name == "hardtanh" and (np.abs(z).min() < 1e-3 or
                                       np.abs(z - 1.0).min() < 1e-3):
            continue
        bounds = None
        if act_name == "linear":
            bounds = (float(z.min()) - 1.0, float(z.max()) + 1.0)
        return layers, X, y, activation, bounds
    raise AssertionError("could not build a kink-free instance")


class TestInit:
    def test_deterministic(self):
        a = init_layers([2, 8, 1], 42)
        b = init_layers([2, 8, 1], 42)
        for (wa, ba), (wb, bb) in zip(a, b):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_biases_zero_and_glorot_bounds(self):
        layers = init_layers([3, 16, 1], 0)
        for w, b in layers:
            assert np.all(b == 0.0)
            fan_out, fan_in = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= limit

    def test_zero_weight_net_outputs_half_under_symmetric_activation(self):
        layers = init_layers([2, 4, 1], 1)
        layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        z = forward(layers, np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_array_equal(z, 0.0)
        assert np.all(make_activation("sigmoid")(z) == 0.5)

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            init_layers([3], 0)
        with pytest.raises(ValueError):
            init_layers([3, 4, 2], 0)  # final layer must be one unit


class TestForward:
    def test_single_linear_layer_dot_product(self):
        layers = [(np.array([[1.0, 1.0]]), np.zeros(1))]
        out = forward(layers, np.array([[2.0, 3.0]]))
        np.testing.assert_allclose(out, [5.0])

    def test_zero_input_zero_bias(self):
        layers = init_layers([3, 6, 1], 5)
        out = forward(layers, np.zeros((4, 3)))
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        layers = init_layers([3, 7, 1], 13)
        X = rng.normal(size=(20, 3))
        np.testing.assert_allclose(forward(layers, X),
                                   forward_bruteforce(layers, X),
                                   rtol=1e-12)

    @staticmethod
    def out_of_place(layers, X):
        a = X
        for w, b in layers[:-1]:
            a = np.maximum(a @ w.T + b, 0.0)
        w, b = layers[-1]
        return (a @ w.T + b)[:, 0]

    def test_bitwise_equal_to_out_of_place_form(self):
        # The blocked in-place passes do the same operations in the same
        # order: fewer rows than a block, a one-row tail, two blocks and
        # a 37-row tail, and a single row; with and without a workspace,
        # which is reused across row counts.
        rng = np.random.default_rng(4)
        for sizes in ([3, 9, 5, 1], [3, 64, 1]):
            layers = init_layers(sizes, 2)
            workspace = {}
            for n in (300, STEP_BLOCK_ROWS + 1,
                      2 * STEP_BLOCK_ROWS + 37, 1, 300):
                X = rng.normal(size=(n, 3))
                want = self.out_of_place(layers, X)
                np.testing.assert_array_equal(forward(layers, X), want)
                np.testing.assert_array_equal(
                    forward(layers, X, workspace), want)

    def test_predict_bitwise_equal_to_out_of_place_form(self):
        # The trainer's validation predict: a 40-image stack of 32 x 32
        # images, 20 whole blocks.
        rng = np.random.default_rng(11)
        images = rng.normal(size=(40, 1024, 3))
        layers = init_layers([3, 64, 1], 8)
        logits = self.out_of_place(layers, images.reshape(-1, 3))
        workspace = {}
        for name in ("sigmoid", "linear"):
            activation = make_activation(name)
            z = logits.reshape(40, 1024)
            want = np.clip(activation(
                z, bounds=activation.evaluation_bounds(z)), CLAMP_LO, CLAMP_HI)
            for ws in (None, workspace, workspace):
                np.testing.assert_array_equal(
                    _predict_probabilities(layers, images, activation, ws),
                    want)

    def test_dimension_mismatch(self):
        layers = init_layers([3, 4, 1], 0)
        with pytest.raises(ValueError):
            forward(layers, np.zeros((2, 5)))


class TestBackward:
    @pytest.mark.parametrize("act_name,loss_name", ALL_COMBOS)
    def test_gradients_match_finite_differences(self, act_name, loss_name):
        loss = make_loss(loss_name)
        layers, X, y, activation, bounds = gradcheck_instance(
            act_name, seed=100 + hash((act_name, loss_name)) % 1000)
        grads, _ = backward(layers, X, y, activation, loss, bounds=bounds)
        flat = flatten_layers(layers)
        fd = finite_difference(
            lambda f: composed_loss(unflatten_layers(f, layers), X, y,
                                    activation, loss, bounds=bounds),
            flat, h=1e-5)
        np.testing.assert_allclose(flatten_layers(grads), fd,
                                   rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("act_name,loss_name", ALL_COMBOS)
    def test_matches_previous_step(self, act_name, loss_name):
        """Equal to the earlier train step, which took a flat batch with a
        per-image dice adapter and a second forward pass for the linear
        context: image stacks (full and partial batches through one
        workspace), flat batches, and nets with one and two hidden layers.

        Summation order differs, so each layer is held to rtol 1e-12 with
        an absolute floor of 1e-12 times its largest entry (a reordered
        sum that cancels keeps only that absolute accuracy)."""
        loss = make_loss(loss_name)
        scopes = ("image", "batch") if act_name == "linear" else (None,)
        rng = np.random.default_rng(17)
        # 700 pixels: a batch of 3 or 4 images spans two row blocks.
        X = rng.normal(size=(7, 700, 3))
        y = (rng.random((7, 700)) < 0.4).astype(float)
        for sizes in ([3, 16, 1], [3, 8, 6, 1]):
            layers = init_layers(sizes, 5)
            for scope in scopes:
                activation = make_activation(
                    act_name, **({"scope": scope} if scope else {}))
                workspace = {}
                for batch in (slice(0, 4), slice(4, 7), slice(0, 4)):
                    got = backward(layers, X[batch], y[batch], activation,
                                   loss, workspace=workspace)
                    want = train_step_reference(layers, X[batch], y[batch],
                                                activation, loss)
                    self.assert_same_step(got, want)
                flat_X, flat_y = X[:4].reshape(-1, 3), y[:4].ravel()
                self.assert_same_step(
                    backward(layers, flat_X, flat_y, activation, loss),
                    backward_reference(layers, flat_X, flat_y, activation,
                                       loss))

    @staticmethod
    def assert_same_step(got, want):
        (grads, value), (ref_grads, ref_value) = got, want
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
        for (gw, gb), (rw, rb) in zip(grads, ref_grads):
            for g, r in ((gw, rw), (gb, rb)):
                assert g.shape == r.shape
                np.testing.assert_allclose(
                    g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())

    def test_perfect_prediction_has_tiny_gradients(self):
        # Force logits deep into saturation so predictions equal targets.
        X = np.array([[6.0, 6.0], [-6.0, -6.0], [7.0, 5.0], [-5.0, -7.0]])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        layers = [(np.array([[2.0, 2.0]]), np.zeros(1))]
        grads, value = backward(layers, X, y, make_activation("sigmoid"),
                                make_loss("bce"))
        assert value < 1e-5
        for gw, gb in grads:
            assert np.abs(gw).max() < 1e-5
            assert np.abs(gb).max() < 1e-5

    def test_bce_sigmoid_final_bias_equals_mean_residual(self):
        rng = np.random.default_rng(21)
        layers = init_layers([2, 6, 1], 3)
        X = rng.normal(size=(30, 2))
        y = (rng.random(30) < 0.5).astype(float)
        activation = make_activation("sigmoid")
        grads, _ = backward(layers, X, y, activation, make_loss("bce"))
        p = activation(forward(layers, X))
        assert grads[-1][1][0] == pytest.approx(float(np.mean(p - y)),
                                                rel=1e-10)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        layers = init_layers([2, 3, 1], 0)
        before = copy.deepcopy(layers)
        grads = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        adam_step(layers, grads, adam_init(layers), lr=0.1)
        for (w, b), (w0, b0) in zip(layers, before):
            np.testing.assert_array_equal(w, w0)
            np.testing.assert_array_equal(b, b0)

    def test_first_step_is_signlike_with_lr_magnitude(self):
        layers = [(np.array([[1.0]]), np.array([2.0]))]
        grads = [(np.array([[0.3]]), np.array([-0.7]))]
        adam_step(layers, grads, adam_init(layers), lr=1e-3)
        # Bias correction makes m_hat / sqrt(v_hat) ~ sign(g) on step one.
        assert layers[0][0][0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-8)
        assert layers[0][1][0] == pytest.approx(2.0 + 1e-3, abs=1e-8)

    def test_two_steps_match_scalar_trace(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta, m, v = 0.5, 0.0, 0.0
        gs = [0.4, -0.2]
        for t, g in enumerate(gs, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1 ** t)) / \
                (np.sqrt(v / (1 - b2 ** t)) + eps)

        layers = [(np.array([[0.5]]), np.zeros(1))]
        state = adam_init(layers)
        for g in gs:
            adam_step(layers, [(np.array([[g]]), np.zeros(1))], state, lr,
                      beta1=b1, beta2=b2, eps=eps)
        assert layers[0][0][0, 0] == pytest.approx(theta, abs=1e-14)

    def test_non_finite_gradient_names_the_layer(self):
        layers = init_layers([2, 3, 1], 0)
        grads = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        grads[1] = (np.full_like(grads[1][0], np.nan), grads[1][1])
        with pytest.raises(FloatingPointError, match="layer 1"):
            adam_step(layers, grads, adam_init(layers), lr=0.1)


def separable_task(rng, n_images=24, n_pixels=64):
    """Pixels split by a known plane in feature space plus slight noise."""
    X = rng.normal(size=(n_images, n_pixels, 2))
    y = (X[..., 0] + 0.5 * X[..., 1] > 0.0).astype(float)
    return X, y


class TestTrainLoop:
    def test_reaches_high_dice_on_separable_task(self):
        rng = np.random.default_rng(0)
        X, y = separable_task(rng)
        layers = init_layers([2, 8, 1], 1)
        cfg = TrainConfig(seed=2, max_epochs=200)
        best, history = train_network(layers, X[:18], y[:18], X[18:], y[18:],
                                      make_activation("sigmoid"),
                                      make_loss("bce"), cfg)
        assert history.converged
        assert history.best_val_dice >= 0.95

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(5)
        X, y = separable_task(rng, n_images=10, n_pixels=25)
        runs = []
        for _ in range(2):
            layers = init_layers([2, 4, 1], 7)
            cfg = TrainConfig(seed=9, max_epochs=15)
            best, history = train_network(
                layers, X[:8], y[:8], X[8:], y[8:],
                make_activation("arctan"), make_loss("mse"), cfg)
            runs.append((best, history))
        (best_a, hist_a), (best_b, hist_b) = runs
        assert hist_a.epochs == hist_b.epochs
        for (wa, ba), (wb, bb) in zip(best_a, best_b):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)

    def test_constant_metric_runs_one_plus_stop_patience_epochs(self):
        rng = np.random.default_rng(1)
        X, y = separable_task(rng, n_images=6, n_pixels=16)
        layers = init_layers([2, 3, 1], 0)
        cfg = TrainConfig(seed=1, plateau_patience=5, stop_patience=10,
                          max_epochs=200)
        _, history = train_network(layers, X[:4], y[:4], X[4:], y[4:],
                                   make_activation("sigmoid"),
                                   make_loss("bce"), cfg,
                                   monitor=lambda p, t: 0.7)
        assert history.n_epochs == 1 + cfg.stop_patience
        assert history.stopped == "early_stop"
        reductions = [r.epoch for r in history.epochs if r.lr_reduced]
        assert reductions == [cfg.plateau_patience + 1]

    def test_learning_rate_nonincreasing_and_scaled_by_factor(self):
        rng = np.random.default_rng(3)
        X, y = separable_task(rng, n_images=8, n_pixels=16)
        layers = init_layers([2, 3, 1], 2)
        cfg = TrainConfig(seed=4, max_epochs=40)
        _, history = train_network(layers, X[:6], y[:6], X[6:], y[6:],
                                   make_activation("softsign"),
                                   make_loss("mse"), cfg,
                                   monitor=lambda p, t: 0.5)
        lrs = [r.lr for r in history.epochs]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        drops = {round(a / b) for a, b in zip(lrs, lrs[1:]) if b < a}
        assert drops == {round(1.0 / cfg.lr_factor)}

    def test_best_epoch_restore(self):
        rng = np.random.default_rng(8)
        X, y = separable_task(rng, n_images=12, n_pixels=36)
        layers = init_layers([2, 5, 1], 3)
        cfg = TrainConfig(seed=6, max_epochs=30)
        activation = make_activation("sigmoid")
        best, history = train_network(layers, X[:9], y[:9], X[9:], y[9:],
                                      activation, make_loss("bce"), cfg)
        from segact.network import _predict_probabilities, pooled_validation_dice
        probs = _predict_probabilities(best, X[9:], activation)
        recomputed = pooled_validation_dice(probs, y[9:])
        assert recomputed == pytest.approx(
            max(r.val_dice for r in history.epochs), abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_flagged_not_raised(self):
        rng = np.random.default_rng(2)
        X, y = separable_task(rng, n_images=6, n_pixels=16)
        # A learning rate at the float64 limit overflows the weights.
        cfg = TrainConfig(learning_rate=1e308, seed=0, max_epochs=50)
        for act_name, loss_name in ALL_COMBOS:
            layers = init_layers([2, 3, 1], 0)
            best, history = train_network(layers, X[:4], y[:4], X[4:],
                                          y[4:], make_activation(act_name),
                                          make_loss(loss_name), cfg)
            combo = f"{act_name}+{loss_name}"
            assert not history.converged, combo
            assert history.stopped == "diverged", combo
            for w, b in best:
                assert np.all(np.isfinite(w)) and np.all(np.isfinite(b)), \
                    combo

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_context_is_flagged(self):
        # Training logits stay finite; validation features large enough
        # to overflow the logits give the linear activation an infinite
        # rescale context in the per-epoch predict.
        rng = np.random.default_rng(6)
        X, y = separable_task(rng, n_images=6, n_pixels=16)
        X_val = np.clip(X[4:], -1.0, 1.0) * 1e308
        layers = init_layers([2, 3, 1], 0)
        layers[-1] = (100.0 * layers[-1][0], layers[-1][1])
        assert not np.all(np.isfinite(forward(layers, X_val.reshape(-1, 2))))
        _, history = train_network(layers, X[:4], y[:4], X_val, y[4:],
                                   make_activation("linear"),
                                   make_loss("bce"),
                                   TrainConfig(seed=0, max_epochs=5))
        assert not history.converged
        assert history.stopped == "diverged"
        assert history.n_epochs == 0

    def test_masks_validated_on_entry(self):
        rng = np.random.default_rng(7)
        X, y = separable_task(rng, n_images=6, n_pixels=16)
        y[0, 0] = 0.5
        layers = init_layers([2, 3, 1], 0)
        with pytest.raises(ValueError, match="0 and 1"):
            train_network(layers, X[:4], y[:4], X[4:], y[4:],
                          make_activation("sigmoid"), make_loss("bce"),
                          TrainConfig(seed=0, max_epochs=2))

    def test_non_finite_monitor_is_flagged(self):
        rng = np.random.default_rng(4)
        X, y = separable_task(rng, n_images=6, n_pixels=16)
        layers = init_layers([2, 3, 1], 1)
        cfg = TrainConfig(seed=0, max_epochs=20)
        _, history = train_network(layers, X[:4], y[:4], X[4:], y[4:],
                                   make_activation("sigmoid"),
                                   make_loss("bce"), cfg,
                                   monitor=lambda p, t: float("nan"))
        assert not history.converged
        assert history.stopped == "diverged"

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_factor=1.5)
        with pytest.raises(ValueError):
            TrainConfig(plateau_patience=10, stop_patience=10)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
