"""The sklearn-style estimator surface of the pixel classifier."""
import numpy as np
import pytest

from segact import (ACTIVATION_ORDER, LOSS_ORDER, PixelClassifier,
                    TaskConfig, TrainConfig, generate, kfold_split, stack)
from segact.exceptions import NotFittedError


@pytest.fixture(scope="module")
def easy_task():
    X, y = stack(generate(TaskConfig(n_images=30, image_side=12,
                                     noise_sigma=0.1, seed=21)))
    train, val = kfold_split(30, k=5, seed=4)[0]
    return X, y, train, val


def quick_model(**overrides):
    params = dict(activation="sigmoid", loss="bce", max_epochs=25,
                  random_state=7)
    params.update(overrides)
    return PixelClassifier(**params)


class TestParams:
    def test_get_params_round_trip(self):
        model = PixelClassifier(activation="arctan", learning_rate=0.01)
        params = model.get_params()
        assert params["activation"] == "arctan"
        assert params["learning_rate"] == 0.01
        clone = PixelClassifier(**params)
        assert clone.get_params() == params

    def test_set_params_returns_self_and_validates(self):
        model = PixelClassifier()
        assert model.set_params(loss="dice") is model
        assert model.loss == "dice"
        with pytest.raises(ValueError):
            model.set_params(nonsense=1)

    def test_sklearn_clone_compatibility(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        model = PixelClassifier(activation="softsign", loss="mse")
        clone = sklearn_base.clone(model)
        assert clone.get_params() == model.get_params()
        assert clone is not model

    def test_default_params_unchanged(self):
        assert PixelClassifier().get_params() == dict(
            hidden_layer_sizes=(64,), activation="sigmoid", loss="bce",
            learning_rate=1e-3, batch_size=8, plateau_patience=5,
            stop_patience=10, lr_factor=0.1, max_epochs=200,
            linear_scope="batch", validation_fraction=0.2,
            denom_epsilon=1e-7, random_state=0)

    def test_from_config_takes_the_schedule(self):
        train = TrainConfig(learning_rate=0.02, batch_size=3,
                            plateau_patience=1, stop_patience=4,
                            lr_factor=0.5, max_epochs=9, seed=77)
        model = PixelClassifier.from_config(train, "cdf", "mse",
                                            random_state=5)
        assert model.get_params() == PixelClassifier(
            activation="cdf", loss="mse", learning_rate=0.02, batch_size=3,
            plateau_patience=1, stop_patience=4, lr_factor=0.5,
            max_epochs=9, random_state=5).get_params()

    def test_repr_shows_params(self):
        assert "activation='cdf'" in repr(PixelClassifier(activation="cdf"))


class TestFitPredict:
    def test_not_fitted_errors(self):
        model = PixelClassifier()
        with pytest.raises(NotFittedError):
            model.predict_proba(np.zeros((1, 4, 3)))
        with pytest.raises(NotFittedError):
            model.decision_function(np.zeros((1, 4, 3)))

    def test_fit_returns_self_and_sets_state(self, easy_task):
        X, y, train, val = easy_task
        model = quick_model()
        assert model.fit(X[train], y[train], X[val], y[val]) is model
        assert model.n_features_in_ == 3
        assert model.history_.n_epochs >= 1
        assert len(model.layers_) == 2

    def test_predict_shapes_and_types(self, easy_task):
        X, y, train, val = easy_task
        model = quick_model().fit(X[train], y[train], X[val], y[val])
        probs = model.predict_proba(X[val])
        assert probs.shape == (len(val), X.shape[1])
        assert probs.min() >= 1e-7 and probs.max() <= 1.0 - 1e-7
        masks = model.predict(X[val])
        assert masks.dtype == np.uint8
        assert set(np.unique(masks)) <= {0, 1}
        logits = model.decision_function(X[val])
        assert logits.shape == probs.shape

    @pytest.mark.parametrize("loss_name", LOSS_ORDER)
    @pytest.mark.parametrize("act_name", ACTIVATION_ORDER)
    def test_kept_validation_probabilities_equal_predict_proba(
            self, easy_task, act_name, loss_name):
        X, y, train, val = easy_task
        model = quick_model(activation=act_name, loss=loss_name,
                            max_epochs=4)
        model.fit(X[train], y[train], X[val], y[val])
        kept = model.history_.best_val_probs
        assert model.history_.best_epoch >= 1
        probs = model.predict_proba(X[val])
        assert kept.shape == probs.shape
        assert kept.tobytes() == probs.tobytes()

    def test_kept_probabilities_of_a_run_that_diverged_later(self, easy_task):
        X, y, train, val = easy_task
        calls = []

        def monitor(p, t):  # improves twice, then turns non-finite
            calls.append(None)
            return float(len(calls)) if len(calls) < 3 else float("nan")

        model = quick_model(activation="linear", loss="mse", max_epochs=6)
        model.fit(X[train], y[train], X[val], y[val], monitor=monitor)
        history = model.history_
        assert (history.stopped, history.best_epoch) == ("diverged", 2)
        assert history.best_val_probs.tobytes() == \
            model.predict_proba(X[val]).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_probabilities_kept_when_no_epoch_improved(self, easy_task):
        X, y, train, val = easy_task
        model = quick_model(learning_rate=1e308, max_epochs=3)
        model.fit(X[train], y[train], X[val], y[val])
        assert model.history_.stopped == "diverged"
        assert model.history_.best_epoch == 0
        assert model.history_.best_val_probs is None

    def test_single_image_promoted(self, easy_task):
        X, y, train, val = easy_task
        model = quick_model().fit(X[train], y[train], X[val], y[val])
        probs = model.predict_proba(X[val][0])
        assert probs.shape == (1, X.shape[1])

    def test_score_is_pooled_dice(self, easy_task):
        X, y, train, val = easy_task
        model = quick_model().fit(X[train], y[train], X[val], y[val])
        from segact import dice_at_threshold
        expected = dice_at_threshold(
            model.predict_proba(X[val]).ravel(), y[val].ravel(), 0.5)
        assert model.score(X[val], y[val]) == expected

    def test_internal_validation_split(self, easy_task):
        X, y, _, _ = easy_task
        model = quick_model(validation_fraction=0.25).fit(X, y)
        assert model.history_.n_epochs >= 1
        with pytest.raises(ValueError):
            quick_model().fit(X[:1], y[:1])  # nothing left to hold out
        with pytest.raises(ValueError):
            quick_model().fit(X, y, y_val=y[:2])

    def test_deterministic_given_random_state(self, easy_task):
        X, y, train, val = easy_task
        a = quick_model().fit(X[train], y[train], X[val], y[val])
        b = quick_model().fit(X[train], y[train], X[val], y[val])
        for (wa, _), (wb, _) in zip(a.layers_, b.layers_):
            np.testing.assert_array_equal(wa, wb)
        assert a.history_.epochs == b.history_.epochs

    def test_activation_object_accepted(self, easy_task):
        X, y, train, val = easy_task
        from segact import Softsign
        model = quick_model(activation=Softsign(), max_epochs=5)
        model.fit(X[train], y[train], X[val], y[val])
        assert model.activation_.name == "softsign"

    def test_linear_scope_forwarded(self, easy_task):
        X, y, train, val = easy_task
        model = quick_model(activation="linear", linear_scope="image",
                            max_epochs=5)
        model.fit(X[train], y[train], X[val], y[val])
        assert model.activation_.scope == "image"

    @pytest.mark.parametrize("activation, loss", [
        ("Linear", "Soft_Dice"), ("LINEAR", "SoftDice")])
    def test_aliases_get_scope_and_epsilon(self, activation, loss):
        model = quick_model(activation=activation, loss=loss,
                            linear_scope="image", denom_epsilon=1e-5)
        assert model._make_activation().scope == "image"
        assert model._make_loss().denom_epsilon == 1e-5

    def test_dice_epsilon_forwarded(self, easy_task):
        X, y, train, val = easy_task
        model = quick_model(loss="dice", denom_epsilon=1e-5, max_epochs=5)
        model.fit(X[train], y[train], X[val], y[val])
        assert model.loss_.denom_epsilon == 1e-5

    def test_input_validation(self):
        model = quick_model()
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, 3)), np.array([[0.0, 2.0, 1.0]]))
        with pytest.raises(ValueError):
            model.fit(np.zeros((2, 4, 3)), np.zeros((3, 4)))
