"""Acceptance suite: seven go/no-go criteria with fixed tolerances.

Each test prints one PASS line (with its measured quantities) after its
assertions hold, so a full run reads as a checklist.  Criterion 6 runs
the complete default grid twice and is by far the slowest; everything
else finishes in seconds.
"""
import math
import time

import numpy as np
import pytest

from oracles import (adaptive_bruteforce, dice_sweep_bruteforce,
                     evenly_spaced_bruteforce, finite_difference,
                     flatten_layers, unflatten_layers)
from segact import (TaskConfig, TrainConfig, backward, best_threshold_dice,
                    calibration_gap, clamp_probability, init_layers,
                    make_activation, make_loss, reliability, train_network)
from segact.exceptions import EmptyDiagramError
from segact.harness import (ExperimentConfig, records_equal, run_grid,
                            summarize)
from test_network import composed_loss, gradcheck_instance


def test_criterion_1_effective_domains():
    """Rounded effective domains at epsilon 0.0025 are exact integers."""
    start = time.perf_counter()
    expected = {"cdf": (-3.0, 3.0), "sigmoid": (-6.0, 6.0),
                "isqrt": (-10.0, 10.0), "arctan": (-128.0, 128.0),
                "softsign": (-199.0, 199.0)}
    resolved = {}
    for name, (lo, hi) in expected.items():
        dom = make_activation(name).effective_domain(0.0025)
        assert (dom.lo, dom.hi) == (lo, hi), name
        assert float(dom.lo).is_integer() and float(dom.hi).is_integer()
        resolved[name] = (dom.lo, dom.hi)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: effective domains {resolved} "
          f"in {elapsed * 1000:.0f} ms")


def test_criterion_2_point_values():
    """Activation and single-prediction loss values hit fixed brackets."""
    sigmoid3 = make_activation("sigmoid")(3.0)
    isqrt3 = make_activation("isqrt")(3.0)
    assert 0.9525 <= sigmoid3 <= 0.9527
    assert 0.9742 <= isqrt3 <= 0.9744

    bce = make_loss("bce")
    sig = clamp_probability(make_activation("sigmoid")(-6.0))
    soft = clamp_probability(make_activation("softsign")(-6.0))
    bce_sigmoid = bce.value([sig], [1.0])
    bce_softsign = bce.value([soft], [1.0])
    assert bce_sigmoid == pytest.approx(math.log(1.0 + math.e ** 6),
                                        abs=1e-4)
    assert bce_sigmoid == pytest.approx(6.00248, abs=1e-4)
    assert bce_softsign == pytest.approx(-math.log(1.0 / 14.0), abs=1e-3)
    assert bce_softsign == pytest.approx(2.6391, abs=1e-3)
    print(f"\nACCEPTANCE 2 PASS: sigmoid(3)={sigmoid3:.6f}, "
          f"isqrt(3)={isqrt3:.6f}, bce@-6: sigmoid={bce_sigmoid:.5f}, "
          f"softsign={bce_softsign:.5f}")


def test_criterion_3_gradient_suite():
    """All 21 combos: parameter gradients vs central finite differences
    (h=1e-5) within relative 1e-4, absolute floor 1e-7."""
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for act_name in ("cdf", "sigmoid", "isqrt", "arctan", "softsign",
                     "linear", "hardtanh"):
        for loss_name in ("bce", "dice", "mse"):
            loss = make_loss(loss_name)
            layers, X, y, activation, bounds = gradcheck_instance(
                act_name, seed=7000 + hash((act_name, loss_name)) % 997)
            grads, _ = backward(layers, X, y, activation, loss,
                                bounds=bounds)
            flat = flatten_layers(layers)
            fd = finite_difference(
                lambda f: composed_loss(unflatten_layers(f, layers), X, y,
                                        activation, loss, bounds=bounds),
                flat, h=1e-5)
            analytic = flatten_layers(grads)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7,
                                       err_msg=f"{act_name}+{loss_name}")
            gap = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-7)
            worst = max(worst, float(gap.max()))
            checked += analytic.size
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: {checked} parameter gradients over 21 "
          f"combos, worst relative gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_4_oracle_equivalence():
    """1000 random instances of <= 64 pixels: the dice sweep and both
    reliability strategies equal independent brute-force versions."""
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    n_adaptive_defined = 0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        if rng.random() < 0.3:
            yhat = rng.integers(0, 21, n) / 20.0  # gridded: exact edges
        else:
            yhat = rng.uniform(0.0, 1.0, n)
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)

        res = best_threshold_dice(yhat, y)
        t_ref, d_ref, table_ref = dice_sweep_bruteforce(yhat, y)
        assert res.best_threshold == t_ref
        assert res.best_dice == d_ref
        assert list(res.dice_values) == table_ref

        even = reliability(yhat, y, "evenly-spaced", n_bins=15)
        c_ref, f_ref, n_ref = evenly_spaced_bruteforce(yhat, y, 15)
        np.testing.assert_array_equal(even.counts, n_ref)
        np.testing.assert_array_equal(even.confidence, c_ref)
        np.testing.assert_array_equal(even.fraction, f_ref)

        ref = adaptive_bruteforce(yhat, y, 15, 1e-2, 1.0 - 1e-2)
        try:
            adaptive = reliability(yhat, y, "adaptive", n_bins=15)
        except EmptyDiagramError:
            assert ref is None
            continue
        n_adaptive_defined += 1
        np.testing.assert_array_equal(adaptive.counts, ref[2])
        np.testing.assert_array_equal(adaptive.confidence, ref[0])
        np.testing.assert_array_equal(adaptive.fraction, ref[1])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: 1000 instances matched exactly "
          f"({n_adaptive_defined} with nonempty adaptive bins), "
          f"{elapsed:.1f} s")


def test_criterion_5_calibration_sanity():
    """A perfectly calibrated stream of 1e5 draws shows gap < 0.02."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240501)
    yhat = rng.uniform(0.0, 1.0, 100_000)
    y = (rng.random(100_000) < yhat).astype(float)
    gaps = {}
    for strategy in ("evenly-spaced", "adaptive"):
        gaps[strategy] = calibration_gap(
            reliability(yhat, y, strategy, n_bins=15))
        assert gaps[strategy] < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 5 PASS: gaps even={gaps['evenly-spaced']:.4f}, "
          f"adaptive={gaps['adaptive']:.4f}, {elapsed:.1f} s")


def test_criterion_6_end_to_end_desk_run():
    """Default grid (7 x 3, 5 folds, 200 images of 32 x 32, easy noise):
    105 records, bitwise reproducible, BCE+sigmoid mean dice >= 0.8,
    under 30 minutes."""
    cfg = ExperimentConfig(
        task=TaskConfig(n_images=200, image_side=32, shape="disk",
                        noise_sigma=0.1, seed=0),
        train=TrainConfig(),
        k=5,
        seed=0,
    )
    start = time.perf_counter()
    records = run_grid(cfg)
    first_run = time.perf_counter() - start
    assert len(records) == 105

    again = run_grid(cfg)
    assert records_equal(records, again)

    sigmoid_bce = [r.dice for r in records
                   if (r.activation, r.loss) == ("sigmoid", "bce")]
    assert len(sigmoid_bce) == 5
    mean_dice = float(np.mean(sigmoid_bce))
    assert mean_dice >= 0.8
    # Regression band recorded from the first desk run: every fold,
    # not just the mean, stays high on the easy preset.
    assert min(sigmoid_bce) >= 0.8

    elapsed = time.perf_counter() - start
    assert first_run < 1800.0
    tables = summarize(records)
    print(f"\nACCEPTANCE 6 PASS: 105 records, reproducible, "
          f"sigmoid+bce mean dice {mean_dice:.4f}, best combo "
          f"{tuple(tables.best['dice'])}, run {first_run:.0f} s "
          f"(both runs {elapsed:.0f} s)")


def test_criterion_7_training_protocol():
    """With a constant validation metric the trainer runs exactly
    1 + stop_patience epochs and cuts the LR once, by lr_factor, at
    epoch plateau_patience + 1."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8, 25, 2))
    y = (X[..., 0] > 0.0).astype(float)
    cfg = TrainConfig(plateau_patience=5, stop_patience=10, lr_factor=0.1,
                      max_epochs=500, seed=1)
    layers = init_layers([2, 4, 1], 0)
    _, history = train_network(layers, X[:6], y[:6], X[6:], y[6:],
                               make_activation("sigmoid"), make_loss("bce"),
                               cfg, monitor=lambda p, t: 0.42)
    assert history.n_epochs == 1 + cfg.stop_patience
    reductions = [r.epoch for r in history.epochs if r.lr_reduced]
    assert reductions == [cfg.plateau_patience + 1]
    lrs = [r.lr for r in history.epochs]
    assert lrs[:6] == [cfg.learning_rate] * 6
    assert lrs[6:] == [cfg.learning_rate * cfg.lr_factor] * 5
    print(f"\nACCEPTANCE 7 PASS: {history.n_epochs} epochs, one LR cut at "
          f"epoch {reductions[0]}, factor {cfg.lr_factor}")
