"""Grid execution, aggregation tables, config parsing and reports."""
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from segact import TaskConfig, TrainConfig
from segact.harness import (CONFIG_KEYS, ExperimentConfig, RunRecord,
                            SummaryTables, _run_cell, derive_seed, emit_report,
                            experiment_from_config, parse_config_text,
                            records_equal, run_experiment, run_grid,
                            sort_records, summarize)
from segact.network import SCHEDULE_FIELDS

SVG_NS = "{http://www.w3.org/2000/svg}"


def tiny_config(**overrides):
    params = dict(
        task=TaskConfig(n_images=9, image_side=10, noise_sigma=0.1, seed=1),
        train=TrainConfig(max_epochs=6),
        activations=("sigmoid", "hardtanh"),
        losses=("bce", "dice"),
        k=3,
        seed=5,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


@pytest.fixture(scope="module")
def tiny_records():
    return run_grid(tiny_config())


def make_record(act, loss, fold, nll_value, dice_value, **overrides):
    params = dict(activation=act, loss=loss, fold=fold, nll=nll_value,
                  dice=dice_value, threshold=0.5, gap_even=0.1,
                  gap_adaptive=0.1, epochs=5, converged=True)
    params.update(overrides)
    return RunRecord(**params)


class TestRunGrid:
    def test_cardinality(self, tiny_records):
        cfg = tiny_config()
        assert len(tiny_records) == \
            len(cfg.activations) * len(cfg.losses) * cfg.k

    def test_deterministic_rerun(self, tiny_records):
        again = run_grid(tiny_config())
        assert records_equal(tiny_records, again)

    def test_sorted_canonically(self, tiny_records):
        assert tiny_records == sort_records(tiny_records)
        folds = [r.fold for r in tiny_records[:3]]
        assert folds == [0, 1, 2]

    def test_thresholds_in_sweep_set(self, tiny_records):
        from segact import THRESHOLD_SWEEP
        assert all(r.threshold in THRESHOLD_SWEEP for r in tiny_records)

    def test_parallel_workers_match_sequential(self, tiny_records):
        parallel = run_grid(tiny_config(workers=2))
        assert records_equal(tiny_records, parallel)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cell_without_an_improved_epoch_predicts_again(self):
        # A run that diverges in epoch 1 keeps no validation
        # probabilities; the cell scores a fresh predict instead.
        cfg = tiny_config(train=TrainConfig(learning_rate=1e308,
                                            max_epochs=3))
        record, probs = _run_cell(cfg, "sigmoid", "bce", 0,
                                  capture_predictions=True)
        assert (record.epochs, record.converged) == (0, False)
        assert probs.size == 3 * 100 and np.all(np.isfinite(probs))
        assert math.isfinite(record.nll)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tiny_config(activations=())
        with pytest.raises(ValueError):
            tiny_config(k=1)
        with pytest.raises(ValueError):
            tiny_config(task=TaskConfig(n_images=2, image_side=10, seed=0))

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            tiny_config(workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            experiment_from_config({"workers": str(workers)})

    def test_train_seed_rejected(self):
        # Each cell seeds itself from ExperimentConfig.seed; a train seed
        # would silently do nothing.
        with pytest.raises(ValueError) as info:
            tiny_config(train=TrainConfig(max_epochs=6, seed=4))
        message = str(info.value)
        assert "ExperimentConfig.seed" in message and "\n" not in message
        assert tiny_config(seed=4).train.seed == TrainConfig.seed

    def test_names_resolve_to_registry_names(self):
        cfg = tiny_config(activations=("Sigmoid", "probit", "HardTanh"),
                          losses=("Soft_Dice", "BCE"))
        assert cfg.activations == ("sigmoid", "cdf", "hardtanh")
        assert cfg.losses == ("dice", "bce")

    @pytest.mark.parametrize("overrides, message", [
        (dict(activations=("sigmoid", "sigmoid")), "'sigmoid' twice"),
        (dict(activations=("cdf", "Probit")), "'cdf' twice"),
        (dict(losses=("dice", "softdice")), "'dice' twice"),
        (dict(activations=("sigmoid", "sigmod")), "unknown activation"),
        (dict(losses=("bce", "hinge")), "unknown loss"),
    ])
    def test_unknown_or_repeated_names_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)

    def test_misspelled_name_raises_before_any_cell_trains(self,
                                                           monkeypatch):
        import segact.harness as harness
        trained = []
        monkeypatch.setattr(harness, "_run_cell",
                            lambda *args: trained.append(args))
        values = {"n_images": "9", "image_side": "10", "k": "3",
                  "activations": "sigmoid, sigmod"}
        with pytest.raises(ValueError, match="sigmod"):
            run_grid(experiment_from_config(values))
        assert trained == []

    def test_alias_names_give_catalogue_records(self, tiny_records):
        aliased = run_grid(tiny_config(activations=("HardTanh", "Sigmoid"),
                                       losses=("soft_dice", "BCE")))
        assert records_equal(tiny_records, aliased)
        tables = summarize(aliased)
        assert [row["n_folds"] for row in tables.rows] == [3] * 4
        assert set(tables.sigmoid_wins["dice"]) == {"hardtanh"}


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(5, "sigmoid", "bce", 0)
        assert a == derive_seed(5, "sigmoid", "bce", 0)
        assert a != derive_seed(5, "sigmoid", "bce", 1)
        assert a != derive_seed(5, "sigmoid", "mse", 0)
        assert a != derive_seed(6, "sigmoid", "bce", 0)

    def test_frozen_value(self):
        # The derivation is part of the reproducibility contract; a change
        # here would silently re-randomize every published run.
        assert derive_seed(0, "sigmoid", "bce", 0) == 16931848390239180491


class TestSummarize:
    def test_hand_computed_means(self):
        records = [
            make_record("sigmoid", "bce", 0, 0.10, 0.80),
            make_record("sigmoid", "bce", 1, 0.20, 0.90),
            make_record("cdf", "bce", 0, 0.05, 0.85),
            make_record("cdf", "bce", 1, 0.15, 0.95),
        ]
        tables = summarize(records)
        by_combo = {(r["activation"], r["loss"]): r for r in tables.rows}
        row = by_combo[("sigmoid", "bce")]
        assert row["nll_mean"] == pytest.approx(0.15)
        assert row["nll_std"] == pytest.approx(0.05)  # population std
        assert row["dice_mean"] == pytest.approx(0.85)
        assert tables.best["nll"] == ["cdf", "bce"]
        assert tables.best["dice"] == ["cdf", "bce"]
        assert tables.worst["nll"] == ["sigmoid", "bce"]

    def test_catalogue_order_with_unknown_names_last(self):
        records = [make_record(act, loss, fold, 0.1, 0.9)
                   for act in ("zeta", "hardtanh", "sigmoid", "cdf")
                   for loss in ("focal", "dice", "bce")
                   for fold in (1, 0)]
        ordered = [(r.activation, r.loss, r.fold)
                   for r in sort_records(records)]
        assert ordered == [(act, loss, fold)
                           for act in ("cdf", "sigmoid", "hardtanh", "zeta")
                           for loss in ("bce", "dice", "focal")
                           for fold in (0, 1)]
        tables = summarize(records)
        assert [(r["activation"], r["loss"]) for r in tables.rows] == \
            [(act, loss) for act in ("cdf", "sigmoid", "hardtanh", "zeta")
             for loss in ("bce", "dice", "focal")]
        assert list(tables.sigmoid_wins["nll"]) == ["cdf", "hardtanh", "zeta"]

    def test_matches_two_pass_oracle(self, tiny_records):
        tables = summarize(tiny_records)
        for row in tables.rows:
            folds = [r for r in tiny_records
                     if (r.activation, r.loss) == (row["activation"],
                                                   row["loss"])]
            values = [r.nll for r in folds]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / len(values)
            assert row["nll_mean"] == pytest.approx(mean, rel=1e-12)
            assert row["nll_std"] == pytest.approx(math.sqrt(var), rel=1e-9)

    def test_sigmoid_dominating_gives_zero_wins(self):
        records = [
            make_record("sigmoid", "bce", 0, 0.01, 0.99),
            make_record("cdf", "bce", 0, 0.50, 0.50),
            make_record("arctan", "bce", 0, 0.60, 0.40),
        ]
        tables = summarize(records)
        assert tables.sigmoid_wins == {"nll": {"cdf": 0, "arctan": 0},
                                       "dice": {"cdf": 0, "arctan": 0}}

    def test_win_is_best_over_losses_comparison(self):
        # cdf loses with bce but wins through its dice-loss run.
        records = [
            make_record("sigmoid", "bce", 0, 0.10, 0.80),
            make_record("sigmoid", "dice", 0, 0.30, 0.70),
            make_record("cdf", "bce", 0, 0.20, 0.75),
            make_record("cdf", "dice", 0, 0.05, 0.90),
        ]
        tables = summarize(records)
        assert tables.sigmoid_wins["nll"]["cdf"] == 1
        assert tables.sigmoid_wins["dice"]["cdf"] == 1

    def test_loss_wins_counted_per_activation(self):
        records = [
            make_record("sigmoid", "bce", 0, 0.10, 0.80),
            make_record("sigmoid", "mse", 0, 0.20, 0.85),
            make_record("cdf", "bce", 0, 0.30, 0.70),
            make_record("cdf", "mse", 0, 0.10, 0.60),
        ]
        tables = summarize(records)
        assert tables.loss_wins["nll"] == {"bce": 1, "mse": 1}
        assert tables.loss_wins["dice"] == {"mse": 1, "bce": 1}

    def test_dice_loss_nll_ordering_flags(self):
        records = [
            make_record("cdf", "dice", 0, 0.40, 0.8),
            make_record("sigmoid", "dice", 0, 0.30, 0.8),
            make_record("isqrt", "dice", 0, 0.20, 0.8),
            make_record("arctan", "dice", 0, 0.10, 0.8),
            make_record("softsign", "dice", 0, 0.15, 0.8),
        ]
        tables = summarize(records)
        order = [row["activation"] for row in tables.dice_loss_nll]
        assert order == ["cdf", "sigmoid", "isqrt", "arctan", "softsign"]
        flags = [row["breaks_decrease"] for row in tables.dice_loss_nll]
        assert flags == [False, False, False, False, True]

    def test_incomplete_combination_excluded_with_warning(self):
        records = [
            make_record("sigmoid", "bce", 0, 0.1, 0.9),
            make_record("sigmoid", "bce", 1, 0.1, 0.9),
            make_record("cdf", "bce", 0, 0.1, 0.9),
        ]
        with pytest.warns(UserWarning, match="excluded"):
            tables = summarize(records)
        assert len(tables.rows) == 1

    def test_all_nan_adaptive_gap_becomes_none(self):
        records = [
            make_record("sigmoid", "bce", 0, 0.1, 0.9,
                        gap_adaptive=float("nan")),
            make_record("sigmoid", "bce", 1, 0.1, 0.9,
                        gap_adaptive=float("nan")),
        ]
        tables = summarize(records)
        assert tables.rows[0]["gap_adaptive_mean"] is None

    def test_pure_function_of_records(self, tiny_records):
        assert summarize(tiny_records).to_dict() == \
            summarize(list(tiny_records)).to_dict()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSummaryRoundTrip:
    def test_json_round_trip(self, tiny_records):
        tables = summarize(tiny_records)
        blob = json.dumps(tables.to_dict())
        rebuilt = SummaryTables.from_dict(json.loads(blob))
        assert rebuilt.to_dict() == tables.to_dict()


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report")
    cfg = tiny_config(activations=("cdf", "sigmoid", "softsign"),
                      losses=("bce", "dice"))
    run_experiment(cfg, out)
    return out, cfg


class TestEmitReport:
    def test_csv_row_count(self, report_dir):
        out, cfg = report_dir
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == \
            len(cfg.activations) * len(cfg.losses) * cfg.k + 1

    def test_summary_json_round_trips(self, report_dir):
        out, _ = report_dir
        data = json.loads((out / "summary.json").read_text())
        assert SummaryTables.from_dict(data).to_dict() == data

    def test_activation_curve_svg_has_seven_paths(self, report_dir):
        out, _ = report_dir
        root = ET.parse(out / "activation_curves.svg").getroot()
        paths = root.findall(f"{SVG_NS}path")
        assert len(paths) == 7
        assert root.findall(f"{SVG_NS}line")  # axis ticks present

    def test_loss_curves_emitted(self, report_dir):
        out, _ = report_dir
        for name in ("loss_curves_sigmoid.svg", "loss_curves_softsign.svg"):
            root = ET.parse(out / name).getroot()
            assert len(root.findall(f"{SVG_NS}path")) == 3

    def test_reliability_and_kde_emitted_with_predictions(self, report_dir):
        out, _ = report_dir
        assert (out / "reliability_even.svg").exists()
        assert (out / "reliability_adaptive.svg").exists()
        assert (out / "kde_bce.svg").exists()
        assert (out / "predictions.npz").exists()

    def test_completion_marker_written_last(self, report_dir):
        out, _ = report_dir
        marker = (out / "REPORT_COMPLETE").read_text().splitlines()
        assert "records.csv" in marker
        assert "summary.json" in marker

    def test_report_without_predictions_skips_those_figures(self, tmp_path,
                                                            tiny_records):
        tables = summarize(tiny_records)
        emit_report(tiny_records, tables, tmp_path)
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "activation_curves.svg").exists()
        assert not (tmp_path / "reliability_even.svg").exists()
        assert (tmp_path / "REPORT_COMPLETE").exists()


class TestConfigFile:
    def test_parse_and_defaults(self):
        text = """
        # grid settings
        n_images = 12
        preset = medium
        activations = sigmoid, cdf
        seed = 3
        """
        values = parse_config_text(text)
        cfg = experiment_from_config(values)
        assert cfg.task.n_images == 12
        assert cfg.task.noise_sigma == 0.5
        assert cfg.activations == ("sigmoid", "cdf")
        assert cfg.losses == ("bce", "dice", "mse")
        assert cfg.k == 5
        assert cfg.train.learning_rate == 1e-3
        assert cfg.seed == 3

    def test_noise_sigma_overrides_preset(self):
        cfg = experiment_from_config({"noise_sigma": "0.77",
                                      "preset": "easy", "n_images": "10"})
        assert cfg.task.noise_sigma == 0.77

    def test_default_config_is_the_full_grid(self):
        cfg = experiment_from_config({})
        assert len(cfg.activations) == 7
        assert len(cfg.losses) == 3
        assert cfg.k == 5
        assert cfg.task.n_images == 200
        assert cfg.task.image_side == 32
        assert cfg.task.noise_sigma == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("murble = 3")
        with pytest.raises(ValueError, match="unknown key 'murble'"):
            experiment_from_config({"murble": "3"})

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config_text("just some words")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            experiment_from_config({"preset": "brutal"})

    @pytest.mark.parametrize("key, text, expected", [
        ("n_images", "1e3", "an integer"),
        ("k", "2.5", "an integer"),
        ("seed", "", "an integer"),
        ("lr", "fast", "a number"),
        ("noise_sigma", "loud", "a number"),
    ])
    def test_parse_error_names_key_and_type(self, key, text, expected):
        with pytest.raises(ValueError) as info:
            experiment_from_config({key: text})
        assert str(info.value) == f"{key}: expected {expected}, got {text!r}"

    def test_keys_come_from_the_config_fields(self):
        assert sorted(CONFIG_KEYS) == sorted([
            "activations", "losses", "preset", "shape", "image_side",
            "n_images", "noise_sigma", "seed", "k", "lr", "batch_size",
            "plateau_patience", "stop_patience", "lr_factor", "max_epochs",
            "workers"])
        cfg = experiment_from_config({
            "lr": "0.01", "batch_size": "4", "plateau_patience": "2",
            "stop_patience": "3", "lr_factor": "0.5", "max_epochs": "7",
            "shape": "annulus", "image_side": "12", "n_images": "6",
            "seed": "9", "k": "2", "workers": "2"})
        assert [getattr(cfg.train, name) for name in SCHEDULE_FIELDS] == \
            [0.01, 4, 2, 3, 0.5, 7]
        assert cfg.task == TaskConfig(n_images=6, image_side=12,
                                      shape="annulus", seed=9)
        assert (cfg.seed, cfg.k, cfg.workers) == (9, 2, 2)

    def test_empty_noise_sigma_takes_the_preset(self):
        cfg = experiment_from_config({"noise_sigma": "", "preset": "hard"})
        assert cfg.task.noise_sigma == 1.0

    def test_readme_table_matches_the_schema(self):
        # Each row's default, given explicitly, must build the same
        # config as leaving the key out; every key needs a row.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text.split("### Config files", 1)[1]
        rows = re.findall(r"^\| `([a-z_]+)` \| `([^`|]*)` \|", section,
                          re.MULTILINE)
        assert len(rows) == len(CONFIG_KEYS)
        default = experiment_from_config({})
        for key, value in rows:
            assert key in CONFIG_KEYS
            assert experiment_from_config({key: value}) == default, key
        assert sorted(key for key, _ in rows) == sorted(CONFIG_KEYS)
