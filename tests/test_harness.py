"""Grid execution, aggregation tables, config parsing and reports."""
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from segact import TaskConfig, TrainConfig
from segact.harness import (ExperimentConfig, RunRecord, SummaryTables,
                            _run_cell, derive_seed, emit_report,
                            experiment_from_config, parse_config_text,
                            records_equal, run_experiment, run_grid,
                            sort_records, summarize)

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

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_config_text("just some words")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            experiment_from_config({"preset": "brutal"})
