"""End-to-end runs of every CLI subcommand."""
import csv
import io
import json
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout

import numpy as np
import pytest

from segact import clamp_probability, nll
from segact.cli import main
from segact.storage import load_dataset, load_weights, read_records

SVG_NS = "{http://www.w3.org/2000/svg}"

TINY_CONFIG = """
n_images = 9
image_side = 10
preset = easy
seed = 4
k = 3
max_epochs = 6
activations = sigmoid, hardtanh
losses = bce, dice
"""


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.fixture()
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestDomains:
    def test_text_table_lists_all_seven(self):
        code, out = run_cli("domains", "--epsilon", "0.0025")
        assert code == 0
        for label in ("normal CDF", "sigmoid", "inverse square root",
                      "arctangent", "softsign", "linear", "hardtanh"):
            assert label in out
        assert "[-199, 199]" in out

    def test_csv_output_round_trips_integers(self):
        code, out = run_cli("domains", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        by_name = {r["name"]: r for r in rows}
        assert float(by_name["sigmoid"]["lo"]) == -6.0
        assert float(by_name["sigmoid"]["hi"]) == 6.0
        assert float(by_name["arctangent"]["hi"]) == 128.0
        assert float(by_name["softsign"]["epsilon"]) == 0.0025

    def test_custom_epsilon_changes_domains(self):
        code, out = run_cli("domains", "--epsilon", "0.05", "--format", "csv")
        rows = {r["name"]: r for r in csv.DictReader(io.StringIO(out))}
        assert float(rows["sigmoid"]["hi"]) == 3.0  # ln(19) = 2.94, ceil


class TestLossCurve:
    def test_writes_svg_with_one_path(self, tmp_path):
        out_file = tmp_path / "curve.svg"
        code, _ = run_cli("losscurve", "--loss", "bce", "--activation",
                          "softsign", "--range=-6:6", "--out", str(out_file))
        assert code == 0
        root = ET.parse(out_file).getroot()
        assert len(root.findall(f"{SVG_NS}path")) == 1

    def test_bad_range_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_cli("losscurve", "--loss", "bce", "--activation", "sigmoid",
                    "--range=6:6", "--out", str(tmp_path / "x.svg"))


class TestDatagen:
    def test_writes_dataset_and_manifest(self, tmp_path, tiny_config_file):
        out_dir = tmp_path / "ds"
        code, out = run_cli("datagen", "--config", str(tiny_config_file),
                            "--out", str(out_dir))
        assert code == 0
        samples = load_dataset(out_dir)
        assert len(samples) == 9
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 4


class TestTrain:
    def test_history_and_weights(self, tmp_path, tiny_config_file):
        out_dir = tmp_path / "run"
        code, out = run_cli("train", "--activation", "sigmoid", "--loss",
                            "bce", "--config", str(tiny_config_file),
                            "--out", str(out_dir))
        assert code == 0
        with open(out_dir / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) == {"epoch", "train_loss", "val_loss",
                                "val_dice", "lr"}
        layers = load_weights(out_dir / "weights.acts")
        assert layers[-1][0].shape[0] == 1

    def test_trains_from_stored_dataset(self, tmp_path, tiny_config_file):
        ds_dir = tmp_path / "ds"
        run_cli("datagen", "--config", str(tiny_config_file),
                "--out", str(ds_dir))
        out_dir = tmp_path / "run"
        code, _ = run_cli("train", "--activation", "hardtanh", "--loss",
                          "mse", "--seed", "9", "--config",
                          str(tiny_config_file), "--data", str(ds_dir),
                          "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "weights.acts").exists()


class TestMetrics:
    def test_json_values_match_library(self, tmp_path):
        rng = np.random.default_rng(6)
        preds = rng.uniform(0.0, 1.0, 300)
        truth = (rng.random(300) < preds).astype(float)
        pred_path = tmp_path / "pred.bin"
        truth_path = tmp_path / "truth.bin"
        preds.astype("<f8").tofile(pred_path)
        truth.astype("<f8").tofile(truth_path)

        code, out = run_cli("metrics", "--pred", str(pred_path),
                            "--truth", str(truth_path))
        assert code == 0
        result = json.loads(out)
        assert result["n_pixels"] == 300
        assert result["nll"] == pytest.approx(
            nll(clamp_probability(preds), truth))
        assert len(result["dice_table"]) == 21
        assert 0.0 <= result["best_dice"] <= 1.0

    def test_csv_inputs_and_plots(self, tmp_path):
        pred_path = tmp_path / "pred.csv"
        truth_path = tmp_path / "truth.csv"
        pred_path.write_text("0.1\n0.9\n0.4\n0.8\n")
        truth_path.write_text("0\n1\n0\n1\n")
        plot_dir = tmp_path / "plots"
        code, out = run_cli("metrics", "--pred", str(pred_path),
                            "--truth", str(truth_path),
                            "--plots", str(plot_dir))
        assert code == 0
        assert (plot_dir / "reliability_even.svg").exists()
        assert (plot_dir / "kde_foreground.svg").exists()
        result = json.loads(out)
        assert result["best_dice"] == 1.0


    def test_truncated_binary_rejected(self, tmp_path):
        pred_path = tmp_path / "pred.bin"
        truth_path = tmp_path / "truth.bin"
        np.array([0.25, 0.75], dtype="<f8").tofile(truth_path)
        # 12 bytes: one whole value and half of another.
        pred_path.write_bytes(np.array([0.5, 0.5], dtype="<f8")
                              .tobytes()[:12])
        with pytest.raises(ValueError, match="pred.bin") as info:
            run_cli("metrics", "--pred", str(pred_path),
                    "--truth", str(truth_path))
        assert "\n" not in str(info.value)


class TestGridAndReport:
    def test_grid_then_report(self, tmp_path, tiny_config_file):
        grid_dir = tmp_path / "grid"
        code, out = run_cli("grid", "--config", str(tiny_config_file),
                            "--out", str(grid_dir))
        assert code == 0
        records = read_records(grid_dir / "records.csv")
        assert len(records) == 2 * 2 * 3
        assert "12 records" in out
        assert (grid_dir / "REPORT_COMPLETE").exists()

        report_dir = tmp_path / "report"
        code, out = run_cli("report", "--records",
                            str(grid_dir / "records.csv"),
                            "--out", str(report_dir))
        assert code == 0
        assert (report_dir / "summary.json").exists()
        # The sidecar predictions.npz next to records.csv is picked up.
        assert (report_dir / "reliability_even.svg").exists()

    def test_workers_flag(self, tmp_path, tiny_config_file):
        grid_dir = tmp_path / "grid2"
        code, _ = run_cli("grid", "--config", str(tiny_config_file),
                          "--out", str(grid_dir), "--workers", "2")
        assert code == 0
        assert len(read_records(grid_dir / "records.csv")) == 12
