"""Tests of the benchmark's own checks and tracer.

Each check test takes the output of a small real run, corrupts one
value and shows that a check fails.  Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from segact import harness, metrics, plots, svg  # noqa: E402
from segact.cli import main  # noqa: E402

TINY_GRID = """\
activations = sigmoid,hardtanh
losses = bce,dice
n_images = 20
k = 2
seed = 3
max_epochs = 1
plateau_patience = 1
stop_patience = 2
"""
TINY_CELLS = [(a, l, f) for a in ("sigmoid", "hardtanh")
              for l in ("bce", "dice") for f in range(2)]


@pytest.fixture(scope="module")
def grid_output(tmp_path_factory):
    base = tmp_path_factory.mktemp("grid")
    (base / "grid.cfg").write_text(TINY_GRID, encoding="utf-8")
    assert main(["grid", "--config", str(base / "grid.cfg"),
                 "--out", str(base / "out")]) == 0
    return base / "out"


@pytest.fixture
def grid_copy(grid_output, tmp_path):
    return Path(shutil.copytree(grid_output, tmp_path / "out"))


def check_grid(out_dir):
    _, folds = workloads.fold_counts(TINY_GRID)
    return checks.check_grid_report(out_dir, TINY_CELLS, 1, folds)


def edit_record(out_dir, fold, column, edit):
    rows = checks.read_records(out_dir / "records.csv")
    row = next(r for r in rows if r["fold"] == str(fold))
    row[column] = edit(row[column])
    write_rows(out_dir, rows)


def write_rows(out_dir, rows):
    with open(out_dir / "records.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_grid_report_passes_unchanged(grid_output):
    assert check_grid(grid_output) == (0, [])


@pytest.mark.parametrize("fold, column, edit", [
    (0, "nll", lambda v: repr(float(v) * (1 + 1e-6))),
    (0, "dice", lambda v: repr(float(v) - 1e-3)),
    (0, "threshold", lambda v: repr(round(float(v) + 0.05, 2) % 1.0)),
    (0, "gap_even", lambda v: repr(float(v) + 1e-3)),
    (0, "gap_adaptive", lambda v: repr(float(v) + 1e-3)),
    (1, "nll", lambda v: "17.0"),
    (1, "dice", lambda v: "1.5"),
    (1, "dice", lambda v: "0.0"),
    (1, "threshold", lambda v: "0.33"),
])
def test_mutated_record_fails(grid_copy, fold, column, edit):
    edit_record(grid_copy, fold, column, edit)
    failed, problems = check_grid(grid_copy)
    assert failed == 0 and problems


def test_short_or_diverged_cell_counts_as_failed(grid_copy):
    edit_record(grid_copy, 1, "epochs", lambda v: "0")
    edit_record(grid_copy, 0, "converged", lambda v: "false")
    failed, _ = check_grid(grid_copy)
    assert failed == 2


def test_missing_record_fails(grid_copy):
    rows = checks.read_records(grid_copy / "records.csv")
    write_rows(grid_copy, rows[:-1])
    assert check_grid(grid_copy)[1]


def test_summary_mean_mismatch_fails(grid_copy):
    path = grid_copy / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["rows"][0]["dice_mean"] += 1e-9
    path.write_text(json.dumps(summary), encoding="utf-8")
    assert check_grid(grid_copy)[1]


def test_broken_svg_fails(grid_copy):
    path = next(grid_copy.glob("*.svg"))
    path.write_text(path.read_text(encoding="utf-8")[:-20], encoding="utf-8")
    assert check_grid(grid_copy)[1]


def test_serial_rerun_must_match_bitwise(grid_copy):
    values = harness.parse_config_text(TINY_GRID)
    values.update(activations="sigmoid", losses="bce")
    records = harness.run_grid(harness.experiment_from_config(values))
    rows = checks.read_records(grid_copy / "records.csv")
    assert checks.check_rerun(rows, records) == []
    # The first fold-1 row is sigmoid+bce: records are in catalogue order.
    edit_record(grid_copy, 1, "nll",
                lambda v: repr(float(np.nextafter(float(v), np.inf))))
    rows = checks.read_records(grid_copy / "records.csv")
    assert checks.check_rerun(rows, records)


# ---------------------------------------------------------------------------
# segact metrics

@pytest.fixture(scope="module")
def metrics_output(tmp_path_factory):
    base = tmp_path_factory.mktemp("metrics")
    rng = np.random.default_rng(5)
    pred, truth = workloads.make_prediction_set(rng, 0.3, 1.5, 1.5,
                                                "hardtanh", n=40_000)
    pred.astype("<f8").tofile(base / "pred.bin")
    truth.astype("<f8").tofile(base / "truth.bin")
    code, text, error = workloads._timed_main(main, [
        "metrics", "--pred", str(base / "pred.bin"), "--truth",
        str(base / "truth.bin"), "--plots", str(base / "plots")],
        workloads.Round(attempted=1))
    assert code == 0 and error is None
    clamped = np.clip(pred, checks.CLAMP_LO, checks.CLAMP_HI)
    return {"result": json.loads(text), "pred": clamped, "truth": truth,
            "plots": base / "plots"}


def test_metrics_result_passes_unchanged(metrics_output):
    ref = checks.reference(metrics_output["pred"], metrics_output["truth"])
    assert checks.check_metrics_result(metrics_output["result"], ref,
                                       "set") == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r["dice_table"].insert(0, r["dice_table"].pop()),
    lambda r: r["dice_table"][3].__setitem__(1, r["dice_table"][4][1]),
    lambda r: r.__setitem__("nll", r["nll"] * (1 + 1e-6)),
    lambda r: r.__setitem__("best_threshold", 1.0 - r["best_threshold"]),
    lambda r: r.__setitem__("calibration_gap_even",
                            r["calibration_gap_even"] + 1e-6),
    lambda r: r.__setitem__("calibration_gap_adaptive", None),
])
def test_corrupted_metrics_result_fails(metrics_output, corrupt):
    result = json.loads(json.dumps(metrics_output["result"]))
    corrupt(result)
    ref = checks.reference(metrics_output["pred"], metrics_output["truth"])
    assert checks.check_metrics_result(result, ref, "set")


def test_reference_matches_program_on_bin_edges():
    p = np.array([k / 15 for k in range(16)] * 3 + [0.5, 0.05, 0.95])
    y = (np.arange(p.size) % 2).astype(float)
    p = np.clip(p, checks.CLAMP_LO, checks.CLAMP_HI)
    even = metrics.calibration_gap(metrics.reliability(p, y))
    adaptive = metrics.calibration_gap(metrics.reliability(p, y, "adaptive"))
    assert math.isclose(checks.gap_even(p, y), even, abs_tol=1e-12)
    assert math.isclose(checks.gap_adaptive(p, y), adaptive, abs_tol=1e-12)
    sweep = metrics.best_threshold_dice(p, y)
    assert [d for _, d in checks.dice_table(p, y)] == list(sweep.dice_values)


def kde_figure(metrics_output):
    fg = metrics_output["pred"][metrics_output["truth"] == 1.0]
    return metrics_output["plots"] / "kde_foreground.svg", fg


def test_kde_figure_passes_unchanged(metrics_output):
    path, fg = kde_figure(metrics_output)
    assert checks.check_kde_svg(path, fg, "set") == []


def test_perturbed_kde_value_fails(metrics_output, tmp_path):
    path, fg = kde_figure(metrics_output)
    x, y = checks.read_svg_curve(path)
    y[len(y) // 2] *= 1.05
    y[len(y) // 2] += 0.02 * y.max()
    out = tmp_path / "kde.svg"
    svg.write(out, plots.kde_chart({"foreground": y}, x, "perturbed"))
    assert checks.check_kde_svg(out, fg, "set")


def linear_binned_kde(fg, bandwidth, n=512):
    """Linear binning on the grid, then a discrete Gaussian convolution:
    the approximation the tolerance is meant to admit."""
    grid = np.linspace(0.0, 1.0, n)
    step = grid[1] - grid[0]
    pos = fg / step
    lo = np.minimum(np.floor(pos).astype(int), n - 2)
    frac = pos - lo
    weights = np.bincount(lo, 1.0 - frac, n) + np.bincount(lo + 1, frac, n)
    offsets = np.arange(-(n - 1), n) * step
    kernel = np.exp(-0.5 * (offsets / bandwidth) ** 2)
    density = np.convolve(weights, kernel, mode="valid")
    return grid, density / (fg.size * bandwidth * math.sqrt(2 * math.pi))


def test_linear_binned_kde_meets_the_tolerance(metrics_output, tmp_path):
    _, fg = kde_figure(metrics_output)
    grid, density = linear_binned_kde(fg, checks.silverman_bandwidth(fg))
    out = tmp_path / "kde.svg"
    svg.write(out, plots.kde_chart({"foreground": density}, grid, "binned"))
    assert checks.check_kde_svg(out, fg, "set") == []


# ---------------------------------------------------------------------------
# Tracer

def test_tracer_records_nested_spans_and_restores(tmp_path):
    original = metrics.dice_at_threshold
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        assert metrics.dice_at_threshold is not original
        metrics.best_threshold_dice([0.2, 0.7, 0.9], [0.0, 1.0, 1.0])
    finally:
        tracer.uninstall()
    assert metrics.dice_at_threshold is original
    (spans,) = tracer.collect()
    names = [s[tracing.NAME] for s in spans]
    assert names[0] == "metrics.best_threshold_dice"
    sweep_children = [s for s in spans if s[tracing.PARENT] == 0]
    assert [s[tracing.NAME] for s in sweep_children].count(
        "metrics.dice_at_threshold") == 21
    table = tracing.SpanTable([spans])
    assert table.self_total("metrics.best_threshold_dice") < \
        table.total("metrics.best_threshold_dice")


def test_tracer_tags_and_groups_methods(tmp_path):
    from segact import make_activation, make_loss

    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        make_loss("mse").grad([0.5], [1.0])
        make_activation("softsign").derivative(0.0)
        metrics.reliability([0.2, 0.8], [0.0, 1.0], "adaptive")
    finally:
        tracer.uninstall()
    tags = {(s[tracing.NAME], s[tracing.TAG]) for s in tracer.spans}
    assert ("losses.grad", "mse") in tags
    assert ("activations.derivative", "softsign") in tags
    assert ("metrics.reliability", "adaptive") in tags


def test_absent_function_is_reported_not_fatal():
    metrics_, absent, idle = tracing.layer_metrics(
        [[]], {"network.forward"})
    assert metrics_["network.backward_ms"]["value"] == 0.0
    assert {"metric": "network.backward_ms",
            "missing": ["network.backward"]} in absent
    assert "network.forward_calls" in idle
