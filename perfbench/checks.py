"""Checks of segact's outputs, recomputed apart from the program.

Every function returns a list of problems; an empty list means the
output passed.  The recomputations use plain numpy: integer counts from
``sort``/``searchsorted`` for the dice sweep, ``bincount`` for evenly
spaced bins, a stable sort for adaptive bins and a direct Gaussian sum
for the KDE.  Dice values, thresholds and the dice table must match
exactly; sums over many pixels only to rounding.
"""
from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

CLAMP_LO = 1e-7
CLAMP_HI = 1.0 - 1e-7
THRESHOLDS = tuple(k / 20 for k in range(21))
N_BINS = 15
ADAPTIVE_LO, ADAPTIVE_HI = 1e-2, 1.0 - 1e-2

# The records.csv columns these checks read.  Columns added later are
# ignored, so a wider record does not fail the benchmark.
RECORD_COLUMNS = ("activation", "loss", "fold", "nll", "dice", "threshold",
                  "gap_even", "gap_adaptive", "epochs", "converged")

# Sums over many pixels may differ from the program's in the last bits.
REL_TOL = 1e-9
ABS_TOL = 1e-9
# Summary means are recomputed over the same few fold values.
MEAN_TOL = 1e-12
# KDE: each checked point within 1% of the curve's maximum, and the
# integral over [0, 1] within 1% of the exact in-range mass.  A
# linear-binned FFT KDE on the same grid meets both; so does the SVG's
# rounding to 0.01 px.
KDE_POINT_TOL = 1e-2
KDE_MASS_TOL = 1e-2
KDE_BANDWIDTH_FLOOR = 1e-3

SVG_NS = "{http://www.w3.org/2000/svg}"


# ---------------------------------------------------------------------------
# Reference metrics.

def dice_table(p, y):
    """Dice of ``p > t`` against ``y`` for every sweep threshold."""
    p = np.asarray(p, dtype=float)
    truth = np.asarray(y) == 1.0
    n = p.size
    every = np.sort(p)
    fg = np.sort(p[truth])
    n_fg = fg.size
    table = []
    for t in THRESHOLDS:
        predicted = n - int(np.searchsorted(every, t, side="right"))
        hits = n_fg - int(np.searchsorted(fg, t, side="right"))
        denom = predicted + n_fg
        table.append((t, 1.0 if denom == 0 else 2.0 * hits / denom))
    return table


def best_of(table):
    """First threshold attaining the highest dice."""
    best = max(d for _, d in table)
    return next((t, d) for t, d in table if d == best)


def nll(p, y):
    p = np.asarray(p, dtype=float)
    truth = np.asarray(y) == 1.0
    return -(np.log(p[truth]).sum() + np.log1p(-p[~truth]).sum()) / p.size


def _gap(sum_p, sum_y, counts):
    nonempty = counts > 0
    conf = sum_p[nonempty] / counts[nonempty]
    frac = sum_y[nonempty] / counts[nonempty]
    return float(np.max(np.abs(conf - frac)))


def gap_even(p, y, n_bins=N_BINS):
    """Calibration gap over bins [k/n, (k+1)/n), the last one closed."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    edges = np.array([k / n_bins for k in range(n_bins + 1)])
    idx = np.clip(np.floor(p * n_bins).astype(int), 0, n_bins - 1)
    idx -= p < edges[idx]
    idx += (idx < n_bins - 1) & (p >= edges[np.minimum(idx + 1, n_bins)])
    counts = np.bincount(idx, minlength=n_bins)
    return _gap(np.bincount(idx, weights=p, minlength=n_bins),
                np.bincount(idx, weights=y, minlength=n_bins), counts)


def gap_adaptive(p, y, n_bins=N_BINS, lo=ADAPTIVE_LO, hi=ADAPTIVE_HI):
    """Calibration gap over equal-count bins of the predictions in
    [lo, hi] in stable sorted order; None when none survive."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (p >= lo) & (p <= hi)
    if not keep.any():
        return None
    order = np.argsort(p[keep], kind="stable")
    vals, targets = p[keep][order], y[keep][order]
    base, extra = divmod(vals.size, n_bins)
    counts = np.array([base + (1 if b < extra else 0) for b in range(n_bins)])
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    used = counts > 0
    sums_p = np.zeros(n_bins)
    sums_y = np.zeros(n_bins)
    sums_p[used] = np.add.reduceat(vals, starts[used])
    sums_y[used] = np.add.reduceat(targets, starts[used])
    return _gap(sums_p, sums_y, counts)


def reference(p, y):
    """Every figure `segact metrics` reports, recomputed."""
    table = dice_table(p, y)
    threshold, dice = best_of(table)
    return {
        "n_pixels": int(np.asarray(p).size),
        "nll": nll(p, y),
        "best_dice": dice,
        "best_threshold": threshold,
        "dice_table": [[t, d] for t, d in table],
        "calibration_gap_even": gap_even(p, y),
        "calibration_gap_adaptive": gap_adaptive(p, y),
    }


def _close(a, b, rel=0.0, abs_=0.0):
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def check_metrics_result(result: dict, ref: dict, label: str):
    """Compare one `segact metrics` JSON result with the reference."""
    problems = []
    for key in ("n_pixels", "best_dice", "best_threshold", "dice_table"):
        if result.get(key) != ref[key]:
            problems.append(f"{label}: {key} {result.get(key)!r} "
                            f"differs from the recomputed {ref[key]!r}")
    for key, rel, abs_ in (("nll", REL_TOL, 0.0),
                           ("calibration_gap_even", 0.0, ABS_TOL),
                           ("calibration_gap_adaptive", 0.0, ABS_TOL)):
        if not _close(result.get(key), ref[key], rel, abs_):
            problems.append(f"{label}: {key} {result.get(key)!r} "
                            f"differs from the recomputed {ref[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# Kernel density estimate.

def silverman_bandwidth(fg):
    fg = np.asarray(fg, dtype=float)
    sigma = float(np.std(fg, ddof=1))
    return max(1.06 * sigma * fg.size ** -0.2, KDE_BANDWIDTH_FLOOR)


def kde_direct(fg, bandwidth, points):
    """Gaussian KDE of ``fg`` at ``points`` by direct summation."""
    fg = np.asarray(fg, dtype=float)
    norm = 1.0 / (fg.size * bandwidth * math.sqrt(2.0 * math.pi))
    return np.array([norm * np.exp(-0.5 * ((x - fg) / bandwidth) ** 2).sum()
                     for x in points])


def kde_mass_in_unit(fg, bandwidth):
    """Exact share of the KDE's mass that lies in [0, 1]."""
    values, counts = np.unique(np.asarray(fg, dtype=float),
                               return_counts=True)
    scale = bandwidth * math.sqrt(2.0)
    total = math.fsum(c * (math.erf((1.0 - v) / scale) + math.erf(v / scale))
                      for v, c in zip(values.tolist(), counts.tolist()))
    return total / (2.0 * int(counts.sum()))


def read_svg_curve(path):
    """The first data series of a segact line chart as (x, y) arrays.

    Pixel positions are mapped back through the plot frame and the
    lowest and highest y tick labels.
    """
    root = ET.parse(path).getroot()
    frame = root.findall(f"{SVG_NS}rect")[1]
    left, top = float(frame.get("x")), float(frame.get("y"))
    width, height = float(frame.get("width")), float(frame.get("height"))
    y_ticks = [float(t.text) for t in root.findall(f"{SVG_NS}text")
               if t.get("text-anchor") == "end"]
    y_lo, y_hi = y_ticks[0], y_ticks[-1]
    tokens = root.find(f"{SVG_NS}path").get("d").replace("M", " ") \
        .replace("L", " ").split()
    px = np.array(tokens[0::2], dtype=float)
    py = np.array(tokens[1::2], dtype=float)
    x = (px - left) / width
    y = y_lo + (top + height - py) / height * (y_hi - y_lo)
    return x, y


def check_kde_svg(path, fg, label: str):
    """Check a KDE chart against a direct Gaussian sum and the exact
    in-range mass of the same foreground predictions."""
    x, density = read_svg_curve(path)
    n = x.size
    grid = np.linspace(0.0, 1.0, n)
    if n < 2 or np.max(np.abs(x - grid)) > 1e-4:
        return [f"{label}: KDE grid is not uniform over [0, 1]"]
    bandwidth = silverman_bandwidth(fg)
    picks = sorted({round(k * (n - 1) / 8) for k in range(9)} | {1, n - 2})
    direct = kde_direct(fg, bandwidth, grid[picks])
    scale = float(np.max(density))
    problems = []
    for i, want in zip(picks, direct):
        if abs(density[i] - want) > KDE_POINT_TOL * scale:
            problems.append(f"{label}: KDE at {grid[i]:.4f} is "
                            f"{density[i]:.6g}, direct sum {want:.6g}")
    mass = float(np.sum((density[1:] + density[:-1]) * np.diff(grid)) / 2)
    exact = kde_mass_in_unit(fg, bandwidth)
    if abs(mass - exact) > KDE_MASS_TOL * exact:
        problems.append(f"{label}: KDE integral over [0, 1] is {mass:.6g}, "
                        f"exact in-range mass {exact:.6g}")
    return problems


# ---------------------------------------------------------------------------
# Grid reports.

def read_records(path):
    """records.csv rows as dicts of strings, keyed by column name."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if rows and not set(RECORD_COLUMNS) <= set(rows[0]):
        raise ValueError(f"{path}: records lack columns "
                         f"{sorted(set(RECORD_COLUMNS) - set(rows[0]))}")
    return rows


def cell_failed(row, max_epochs: int) -> bool:
    """A cell fails when it diverged or stopped before max_epochs."""
    return row["converged"] != "true" or int(row["epochs"]) != max_epochs


def check_records(rows, cells, max_epochs: int, fold_counts):
    """Properties every record of a finished cell must meet.

    ``cells`` lists the expected (activation, loss, fold) keys and
    ``fold_counts`` maps a fold to its validation (pixels, foreground).
    """
    problems = []
    keys = [(r["activation"], r["loss"], int(r["fold"])) for r in rows]
    if sorted(keys) != sorted(cells):
        problems.append(f"records hold {len(keys)} cells, expected "
                        f"the {len(cells)} cells of the grid once each")
    nll_max = -math.log(CLAMP_LO) * (1.0 + MEAN_TOL)
    for r in rows:
        if cell_failed(r, max_epochs):
            continue
        cell = f"{r['activation']}+{r['loss']} fold {r['fold']}"
        value = float(r["nll"])
        if not 0.0 <= value <= nll_max:
            problems.append(f"{cell}: nll {value!r} outside [0, -log(1e-7)]")
        dice = float(r["dice"])
        pixels, fg = fold_counts[int(r["fold"])]
        floor = 2.0 * fg / (pixels + fg)
        if not floor * (1.0 - MEAN_TOL) <= dice <= 1.0:
            problems.append(f"{cell}: dice {dice!r} outside "
                            f"[{floor!r}, 1]")
        if float(r["threshold"]) not in THRESHOLDS:
            problems.append(f"{cell}: threshold {r['threshold']} "
                            "not in the sweep set")
    return problems


def check_fold0(rows, predictions, max_epochs: int):
    """Recompute each fold-0 record from the pooled predictions."""
    problems = []
    truth = predictions["truth"]
    by_cell = {(r["activation"], r["loss"]): r for r in rows
               if r["fold"] == "0"}
    names = [k for k in predictions.files if k != "truth"]
    if len(names) != len(by_cell):
        problems.append(f"predictions.npz holds {len(names)} fold-0 "
                        f"arrays for {len(by_cell)} fold-0 records")
    for key in names:
        act, _, loss = key.partition("__")
        row = by_cell.get((act, loss))
        if row is None:
            problems.append(f"predictions for {key} have no fold-0 record")
            continue
        if cell_failed(row, max_epochs):
            continue
        p = predictions[key]
        table = dice_table(p, truth)
        threshold, dice = best_of(table)
        want = {"nll": nll(p, truth), "dice": dice, "threshold": threshold,
                "gap_even": gap_even(p, truth),
                "gap_adaptive": gap_adaptive(p, truth)}
        got = {k: float(row[k]) for k in want}
        if want["gap_adaptive"] is None:
            want["gap_adaptive"] = float("nan")
        label = f"{act}+{loss} fold 0"
        for k in ("dice", "threshold"):
            if got[k] != want[k]:
                problems.append(f"{label}: {k} {got[k]!r} differs from "
                                f"the recomputed {want[k]!r}")
        for k, rel, abs_ in (("nll", REL_TOL, 0.0), ("gap_even", 0.0, ABS_TOL),
                             ("gap_adaptive", 0.0, ABS_TOL)):
            if not _close(got[k], want[k], rel, abs_):
                problems.append(f"{label}: {k} {got[k]!r} differs from "
                                f"the recomputed {want[k]!r}")
    return problems


def _nan_mean(values):
    finite = [v for v in values if math.isfinite(v)]
    return float(np.mean(finite)) if finite else None


def check_summary(summary: dict, rows):
    """Fold means and stds in summary.json against records.csv."""
    groups = {}
    for r in rows:
        groups.setdefault((r["activation"], r["loss"]), []).append(r)
    problems = []
    listed = {(s["activation"], s["loss"]) for s in summary["rows"]}
    if listed != set(groups):
        problems.append("summary rows do not cover the recorded "
                        "combinations")
    for s in summary["rows"]:
        group = groups.get((s["activation"], s["loss"]), [])
        values = {k: [float(r[k]) for r in group]
                  for k in ("nll", "dice", "gap_even", "gap_adaptive")}
        want = {
            "n_folds": len(group),
            "n_converged": sum(r["converged"] == "true" for r in group),
            "nll_mean": float(np.mean(values["nll"])),
            "nll_std": float(np.std(values["nll"])),
            "dice_mean": float(np.mean(values["dice"])),
            "dice_std": float(np.std(values["dice"])),
            "gap_even_mean": _nan_mean(values["gap_even"]),
            "gap_adaptive_mean": _nan_mean(values["gap_adaptive"]),
        }
        for k, v in want.items():
            if not _close(s.get(k), v, MEAN_TOL, MEAN_TOL):
                problems.append(f"summary {s['activation']}+{s['loss']}: "
                                f"{k} {s.get(k)!r}, recomputed {v!r}")
    return problems


def check_svgs(out_dir):
    """Every SVG in the directory parses as XML."""
    problems = []
    paths = sorted(Path(out_dir).glob("*.svg"))
    if not paths:
        problems.append(f"{out_dir}: no SVG figures")
    for path in paths:
        try:
            ET.parse(path)
        except ET.ParseError as exc:
            problems.append(f"{path.name}: not well-formed XML ({exc})")
    return problems


def check_grid_report(out_dir, cells, max_epochs: int, fold_counts):
    """All checks of one `segact grid` output directory.

    Returns (failed cells, problems).
    """
    out_dir = Path(out_dir)
    rows = read_records(out_dir / "records.csv")
    failed = sum(cell_failed(r, max_epochs) for r in rows)
    problems = check_records(rows, cells, max_epochs, fold_counts)
    with np.load(out_dir / "predictions.npz") as predictions:
        problems += check_fold0(rows, predictions, max_epochs)
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        problems += check_summary(json.load(fh), rows)
    problems += check_svgs(out_dir)
    return failed, problems


def check_rerun(rows, records):
    """Records of a serial rerun must equal the matching rows bit for
    bit; floats are compared through their shortest repr."""
    by_cell = {(r["activation"], r["loss"], r["fold"]): r for r in rows}
    problems = []
    for rec in records:
        row = by_cell.get((rec.activation, rec.loss, str(rec.fold)))
        if row is None:
            problems.append(f"rerun cell {rec.activation}+{rec.loss} fold "
                            f"{rec.fold} is missing from records.csv")
            continue
        for column in RECORD_COLUMNS:
            value = getattr(rec, column)
            text = ("true" if value else "false") if isinstance(value, bool) \
                else repr(value) if isinstance(value, float) else str(value)
            if text != row[column]:
                problems.append(
                    f"rerun {rec.activation}+{rec.loss} fold {rec.fold}: "
                    f"{column} {text} differs from {row[column]} "
                    "of the parallel grid")
    return problems
