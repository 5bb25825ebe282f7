"""Grid experiment runner, aggregation tables and report emission.

A grid trains every requested (activation, loss) pair on every
cross-validation fold of one synthetic task.  Each cell runs with a seed
derived by stable hashing, so results do not depend on iteration order
or on how many worker processes execute the grid.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import plots, svg
from .activations import ACTIVATION_ORDER, make_activation
from .datagen import PRESETS, TaskConfig, generate, kfold_split, stack
from .estimator import PixelClassifier
from .exceptions import EmptyDiagramError
from .losses import LOSS_ORDER, make_loss
from .metrics import (PredictionSet, best_threshold_dice, calibration_gap,
                      nll, reliability)
from .network import SCHEDULE_FIELDS, TrainConfig
from .storage import write_records

#: The five smooth activations in effective-domain order; used by the
#: dice-loss NLL table.
SMOOTH_ACTIVATIONS = ("cdf", "sigmoid", "isqrt", "arctan", "softsign")

REPORT_MARKER = "REPORT_COMPLETE"


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid: activations x losses x folds on a single task.  Names
    become registry names here, so an unknown or repeated name fails
    before any cell trains."""

    task: TaskConfig
    train: TrainConfig = TrainConfig()
    activations: tuple = ACTIVATION_ORDER
    losses: tuple = LOSS_ORDER
    k: int = 5
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for attr, make in (("activations", make_activation),
                           ("losses", make_loss)):
            keys = tuple(make(name).name for name in getattr(self, attr))
            if not keys:
                raise ValueError("need at least one activation and one loss")
            for i, key in enumerate(keys):
                if key in keys[:i]:
                    raise ValueError(f"{attr} lists {key!r} twice")
            object.__setattr__(self, attr, keys)
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.task.n_images < self.k:
            raise ValueError("need at least k images for k folds")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.train.seed != TrainConfig.seed:
            raise ValueError("train.seed is not read: each cell derives its "
                             "seeds from ExperimentConfig.seed; set that")


@dataclass(frozen=True)
class RunRecord:
    """Result of one (activation, loss, fold) training run."""

    activation: str
    loss: str
    fold: int
    nll: float
    dice: float
    threshold: float
    gap_even: float
    gap_adaptive: float  # NaN when every prediction was filtered out
    epochs: int
    converged: bool


def records_equal(a, b) -> bool:
    """Field-exact record comparison that treats NaN as equal to NaN."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for fa, fb in zip(asdict(ra).values(), asdict(rb).values()):
            if isinstance(fa, float) and math.isnan(fa):
                if not (isinstance(fb, float) and math.isnan(fb)):
                    return False
            elif fa != fb:
                return False
    return True


def derive_seed(base_seed: int, activation: str, loss: str, fold: int) -> int:
    """Stable per-cell seed, independent of grid iteration order."""
    text = f"{base_seed}|{activation}|{loss}|{fold}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@functools.lru_cache(maxsize=4)
def _task_data(task: TaskConfig):
    return stack(generate(task))


def _fold(cfg: ExperimentConfig, fold: int):
    """(train, validation) image indices of one fold."""
    return kfold_split(cfg.task.n_images, cfg.k,
                       derive_seed(cfg.seed, "folds", "", 0))[fold]


def _run_cell(cfg: ExperimentConfig, activation: str, loss: str, fold: int,
              capture_predictions: bool = False):
    X, y = _task_data(cfg.task)
    train_idx, val_idx = _fold(cfg, fold)
    model = PixelClassifier.from_config(
        cfg.train, activation, loss,
        random_state=derive_seed(cfg.seed, activation, loss, fold))
    model.fit(X[train_idx], y[train_idx], X[val_idx], y[val_idx])

    # The best epoch's validation probabilities come from the returned
    # parameters and the same images, so they equal predict_proba's.
    probs = model.history_.best_val_probs
    if probs is None:  # no epoch improved
        probs = model.predict_proba(X[val_idx])
    probs = probs.ravel()
    ps = PredictionSet(probs, y[val_idx])
    sweep = best_threshold_dice(ps)
    gap_even = calibration_gap(reliability(ps, strategy="evenly-spaced"))
    try:
        gap_adaptive = calibration_gap(reliability(ps, strategy="adaptive"))
    except EmptyDiagramError:
        gap_adaptive = float("nan")

    record = RunRecord(
        activation=activation,
        loss=loss,
        fold=fold,
        nll=nll(ps),
        dice=sweep.best_dice,
        threshold=sweep.best_threshold,
        gap_even=gap_even,
        gap_adaptive=gap_adaptive,
        epochs=model.history_.n_epochs,
        converged=model.history_.converged,
    )
    return record, (probs if capture_predictions else None)


def _execute_grid(cfg: ExperimentConfig, capture_fold: int | None = None):
    """Run every cell; optionally keep validation predictions of one fold."""
    cells = list(itertools.product(cfg.activations, cfg.losses,
                                   range(cfg.k)))
    columns = (itertools.repeat(cfg), *zip(*cells),
               [capture_fold == fold for _, _, fold in cells])
    if cfg.workers > 1:
        # Imported here: its import chain would slow every CLI start.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_cell, *columns))
    else:
        results = list(map(_run_cell, *columns))

    records = [record for record, _ in results]
    predictions = {}
    for (act, loss, fold), (_, probs) in zip(cells, results):
        if probs is not None:
            predictions[(act, loss)] = probs
    truth = None
    if capture_fold is not None:
        _, y = _task_data(cfg.task)
        truth = y[_fold(cfg, capture_fold)[1]].ravel()
    return sort_records(records), predictions, truth


def run_grid(cfg: ExperimentConfig):
    """Train and evaluate every (activation, loss, fold) combination."""
    records, _, _ = _execute_grid(cfg)
    return records


def _catalogue_key(activation, loss=None):
    """Sort key for catalogue order: activations by ``ACTIVATION_ORDER``,
    then losses by ``LOSS_ORDER``; names outside a catalogue sort last."""
    def rank(name, order):
        return order.index(name) if name in order else len(order)
    return (rank(activation, ACTIVATION_ORDER), rank(loss, LOSS_ORDER))


def sort_records(records):
    return sorted(records, key=lambda r: (
        *_catalogue_key(r.activation, r.loss), r.fold))


@dataclass
class SummaryTables:
    """Aggregates over fold records; all fields are JSON-native."""

    rows: list = field(default_factory=list)
    best: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)
    sigmoid_wins: dict = field(default_factory=dict)
    loss_wins: dict = field(default_factory=dict)
    dice_loss_nll: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryTables":
        return cls(**data)


def _mean_std(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def _nan_aware_mean(values):
    arr = np.asarray(values, dtype=float)
    finite = arr[np.isfinite(arr)]
    return float(finite.mean()) if finite.size else None


def summarize(records) -> SummaryTables:
    """Fold means and stds per combination, plus comparison tables.

    Combinations with fewer folds than the rest are excluded with a
    warning.  "Wins" against sigmoid compare each activation's best loss
    against sigmoid's best loss, per metric.
    """
    if not records:
        raise ValueError("no records to summarize")
    groups: dict = {}
    for r in records:
        groups.setdefault((r.activation, r.loss), []).append(r)
    n_folds = max(len(g) for g in groups.values())
    complete = {}
    for key in sorted(groups, key=lambda k: _catalogue_key(*k)):
        group = groups[key]
        if len(group) < n_folds:
            warnings.warn(
                f"combination {key} has {len(group)} of {n_folds} folds; "
                "excluded from the summary", stacklevel=2)
            continue
        complete[key] = group

    tables = SummaryTables()
    stats = {}
    for (act, loss), group in complete.items():
        nll_mean, nll_std = _mean_std([r.nll for r in group])
        dice_mean, dice_std = _mean_std([r.dice for r in group])
        stats[(act, loss)] = (nll_mean, dice_mean)
        tables.rows.append({
            "activation": act,
            "loss": loss,
            "n_folds": len(group),
            "nll_mean": nll_mean,
            "nll_std": nll_std,
            "dice_mean": dice_mean,
            "dice_std": dice_std,
            "gap_even_mean": _nan_aware_mean([r.gap_even for r in group]),
            "gap_adaptive_mean": _nan_aware_mean(
                [r.gap_adaptive for r in group]),
            "n_converged": sum(1 for r in group if r.converged),
        })

    if stats:
        best_nll = min(stats, key=lambda k: stats[k][0])
        best_dice = max(stats, key=lambda k: stats[k][1])
        worst_nll = max(stats, key=lambda k: stats[k][0])
        worst_dice = min(stats, key=lambda k: stats[k][1])
        tables.best = {"nll": list(best_nll), "dice": list(best_dice)}
        tables.worst = {"nll": list(worst_nll), "dice": list(worst_dice)}

    activations = sorted({act for act, _ in stats}, key=_catalogue_key)

    def best_over_losses(act, metric_idx, better):
        values = [stats[(act, loss)][metric_idx]
                  for loss in LOSS_ORDER if (act, loss) in stats]
        return better(values) if values else None

    tables.sigmoid_wins = {"nll": {}, "dice": {}}
    if "sigmoid" in activations:
        sig_nll = best_over_losses("sigmoid", 0, min)
        sig_dice = best_over_losses("sigmoid", 1, max)
        for act in activations:
            if act == "sigmoid":
                continue
            act_nll = best_over_losses(act, 0, min)
            act_dice = best_over_losses(act, 1, max)
            tables.sigmoid_wins["nll"][act] = int(
                act_nll is not None and act_nll < sig_nll)
            tables.sigmoid_wins["dice"][act] = int(
                act_dice is not None and act_dice > sig_dice)

    tables.loss_wins = {"nll": {}, "dice": {}}
    for act in activations:
        entries = [(loss, stats[(act, loss)])
                   for loss in LOSS_ORDER if (act, loss) in stats]
        if not entries:
            continue
        nll_winner = min(entries, key=lambda e: e[1][0])[0]
        dice_winner = max(entries, key=lambda e: e[1][1])[0]
        tables.loss_wins["nll"][nll_winner] = \
            tables.loss_wins["nll"].get(nll_winner, 0) + 1
        tables.loss_wins["dice"][dice_winner] = \
            tables.loss_wins["dice"].get(dice_winner, 0) + 1

    previous = None
    for act in SMOOTH_ACTIVATIONS:
        if (act, "dice") not in stats:
            continue
        value = stats[(act, "dice")][0]
        tables.dice_loss_nll.append({
            "activation": act,
            "nll_mean": value,
            "breaks_decrease": previous is not None and value >= previous,
        })
        previous = value
    return tables


def emit_report(records, tables: SummaryTables, out_dir,
                predictions=None, truth=None):
    """Write records.csv, summary.json and the SVG figures.

    ``predictions`` maps (activation, loss) to pooled validation
    probabilities of one fold; reliability and density figures need it
    and are skipped when absent.  A marker file is written last so an
    interrupted report is detectable.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    records = sort_records(records)
    write_records(out_dir / "records.csv", records)
    written.append("records.csv")

    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(tables.to_dict(), fh, indent=2)
        fh.write("\n")
    written.append("summary.json")

    svg.write(out_dir / "activation_curves.svg", plots.activation_curves())
    written.append("activation_curves.svg")
    for act in ("sigmoid", "softsign"):
        name = f"loss_curves_{act}.svg"
        svg.write(out_dir / name, plots.single_prediction_loss_curves(act))
        written.append(name)

    if predictions and truth is not None:
        best_combo = tuple(tables.best.get("dice") or ("sigmoid", "bce"))
        baseline = ("sigmoid", "bce")
        for strategy, fname in (("evenly-spaced", "reliability_even.svg"),
                                ("adaptive", "reliability_adaptive.svg")):
            diagrams = {}
            for combo in dict.fromkeys([best_combo, baseline]):
                if combo not in predictions:
                    continue
                try:
                    diag = reliability(predictions[combo], truth, strategy)
                except EmptyDiagramError:
                    continue
                diagrams[f"{combo[0]}+{combo[1]}"] = diag
            if diagrams:
                svg.write(out_dir / fname, plots.reliability_chart(
                    diagrams, f"Reliability diagram ({strategy} bins)"))
                written.append(fname)
        for loss in LOSS_ORDER:
            chart = plots.kde_comparison(predictions, truth, loss)
            if chart is not None:
                name = f"kde_{loss}.svg"
                svg.write(out_dir / name, chart)
                written.append(name)

    marker = out_dir / REPORT_MARKER
    marker.write_text("\n".join(written) + "\n", encoding="utf-8")
    return [out_dir / name for name in written]


def run_experiment(cfg: ExperimentConfig, out_dir):
    """Full pipeline: grid, summary, prediction capture, report files."""
    records, predictions, truth = _execute_grid(cfg, capture_fold=0)
    tables = summarize(records)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if predictions:
        arrays = {f"{act}__{loss}": probs
                  for (act, loss), probs in predictions.items()}
        np.savez(out_dir / "predictions.npz", truth=truth, **arrays)
    emit_report(records, tables, out_dir, predictions, truth)
    return records, tables


def load_predictions(path):
    """Read a predictions.npz back into the emit_report inputs."""
    data = np.load(path)
    truth = data["truth"]
    predictions = {}
    for key in data.files:
        if key == "truth":
            continue
        act, loss = key.split("__", 1)
        predictions[(act, loss)] = data[key]
    return predictions, truth


# ---------------------------------------------------------------------------
# Flat key = value config files for the command line.  Each key is a
# config dataclass field, which gives its default and, by the default's
# type, how its value is read.  ``lr`` is ``learning_rate``; ``seed``
# seeds the task and the grid; ``preset`` names a ``noise_sigma``.

_CONFIG_FIELDS = {
    **{f.name: (ExperimentConfig, f) for f in fields(ExperimentConfig)
       if f.name not in ("task", "train")},
    **{f.name: (TaskConfig, f) for f in fields(TaskConfig)
       if f.name != "seed"},
    **{("lr" if f.name == "learning_rate" else f.name): (TrainConfig, f)
       for f in fields(TrainConfig) if f.name in SCHEDULE_FIELDS},
}

CONFIG_KEYS = ("preset", *_CONFIG_FIELDS)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _parse_value(key: str, text: str):
    """One key's value, typed as its field's default: a tuple of
    comma-separated names, an integer, a number or a string."""
    default = _CONFIG_FIELDS[key][1].default
    if isinstance(default, tuple):
        return tuple(name.strip() for name in text.split(",")
                     if name.strip())
    try:
        return type(default)(text)
    except ValueError:
        expected = "an integer" if isinstance(default, int) else "a number"
        raise ValueError(f"{key}: expected {expected}, got {text!r}") \
            from None


def experiment_from_config(values: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed key/value strings; a key
    that is absent keeps its field's default."""
    kwargs = {ExperimentConfig: {}, TaskConfig: {}, TrainConfig: {}}
    for key, text in values.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown key {key!r}")
        if key != "preset" and not (key == "noise_sigma" and text == ""):
            cls, f = _CONFIG_FIELDS[key]
            kwargs[cls][f.name] = _parse_value(key, text)
    if "preset" in values:
        preset = values["preset"].lower()
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; "
                             f"expected one of {sorted(PRESETS)}")
        kwargs[TaskConfig].setdefault("noise_sigma", PRESETS[preset])
    grid = kwargs[ExperimentConfig]
    task = TaskConfig(**kwargs[TaskConfig],
                      seed=grid.get("seed", ExperimentConfig.seed))
    train = TrainConfig(**kwargs[TrainConfig])
    return ExperimentConfig(task=task, train=train, **grid)
