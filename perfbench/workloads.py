"""The benchmark's workloads: inputs made from a seed, timed rounds
through ``segact.cli.main``, and the checks of each round's output.

``prepare`` and ``check`` run in the benchmark process; ``run_round``
runs in a fresh process per round (see ``round.py``), as a user's
``segact`` command does.  A round is one fixed piece of work, the same
in every run:

* grid workloads: one ``segact grid`` over the default task (200 disk
  images of 32x32, easy noise), all 7 activations x 3 losses, 5 folds.
  ``stop_patience`` lies above ``max_epochs``, so every cell trains
  exactly ``MAX_EPOCHS`` epochs and a faster train step cannot change
  the amount of work.  One operation is one cell.
* metrics-large: one ``segact metrics --plots`` on each of four
  prediction sets of 2**20 pixels.  One operation is one set.

The program writes its outputs under the run's work directory; nothing
is printed to the benchmark's own standard output.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ACTIVATIONS = ("cdf", "sigmoid", "isqrt", "arctan", "softsign", "linear",
               "hardtanh")
LOSSES = ("bce", "dice", "mse")
FOLDS = 5

# Two epochs per cell keep a grid round near 28 s on a 2-core machine,
# so that the many runs of a benchmark comparison fit their time budget,
# and let the plateau schedule cut the rate after a stagnant epoch 2.
MAX_EPOCHS = 2
GRID_CONFIG = """\
# segact grid config written by the benchmark
seed = {seed}
max_epochs = {max_epochs}
plateau_patience = 1
stop_patience = {stop_patience}
workers = {workers}
"""

PIXELS_PER_SET = 1 << 20
# name, foreground share, logit mean by class (+/-), logit spread, map.
PREDICTION_SETS = (
    ("sigmoid-mild", 0.05, 1.5, 1.2, "sigmoid"),
    ("sigmoid-saturated", 0.2, 12.0, 6.0, "sigmoid"),
    ("hardtanh", 0.4, 1.5, 1.5, "hardtanh"),
    ("softsign", 0.3, 2.0, 2.0, "softsign"),
)


def _squash(z, kind):
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "hardtanh":
        return np.clip(0.5 + z / 4.0, 0.0, 1.0)
    return 0.5 + 0.5 * z / (1.0 + np.abs(z))


def make_prediction_set(rng, share, mean, spread, kind, n=PIXELS_PER_SET):
    """Predictions and truth from a noisy two-class logit mixture."""
    truth = np.zeros(n)
    truth[rng.permutation(n)[:round(share * n)]] = 1.0
    z = rng.normal(np.where(truth == 1.0, mean, -mean), spread)
    return _squash(z, kind), truth


@dataclass
class Round:
    """Timing and outputs of one round; JSON-native so that it can cross
    from the round's process to the benchmark process."""

    attempted: int
    wall_s: float = 0.0
    started: float = 0.0  # CLOCK_BOOTTIME at the first timed call
    failed: int = 0
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _timed_main(main, argv, result: Round):
    """Run one CLI command, adding its time to ``result.wall_s``;
    returns (exit code, stdout text, error)."""
    buffer = io.StringIO()
    code, error = 1, None
    if not result.started:
        result.started = time.clock_gettime(time.CLOCK_BOOTTIME)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    except Exception:  # a crash of the program fails the operation
        error = traceback.format_exc()
    result.wall_s += time.perf_counter() - start
    return code, buffer.getvalue(), error


def fold_counts(config_text: str):
    """Pixels of the whole task, and validation (pixels, foreground) per
    fold, from the program's own task generator and fold split."""
    from segact.datagen import generate, kfold_split, stack
    from segact.harness import (derive_seed, experiment_from_config,
                                parse_config_text)

    cfg = experiment_from_config(parse_config_text(config_text))
    _, masks = stack(generate(cfg.task))
    splits = kfold_split(cfg.task.n_images, cfg.k,
                         derive_seed(cfg.seed, "folds", "", 0))
    return masks.size, {fold: (masks[val].size, int(masks[val].sum()))
                        for fold, (_, val) in enumerate(splits)}


class GridWorkload:
    """`segact grid` on the default task with a fixed epoch count."""

    def __init__(self, workers: int, seed: int, work_dir: Path):
        self.workers = workers
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.config_text = GRID_CONFIG.format(
            seed=seed, max_epochs=MAX_EPOCHS, stop_patience=MAX_EPOCHS + 1,
            workers=workers)
        self.config_path = self.work_dir / "grid.cfg"
        self.cells = [(a, l, f) for a in ACTIVATIONS for l in LOSSES
                      for f in range(FOLDS)]

    def prepare(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(self.config_text, encoding="utf-8")

    @property
    def operations(self) -> int:
        return len(self.cells)

    def run_round(self, index: int) -> Round:
        from segact.cli import main

        out = self.work_dir / f"round-{index}"
        result = Round(attempted=len(self.cells), outputs=[str(out)])
        code, _, error = _timed_main(main, ["grid", "--config", str(
            self.config_path), "--out", str(out)], result)
        if code != 0 or error:
            result.failed = len(self.cells)
            result.errors.append(error or f"segact grid exited {code}")
        return result

    def check(self, rounds):
        """Check every round; returns (problems, work in Mpixel per round).

        Failed cells add to their round's ``failed``; a round whose
        command failed counts every cell as failed and is not checked.
        """
        total, folds = fold_counts(self.config_text)
        problems, mpixels = [], []
        for r in rounds:
            if r.errors:
                mpixels.append(0.0)
                continue
            out = Path(r.outputs[0])
            failed, found = checks.check_grid_report(
                out, self.cells, MAX_EPOCHS, folds)
            r.failed += failed
            problems.extend(found)
            rows = checks.read_records(out / "records.csv")
            trained = sum(int(row["epochs"]) *
                          (total - folds[int(row["fold"])][0])
                          for row in rows)
            mpixels.append(trained / 1e6)
        if self.workers > 1 and rounds and not rounds[0].errors:
            problems.extend(self._check_rerun(Path(rounds[0].outputs[0])))
        return problems, mpixels

    def _check_rerun(self, out_dir):
        """A serial rerun of one (activation, loss) pair over every fold
        must reproduce the parallel grid's records bit for bit."""
        from segact.harness import (experiment_from_config,
                                    parse_config_text, run_grid)

        rng = random.Random(self.seed)
        act, loss = rng.choice(ACTIVATIONS), rng.choice(LOSSES)
        values = parse_config_text(self.config_text)
        values.update(activations=act, losses=loss, workers="1")
        records = run_grid(experiment_from_config(values))
        rows = checks.read_records(out_dir / "records.csv")
        return checks.check_rerun(rows, records)


class MetricsWorkload:
    """`segact metrics --plots` on large generated prediction sets."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.sets = [name for name, *_ in PREDICTION_SETS]

    def _paths(self, name):
        base = self.work_dir / name
        return base.with_suffix(".pred.bin"), base.with_suffix(".truth.bin")

    def prepare(self):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        for name, share, mean, spread, kind in PREDICTION_SETS:
            pred, truth = make_prediction_set(rng, share, mean, spread, kind)
            pred_path, truth_path = self._paths(name)
            pred.astype("<f8").tofile(pred_path)
            truth.astype("<f8").tofile(truth_path)

    @property
    def operations(self) -> int:
        return len(self.sets)

    def run_round(self, index: int) -> Round:
        from segact.cli import main

        result = Round(attempted=len(self.sets))
        for name in self.sets:
            pred_path, truth_path = self._paths(name)
            code, text, error = _timed_main(main, [
                "metrics", "--pred", str(pred_path), "--truth",
                str(truth_path), "--plots",
                str(self.work_dir / f"plots-{name}")], result)
            result.outputs.append((name, code, text, error))
        return result

    def check(self, rounds):
        """Check every result against an independent recomputation and
        the last round's KDE figure against a direct Gaussian sum.

        Returns (problems, work in Mpixel per round).  A set whose
        command failed or whose check failed adds to its round's
        ``failed``.
        """
        problems = []
        refs, figure_problems = {}, {}
        for name in self.sets:
            pred_path, truth_path = self._paths(name)
            pred = np.clip(np.fromfile(pred_path, dtype="<f8"),
                           checks.CLAMP_LO, checks.CLAMP_HI)
            truth = np.fromfile(truth_path, dtype="<f8")
            refs[name] = checks.reference(pred, truth)
            plots = self.work_dir / f"plots-{name}"
            figure_problems[name] = checks.check_svgs(plots) + \
                checks.check_kde_svg(plots / "kde_foreground.svg",
                                     pred[truth == 1.0], name)
        for r in rounds:
            for name, code, text, error in r.outputs:
                if code != 0 or error:
                    r.failed += 1
                    r.errors.append(error or f"{name}: exited {code}")
                    continue
                found = checks.check_metrics_result(json.loads(text),
                                                    refs[name], name)
                if r is rounds[-1]:
                    found += figure_problems[name]
                if found:
                    r.failed += 1
                    problems.extend(found)
        mpixels = [sum(ref["n_pixels"] for ref in refs.values()) / 1e6
                   for _ in rounds]
        return problems, mpixels


WORKLOADS = ("grid-serial", "grid-workers2", "metrics-large")


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "metrics-large":
        return MetricsWorkload(seed, work_dir)
    workers = {"grid-serial": 1, "grid-workers2": 2}[name]
    return GridWorkload(workers, seed, work_dir)
