"""Command line interface.

Subcommands: ``domains``, ``losscurve``, ``datagen``, ``train``,
``metrics``, ``grid`` and ``report``.  Run ``segact <command> --help``
for the flags of each one.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import plots, svg
from .activations import ACTIVATION_ORDER, clamp_probability, make_activation
from .datagen import generate, stack
from .estimator import PixelClassifier
from .exceptions import EmptyDiagramError
from .harness import (emit_report, experiment_from_config, load_predictions,
                      parse_config_text, run_experiment, summarize)
from .metrics import (PredictionSet, best_threshold_dice, calibration_gap,
                      kde_conditional, nll, reliability)
from .storage import load_dataset, read_records, save_dataset, save_weights
from .validation import check_probabilities

#: Reference rescale context used to display the data-dependent linear
#: activation in the domains table.
LINEAR_DISPLAY_BOUNDS = (-1.0, 1.0)


def _read_config(path) -> dict:
    if path is None:
        return {}
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def cmd_domains(args) -> int:
    rows = []
    for name in ACTIVATION_ORDER:
        if name == "linear":
            act = make_activation("linear", bounds=LINEAR_DISPLAY_BOUNDS)
        else:
            act = make_activation(name)
        dom = act.effective_domain(args.epsilon)
        rows.append((act.label, float(act(0.0)), float(act.derivative(0.0)),
                     dom.lo, dom.hi))
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["name", "lo", "hi", "epsilon"])
        for label, _, _, lo, hi in rows:
            writer.writerow([label, repr(lo), repr(hi), repr(args.epsilon)])
    else:
        deriv_header = "f'(0)"
        print(f"{'name':<20} {'f(0)':>8} {deriv_header:>8} {'domain':>16}")
        for label, f0, d0, lo, hi in rows:
            print(f"{label:<20} {f0:>8.4f} {d0:>8.4f} "
                  f"{f'[{lo:g}, {hi:g}]':>16}")
        print(f"epsilon = {args.epsilon:g} "
              "(linear shown with reference bounds -1..1)")
    return 0


def _parse_range(text: str):
    lo, _, hi = text.partition(":")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError("range requires lo < hi")
    return lo, hi


def cmd_losscurve(args) -> int:
    lo, hi = _parse_range(args.range)
    chart = plots.single_prediction_loss_curves(
        args.activation, losses=(args.loss,), x_lo=lo, x_hi=hi)
    svg.write(args.out, chart)
    print(f"wrote {args.out}")
    return 0


def cmd_datagen(args) -> int:
    values = _read_config(args.config)
    cfg = experiment_from_config(values)
    samples = generate(cfg.task)
    path = save_dataset(args.out, samples, cfg.task)
    print(f"wrote {len(samples)} images to {path}")
    return 0


def cmd_train(args) -> int:
    values = _read_config(args.config)
    cfg = experiment_from_config(values)
    if args.data is not None:
        samples = load_dataset(args.data)
    else:
        samples = generate(cfg.task)
    X, y = stack(samples)

    seed = cfg.seed if args.seed is None else args.seed
    model = PixelClassifier(
        activation=args.activation,
        loss=args.loss,
        learning_rate=cfg.train.learning_rate,
        batch_size=cfg.train.batch_size,
        plateau_patience=cfg.train.plateau_patience,
        stop_patience=cfg.train.stop_patience,
        lr_factor=cfg.train.lr_factor,
        max_epochs=cfg.train.max_epochs,
        random_state=seed,
    )
    model.fit(X, y)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "history.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "val_dice", "lr"])
        for rec in model.history_.epochs:
            writer.writerow([rec.epoch, repr(rec.train_loss),
                             repr(rec.val_loss), repr(rec.val_dice),
                             repr(rec.lr)])
    save_weights(out_dir / "weights.acts", model.layers_)
    history = model.history_
    status = "converged" if history.converged else "DIVERGED"
    print(f"{status}: {history.n_epochs} epochs, "
          f"best val dice {history.best_val_dice:.4f} "
          f"at epoch {history.best_epoch}")
    print(f"wrote {out_dir / 'history.csv'} and {out_dir / 'weights.acts'}")
    return 0 if history.converged else 1


def _load_values(path) -> np.ndarray:
    """Flat f64 binary or a CSV of numbers, chosen by file extension."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        values = []
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                values.extend(float(v) for v in row if v.strip() != "")
        return np.asarray(values, dtype=float)
    size = path.stat().st_size
    if size % 8:
        raise ValueError(f"{path}: {size} bytes is not a whole number of "
                         "8-byte float64 values")
    return np.fromfile(path, dtype="<f8")


def cmd_metrics(args) -> int:
    # Range-check the raw values: clamping first would score 1.5 or -3.
    preds = clamp_probability(check_probabilities(_load_values(args.pred),
                                                  "predictions"))
    ps = PredictionSet(preds, _load_values(args.truth))
    # NLL and the evenly spaced diagram run before the sweep makes the
    # shared sorts, so their temporaries and the sorts are never alive
    # together.
    nll_value = nll(ps)
    even = reliability(ps, strategy="evenly-spaced")
    sweep = best_threshold_dice(ps)
    result = {
        "n_pixels": int(preds.size),
        "nll": nll_value,
        "best_dice": sweep.best_dice,
        "best_threshold": sweep.best_threshold,
        "dice_table": [[t, d] for t, d in sweep.as_table()],
        "calibration_gap_even": calibration_gap(even),
        "calibration_gap_adaptive": None,
    }
    adaptive = None
    try:
        adaptive = reliability(ps, strategy="adaptive")
        result["calibration_gap_adaptive"] = calibration_gap(adaptive)
    except EmptyDiagramError:
        pass

    if args.plots is not None:
        plot_dir = Path(args.plots)
        plot_dir.mkdir(parents=True, exist_ok=True)
        svg.write(plot_dir / "reliability_even.svg", plots.reliability_chart(
            {"evenly spaced": even}, "Reliability diagram (evenly spaced)"))
        if adaptive is not None:
            svg.write(plot_dir / "reliability_adaptive.svg",
                      plots.reliability_chart(
                          {"adaptive": adaptive},
                          "Reliability diagram (adaptive)"))
        try:
            curve = kde_conditional(ps)
            svg.write(plot_dir / "kde_foreground.svg", plots.kde_chart(
                {"foreground": curve.density}, curve.grid,
                "Foreground prediction density"))
        except ValueError:
            pass

    json.dump(result, sys.stdout, indent=2)
    print()
    return 0


def cmd_grid(args) -> int:
    values = _read_config(args.config)
    cfg = experiment_from_config(values)
    if args.workers is not None:
        from dataclasses import replace
        cfg = replace(cfg, workers=args.workers)
    records, tables = run_experiment(cfg, args.out)
    converged = sum(1 for r in records if r.converged)
    print(f"{len(records)} records ({converged} converged) "
          f"written to {args.out}")
    if tables.best:
        act, loss = tables.best["dice"]
        print(f"best dice combination: {act}+{loss}")
    return 0


def cmd_report(args) -> int:
    records = read_records(args.records)
    tables = summarize(records)
    predictions, truth = (None, None)
    if args.predictions is not None:
        predictions, truth = load_predictions(args.predictions)
    else:
        sidecar = Path(args.records).parent / "predictions.npz"
        if sidecar.exists():
            predictions, truth = load_predictions(sidecar)
    files = emit_report(records, tables, args.out, predictions, truth)
    print(f"wrote {len(files)} files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segact",
        description="Binary segmentation with configurable output "
                    "activations: training, metrics and grid experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("domains",
                       help="tabulate f(0), f'(0) and effective domains")
    p.add_argument("--epsilon", type=float, default=0.0025)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(fn=cmd_domains)

    p = sub.add_parser("losscurve",
                       help="plot the error of a single prediction (y=1)")
    p.add_argument("--loss", required=True)
    p.add_argument("--activation", required=True)
    p.add_argument("--range", default="-6:6", help="logit range lo:hi")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_losscurve)

    p = sub.add_parser("datagen", help="generate a synthetic task")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("--activation", required=True)
    p.add_argument("--loss", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None,
                   help="dataset directory or .actd file (default: generate)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("metrics", help="evaluate stored predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--plots", default=None)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("grid", help="run the full experiment grid")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("report", help="rebuild tables and plots from records")
    p.add_argument("--records", required=True)
    p.add_argument("--predictions", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Bad input (a ``ValueError`` such as
    ``EmptyDiagramError``, or a ``FloatingPointError``) prints one line
    to stderr and exits 2, as argparse does for bad flags."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FloatingPointError) as exc:
        message = " ".join(str(exc).splitlines())
        print(f"segact {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
