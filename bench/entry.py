"""Turn paired benchmark results into one BENCH_*.json entry.

    python3 bench/entry.py --parent PARENT_DIR --change CHANGE_DIR \
        --parent-ref 05ba4ab --change-ref "one-pass metrics" \
        --title "..." --out bench/BENCH_6.json

PARENT_DIR and CHANGE_DIR each hold the ``.perfbench-out/results/*.json``
files of ``perfbench/run.py`` runs, one directory per side, on the same
seeds.  Untraced runs (``trace0``) of a workload are paired by seed and
give each end-to-end metric's median, quartiles and pairs won; traced
runs (``trace1``) give the per-layer figures of each side.  Directions
and bounds come from ``BENCHMARK.json``.  Only the standard library is
used.

The north star's two wall times are measured outside the benchmark and
passed in, each side's minimum over its repeats:

    --grid-wall PARENT_S CHANGE_S --grid-repeats 1     (segact grid)
    --tier1-wall PARENT_S CHANGE_S --tier1-repeats 1   (the tier-1 suite)
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Figures of the benchmark that do not measure what their names say;
#: every entry repeats them so that no reader takes them for real.
BLIND_SPOTS = [
    "losses.value_ms.* and losses.grad_ms.* read 0: the train step calls "
    "Loss._value and Loss._grad, which the tracer does not wrap; the "
    "losses' time is inside network.backward_ms.",
    "trace.overhead_s is negative on traced runs, so it can neither "
    "correct nor bound the per-layer figures.",
    "grid-workers2 is implemented in perfbench/ but not listed in "
    "BENCHMARK.json, so no entry measures the grid with workers.",
    "estimator.predict_proba_ms reads 0 on grid-serial: the grid cell "
    "scores the best epoch's kept validation probabilities and calls "
    "predict_proba only when no epoch improved; the per-epoch validation "
    "predicts are timed only inside network.forward_ms.",
]


def quartiles(values) -> dict:
    """Median and quartiles (inclusive method); quartiles need two
    values."""
    values = sorted(values)
    if len(values) < 2:
        return {"median": values[0], "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def load_runs(directory: Path, trace: int) -> dict:
    """{(workload, seed): result} of one side's runs with ``trace``."""
    runs = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs[(result["workload"], result["seed"])] = result
    return runs


def value(result, metric):
    return result["metrics"][metric]["value"]


def end_to_end(pairs, spec) -> dict:
    """One end-to-end metric over paired (parent, change) runs."""
    name, better = spec["name"], spec["better"]
    parent = [value(p, name) for p, _ in pairs]
    change = [value(c, name) for _, c in pairs]
    won = {"change": 0, "parent": 0, "tie": 0}
    for p, c in zip(parent, change):
        if p == c:
            won["tie"] += 1
        elif (c < p) == (better == "lower"):
            won["change"] += 1
        else:
            won["parent"] += 1
    entry = {"unit": spec["unit"], "better": better, "bound": spec["bound"],
             "parent": quartiles(parent), "change": quartiles(change),
             "pairs_won": won}
    entry["ratio"] = entry["change"]["median"] / entry["parent"]["median"]
    return entry


def side_facts(runs) -> dict:
    return {"rounds": [len(r["rounds"]) for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs)}


def traced(parent_runs, change_runs, workload) -> list:
    """Per-layer figures of every seed traced on both sides."""
    figures = []
    for (name, seed) in sorted(set(parent_runs) & set(change_runs)):
        if name != workload:
            continue
        sides = {side: {metric: m["value"] for metric, m in
                        runs[(name, seed)]["metrics"].items()}
                 for side, runs in (("parent", parent_runs),
                                    ("change", change_runs))}
        figures.append({
            "seed": seed, **sides,
            "reads_zero_in_change": sorted(
                metric for metric, v in sides["change"].items() if v == 0)})
    return figures


#: (option prefix, entry key, what was timed) of the north-star figures.
NORTH_STAR = (
    ("grid", "default_grid_wall_s",
     "segact grid with the default config (7 activations x 3 losses x 5 "
     "folds, 200 images of 32 x 32) and 1 worker"),
    ("tier1", "tier1_wall_s",
     "the tier-1 command of ROADMAP.md, criterion 6 included"),
)


def north_star(args) -> dict:
    """The north-star wall times that were given, with their repeats."""
    figures = {}
    for prefix, key, what in NORTH_STAR:
        wall = getattr(args, f"{prefix}_wall")
        if wall is not None:
            parent, change = wall
            figures[key] = {"what": what, "unit": "s",
                            "repeats": getattr(args, f"{prefix}_repeats"),
                            "statistic": "minimum over repeats",
                            "parent": parent, "change": change,
                            "ratio": change / parent}
    return figures


def build_entry(args) -> dict:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    parent, change = (load_runs(d, 0) for d in (args.parent, args.change))
    parent_traced, change_traced = (load_runs(d, 1)
                                    for d in (args.parent, args.change))
    workloads, machine, src_lines = {}, None, None
    for name in (w["name"] for w in benchmark["workloads"]):
        seeds = sorted(seed for (n, seed) in set(parent) & set(change)
                       if n == name)
        figures = traced(parent_traced, change_traced, name)
        if not seeds and not figures:
            continue
        pairs = [(parent[(name, s)], change[(name, s)]) for s in seeds]
        entry = {"seeds": seeds, "pairs": len(pairs)}
        if pairs:
            entry["seconds"] = pairs[0][1]["seconds"]
            entry["parent"] = side_facts([p for p, _ in pairs])
            entry["change"] = side_facts([c for _, c in pairs])
            entry["end_to_end"] = {spec["name"]: end_to_end(pairs, spec)
                                   for spec in benchmark["end_to_end"]}
            machine = machine or pairs[0][1]["machine"]
            src_lines = src_lines or {
                side: run["machine"]["src_lines"]
                for side, run in zip(("parent", "change"), pairs[0])}
        entry["traced"] = figures
        workloads[name] = entry
    return {
        "title": args.title,
        "transcribed": False,
        "parent_ref": args.parent_ref,
        "change_ref": args.change_ref,
        "statistic": "each run's figure is the median of its rounds; the "
                     "entry gives the median and quartiles over runs and "
                     "the pairs each side won on the same seed",
        "machine": machine,
        "src_lines": src_lines,
        "workloads": workloads,
        "north_star": north_star(args),
        "blind_spots": BLIND_SPOTS,
    }


def _seconds(text) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"not a positive time: {text}")
    return value


def _positive(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive count: {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="results directory of the parent's runs")
    parser.add_argument("--change", type=Path, required=True,
                        help="results directory of the change's runs")
    parser.add_argument("--parent-ref", required=True)
    parser.add_argument("--change-ref", required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--out", type=Path, required=True)
    for prefix, _, what in NORTH_STAR:
        parser.add_argument(f"--{prefix}-wall", type=_seconds, nargs=2,
                            metavar=("PARENT_S", "CHANGE_S"),
                            help=f"wall time of {what}, per side")
        parser.add_argument(f"--{prefix}-repeats", type=_positive, default=1,
                            help=f"runs per side behind --{prefix}-wall")
    args = parser.parse_args(argv)
    entry = build_entry(args)
    if not entry["workloads"]:
        print("error: no workload has runs on both sides", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
