"""Benchmark of segact's grid and metrics paths.

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  The run writes the workload's inputs
from ``--seed``, then repeats whole rounds of the workload through
``segact.cli.main`` until ``--seconds`` have been measured (at least one
round), checks every output against an independent recomputation and
prints one JSON object as its last line of standard output:
``correct``, ``attempted`` and ``failed`` operations, and ``metrics``.
With ``--trace 0`` these are the end-to-end metrics; with ``--trace 1``
one traced round follows the untraced ones and its per-layer metrics are
printed instead.  Every round runs in a process of its own
(``round.py``).

Outputs of the program live in ``.perfbench-out/work-<pid>`` and are
removed at the end; a summary of every run, with the machine's facts,
goes to ``.perfbench-out/results`` and the spans of a traced run to
``.perfbench-out/trace``.  No thread environment variable is set: the
program runs as a user runs it.
"""
from __future__ import annotations

import os
import time


def _process_start() -> float:
    """When this process started, on the CLOCK_BOOTTIME scale."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.clock_gettime(time.CLOCK_BOOTTIME)


PROCESS_START = _process_start()

import argparse  # noqa: E402  (timed from the process start above)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path[:0] = [str(SRC), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

# A round still running this long after the run began is stopped and
# counted as failed, so that a run ends within three minutes.
DEADLINE_S = 165

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "GOTO_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((SRC / "segact").rglob("*.py")))


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES
                       if k in os.environ},
        "src_lines": src_lines(),
    }


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest process this one has started and waited
    for: a round's process or one of the program's workers."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_round(workload, args, work_dir, index, trace=False):
    """Run one round in a fresh process and return it."""
    command = [sys.executable, str(HERE / "round.py"), args.workload,
               str(args.seed), str(work_dir), str(index), str(int(trace))]
    elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - PROCESS_START
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - elapsed),
                              check=False)
    except subprocess.TimeoutExpired:
        error = f"round {index} still ran {DEADLINE_S} s into the run"
    else:
        if proc.returncode == 0:
            return workloads.Round(**json.loads(proc.stdout))
        error = f"round {index} exited with code {proc.returncode}"
    return workloads.Round(attempted=workload.operations,
                           failed=workload.operations, errors=[error])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "segact" / "__init__.py").is_file():
        print(f"error: no segact sources under {SRC}; run from the root "
              "of a segact checkout", file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.make_workload(args.workload, args.seed,
                                           work_dir)
        workload.prepare()
        begin = time.perf_counter()
        rounds = [run_round(workload, args, work_dir, 0)]
        peak = children_peak_rss_mb()
        while time.perf_counter() - begin < args.seconds:
            rounds.append(run_round(workload, args, work_dir, len(rounds)))
        setup_s = (rounds[0].started or time.clock_gettime(
            time.CLOCK_BOOTTIME)) - PROCESS_START
        walls = [r.wall_s for r in rounds]
        report = {}
        if args.trace:
            traced = run_round(workload, args, work_dir, len(rounds),
                               trace=True)
            spans_path = work_dir / f"spans-{len(rounds)}.json"
            spans = json.loads(spans_path.read_text(encoding="utf-8")) \
                if spans_path.is_file() else {"wrapped": [], "processes": []}
            metrics, absent, idle = tracing.layer_metrics(
                spans["processes"], set(spans["wrapped"]))
            metrics["src.lines"] = {"value": src_lines(), "unit": "lines"}
            metrics["trace.overhead_s"] = {
                "value": traced.wall_s - statistics.median(walls),
                "unit": "s"}
            report.update(absent=absent, not_run=idle)
            rounds.append(traced)
        problems, mpixels = workload.check(rounds)
        if not args.trace:
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak, "unit": "MB"},
                "mpixels_per_s": {
                    "value": statistics.median(
                        m / r.wall_s for m, r in zip(mpixels, rounds)),
                    "unit": "Mpixel/s"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": [r.wall_s for r in rounds],
              "machine": machine_facts(), "problems": problems,
              "errors": [e for r in rounds for e in r.errors],
              **report, **result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        with open(OUT / "trace" / f"{stem}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "tag", "start", "end",
                                       "parent"],
                       "metrics": metrics, **report,
                       "wrapped": spans["wrapped"],
                       "processes": spans["processes"]}, fh)

    for r in rounds:
        for error in r.errors:
            print(f"operation failed: {error}", file=sys.stderr)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed, "
          f"{'correct' if not problems else 'INCORRECT'}")
    print("machine " + json.dumps(record["machine"]))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
