"""One round of a benchmark workload, in a process of its own.

    python3 perfbench/round.py WORKLOAD SEED WORK_DIR INDEX TRACE

``run.py`` starts this once per round, so that every round runs in a
fresh process, as a user's ``segact`` command does: a process that has
already run a round runs the next one faster, and mixing such rounds
with fresh ones would make a run's figure depend on how many rounds fit
into it.  The workload's inputs must already be in WORK_DIR.  The round
is printed as one JSON object on standard output.  With TRACE 1 the
program's public functions are traced and the spans are written to
WORK_DIR/spans-INDEX.json.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, work_dir, index, trace = argv
    work_dir = Path(work_dir)
    workload = workloads.make_workload(name, int(seed), work_dir)
    tracer = None
    if trace == "1":
        tracer = tracing.Tracer(work_dir / f"spool-{index}")
        tracer.install()
    try:
        result = workload.run_round(int(index))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        with open(work_dir / f"spans-{index}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"wrapped": sorted(tracer.wrapped),
                       "processes": tracer.collect()}, fh)
    print(json.dumps(asdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
