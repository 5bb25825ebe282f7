"""bench/entry.py: paired benchmark results to one BENCH entry."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import entry  # noqa: E402


def write_result(directory, workload, seed, trace, wall, rounds=3,
                 src_lines=100):
    directory.mkdir(parents=True, exist_ok=True)
    metrics = {"wall_s": wall, "setup_s": 0.5, "peak_rss_mb": 80.0,
               "mpixels_per_s": 4.0 / wall} if not trace else \
        {"metrics.nll_s": wall, "losses.value_ms.bce": 0.0}
    result = {"workload": workload, "seed": seed, "seconds": 20.0,
              "trace": trace, "rounds": [wall] * rounds,
              "machine": {"nproc": 2, "src_lines": src_lines},
              "correct": True, "attempted": 4 * rounds, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"}
                          for k, v in metrics.items()}}
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result), encoding="utf-8")


def test_pairs_medians_quartiles_and_traced_figures(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in zip(range(1, 6), [(1.0, 0.5), (1.2, 0.6),
                                          (0.9, 0.4), (1.1, 1.3),
                                          (1.0, 0.5)]):
        write_result(parent, "metrics-large", seed, 0, p)
        write_result(change, "metrics-large", seed, 0, c, src_lines=90)
    write_result(parent, "metrics-large", 9, 0, 1.0)  # unpaired
    write_result(parent, "metrics-large", 7, 1, 0.2)
    write_result(change, "metrics-large", 7, 1, 0.1)
    out = tmp_path / "BENCH.json"
    assert entry.main(["--parent", str(parent), "--change", str(change),
                       "--parent-ref", "abc", "--change-ref", "def",
                       "--title", "t", "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    work = data["workloads"]["metrics-large"]
    assert work["seeds"] == [1, 2, 3, 4, 5] and work["pairs"] == 5
    assert work["change"]["rounds"] == [3] * 5
    wall = work["end_to_end"]["wall_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.1}
    assert wall["change"]["median"] == 0.5
    assert wall["pairs_won"] == {"change": 4, "parent": 1, "tie": 0}
    assert wall["ratio"] == 0.5
    # Higher is better for throughput: the same pairs, the same winners.
    assert work["end_to_end"]["mpixels_per_s"]["pairs_won"]["change"] == 4
    (figures,) = work["traced"]
    assert (figures["seed"], figures["change"]["metrics.nll_s"]) == (7, 0.1)
    assert figures["reads_zero_in_change"] == ["losses.value_ms.bce"]
    assert data["src_lines"] == {"parent": 100, "change": 90}
    assert data["transcribed"] is False
    assert any("grid-workers2" in spot for spot in data["blind_spots"])


def test_no_common_runs_is_an_error(tmp_path, capsys):
    write_result(tmp_path / "parent", "metrics-large", 1, 0, 1.0)
    (tmp_path / "change").mkdir()
    code = entry.main(["--parent", str(tmp_path / "parent"), "--change",
                       str(tmp_path / "change"), "--parent-ref", "a",
                       "--change-ref", "b", "--title", "t", "--out",
                       str(tmp_path / "out.json")])
    assert code == 2
    assert "no workload" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parent.parent / "bench").glob("BENCH_*.json")))
def test_committed_entries_state_their_blind_spots(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["blind_spots"] == entry.BLIND_SPOTS
    assert set(data["workloads"]) <= {"grid-serial", "metrics-large"}
    assert isinstance(data["transcribed"], bool)
