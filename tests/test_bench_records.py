"""Committed benchmark records: every ``BENCH_*.json`` at the repository root
holds complete, correct, paired runs of the workload it claims, or, for a
change that claims no gain (``"claim": null``), of every workload in
``BENCHMARK.json``."""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_runs_are_correct_and_paired(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    runs = record["runs"]
    for run in runs:
        line = run["final_line"]
        assert line["correct"] is True and line["failed"] == 0, run
    sides = Counter((r["workload"], r["seed"], r["pair"], r["side"]) for r in runs)
    pairs = {key[:3] for key in sides}
    for pair in pairs:
        assert sides[(*pair, "parent")] == 1 and sides[(*pair, "change")] == 1, pair
    assert len(runs) == 2 * len(pairs)
    measured = {r["workload"] for r in runs}
    if record["claim"] is None:
        assert WORKLOADS <= measured
    else:
        assert record["claim"]["workload"] in measured
