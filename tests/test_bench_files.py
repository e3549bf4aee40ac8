"""Every BENCH_*.json at the repo root parses and records correct runs.

A BENCH file holds a perf change's before/after from `perfbench/run.py`:
its `untraced` entry maps each benchmark workload to the last lines of the
parent's and the change's untraced runs.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


def test_bench_files_are_checked_in():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_records_correct_untraced_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{record['label']}.json"
    assert "perfbench/run.py" in record["command"]
    untraced = record["untraced"]
    assert set(untraced) == WORKLOADS
    for entry in untraced.values():
        for side in ("parent", "change"):
            line = entry[side]
            assert {"correct", "attempted", "failed", "metrics"} <= set(line)
            assert line["correct"] is True
