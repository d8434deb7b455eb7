"""Tiny-size runs of every workload print every declared metric with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

BENCH = os.path.dirname(os.path.abspath(run.__file__))
ROOT = os.path.dirname(BENCH)
DECLARED = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_declaration_matches_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == [
        (name, unit) for name, unit, _, _ in layers.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "verify_probes", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
