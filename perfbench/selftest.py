"""Harness self-test at toy sizes.

    python3 -m pytest -q perfbench/selftest.py

Every workload runs in a fresh interpreter exactly as the benchmark command
does, only with ``--scale toy``.  The file name keeps it out of the default
``pytest`` collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
SEED = 7


def invoke(workload: str, trace: int, *extra: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [
            sys.executable,
            str(script),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0.2",
            "--trace", str(trace),
            "--scale", "toy",
            *extra,
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


_traced = {}


def traced(workload: str) -> dict:
    if workload not in _traced:
        _traced[workload] = result_of(invoke(workload, 1))
    return _traced[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_and_correct(workload):
    result = result_of(invoke(workload, 0))
    assert result["correct"] and result["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in BENCH["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_matches_untraced(workload):
    # ``failed == 0`` includes the check that the traced RunSummary bytes
    # equal the untraced run's.
    result = traced(workload)
    assert result["correct"] and result["failed"] == 0
    declared = {metric["name"]: metric["unit"] for metric in BENCH["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == declared
    assert result["metrics"]["trace.wall_s"]["value"] > 0


def test_workloads_exercise_or_bypass_the_message_layers():
    plume = traced("plume_storm")["metrics"]
    grid = traced("duty_grid")["metrics"]
    for name in ("estimation.kernel_calls", "bus.broadcast_calls", "pas.batch_calls"):
        assert plume[name]["value"] > 0, name
        assert grid[name]["value"] == 0, name
    assert grid["controller.sleep_calls"]["value"] > 0
    campaign = traced("campaign")["metrics"]
    assert campaign["cell.execute_p50_s"]["value"] > 0
    assert campaign["artifact.bytes_per_cell"]["value"] > 0


def test_pinned_digests_pass_and_perturbed_ones_fail(tmp_path):
    pins = tmp_path / "digests.json"
    subprocess.run(
        [sys.executable, str(HERE / "pin_digests.py"), "--scale", "toy",
         "--seeds", str(SEED), "--output", str(pins)],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    for workload in ("plume_storm", "campaign"):
        result = result_of(invoke(workload, 0, "--digests", str(pins)))
        assert result["correct"] and result["failed"] == 0

    table = json.loads(pins.read_text())
    first, *rest = table["toy"]["plume_storm"][str(SEED)]
    table["toy"]["plume_storm"][str(SEED)] = [first[::-1], *rest]
    table["toy"]["campaign"][str(SEED)] = "0" * 64
    pins.write_text(json.dumps(table))
    for workload in ("plume_storm", "campaign"):
        result = result_of(invoke(workload, 0, "--digests", str(pins)))
        assert not result["correct"] and result["failed"] >= 1, workload


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = invoke("plume_storm", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
