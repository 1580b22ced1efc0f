"""Self-tests of the benchmark on tiny instances.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
from workloads import WORKLOADS, tiny

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, kind):
    proc = run_cli(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert printed == expected
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("fail_share 0 ") for line in lines)


def run_with_reference_shift(monkeypatch, tmp_path, shift):
    true_optimum = measure.reference_optimum
    monkeypatch.setattr(measure, "reference_optimum",
                        lambda objective: true_optimum(objective) + shift)
    return measure.run_workload(tiny(WORKLOADS["paper"]), seed=3, seconds=0,
                                trace=False, work_dir=tmp_path).out


def test_gate_fires_on_a_reference_above_the_optimum(monkeypatch, tmp_path):
    out = run_with_reference_shift(monkeypatch, tmp_path, 1e-3)
    assert not out.correct
    assert any("the reference is wrong" in p for p in out.problems)


def test_gate_fires_on_a_reference_below_the_optimum(monkeypatch, tmp_path):
    out = run_with_reference_shift(monkeypatch, tmp_path, -1e-3)
    assert not out.correct
    assert out.failed > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "paper", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
