"""tools/bench_snapshot.py reads the trace CSVs the library writes, and
never merges an output left by an earlier run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from qnprox import SolverConfig, solve, write_trace_csv
from qnprox.selftest import make_logistic

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_snapshot.py"
spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)


def test_trace_summary_reads_a_library_trace(tmp_path):
    objective = make_logistic(60, 6, seed=2)
    record = solve(objective, np.zeros(6), config=SolverConfig(max_iters=7,
                                                               seed=0))
    path = tmp_path / "aqnpe.csv"
    write_trace_csv(record, path)
    summary = bench_snapshot.trace_summary(path)
    assert summary["rows"] == len(record.rows) == 7
    assert summary["f"] == [row.f_value for row in record.rows]
    assert list(summary["column_sha256"]) == [
        "iter", "f", "eta_hat", "case", "backtracks", "grad_queries",
        "matvecs"]


def test_run_one_refuses_a_stale_trace_csv(tmp_path, monkeypatch):
    """A trace-1 run that writes its result but no aqnpe trace CSV fails,
    even when an earlier run's CSV is lying in .perfbench."""
    results = tmp_path / ".perfbench"
    results.mkdir()
    stale = results / "tall-aqnpe-untraced.csv"
    stale.write_text("iter,f\n0,1.0\n")

    def perfbench_without_trace(command, cwd, stdout):
        result = {key: None for key in bench_snapshot.RESULT_KEYS}
        (results / f"tall-seed{bench_snapshot.SEED}-trace1.json").write_text(
            json.dumps(result))
        return subprocess.CompletedProcess(command, 1)

    monkeypatch.setattr(bench_snapshot.subprocess, "run",
                        perfbench_without_trace)
    with pytest.raises(RuntimeError, match="tall-aqnpe-untraced.csv"):
        bench_snapshot.run_one(tmp_path, "tall", 1)
    assert not stale.exists()
