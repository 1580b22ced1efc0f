"""The supported top-level API, and every library name the benchmark in
``perfbench/`` imports or patches, so a rename cannot break it silently."""

import ast
import importlib
from pathlib import Path

import pytest

import qnprox

SUPPORTED = [
    "solve", "SolverConfig",
    "BaselineConfig", "nag_solve", "bfgs_solve",
    "LogisticDataset", "LogisticObjective", "SyntheticLogisticSpec",
    "generate_logistic", "read_dataset_csv", "write_dataset_csv",
    "ConfigurationError", "ConvergenceError", "NumericsError", "SolverError",
    "RunRecord", "TraceRow", "read_trace_csv", "write_trace_csv",
    "CountingOracle", "OracleCounters",
]

# stage functions that perfbench/tracing.py wraps in place; each module calls
# its name bare, so the wrapper sees every call
PATCHED = [
    ("qnprox.solver", "backtracking_search"),
    ("qnprox.line_search", "conjugate_residual"),
    ("qnprox.solver", "learner_step"),
    ("qnprox.learner", "separation_oracle"),
    ("qnprox.separation", "lanczos_extreme"),
]


def test_all_is_the_supported_surface():
    assert qnprox.__all__ == SUPPORTED
    for name in SUPPORTED:
        assert hasattr(qnprox, name), name


def test_benchmark_imports_resolve():
    measure = Path(__file__).resolve().parents[1] / "perfbench" / "measure.py"
    imported = [(node.module, alias.name)
                for node in ast.walk(ast.parse(measure.read_text()))
                if isinstance(node, ast.ImportFrom)
                and node.module in ("qnprox", "qnprox.datasets")
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)


@pytest.mark.parametrize("module, name", PATCHED)
def test_patched_stage_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))
