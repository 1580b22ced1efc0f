"""The supported top-level API, and every library name the benchmark in
``perfbench/`` imports or patches, so a rename cannot break it silently."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import qnprox
import qnprox.learner
import qnprox.line_search
import qnprox.separation
import qnprox.solver
from qnprox.learner import init_learner
from helpers import (ProductCounter, QuadraticObjective, lanczos_basis,
                     loss_sample)

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


MEASURE = ast.parse((Path(__file__).resolve().parents[1] / "perfbench"
                     / "measure.py").read_text())
MEASURE_IMPORTS = [(node.module, alias.name)
                   for node in ast.walk(MEASURE)
                   if isinstance(node, ast.ImportFrom)
                   and node.module in ("qnprox", "qnprox.datasets")
                   for alias in node.names]


def test_benchmark_imports_resolve():
    assert MEASURE_IMPORTS
    for module, name in MEASURE_IMPORTS:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_benchmark_calls_bind():
    # each call perfbench/measure.py makes to a library name must fit that
    # name's signature: its positional count and its keyword names
    library = {name: getattr(importlib.import_module(module), name)
               for module, name in MEASURE_IMPORTS}
    calls = [node for node in ast.walk(MEASURE)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in library]
    assert {call.func.id for call in calls} >= {
        "CountingOracle", "LogisticObjective", "BaselineConfig",
        "SolverConfig", "solve"}
    for call in calls:
        where = f"{call.func.id} at measure.py line {call.lineno}"
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
        assert all(kw.arg is not None for kw in call.keywords), where
        try:
            inspect.signature(library[call.func.id]).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{where}: {exc}")


@pytest.mark.parametrize("module, name", PATCHED)
def test_patched_stage_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_patched_stages_return_what_the_benchmark_reads(monkeypatch):
    # perfbench/tracing.py annotates each stage's span from these result
    # fields, and keeps the separation input W from the first positional
    # argument; each stage is called positionally, as the library calls it
    d = 4
    linear = qnprox.line_search.conjugate_residual(lambda v: 2.0 * v,
                                                   np.ones(d), 0.1)
    assert (linear.iterations, linear.matvecs) == (1, 1)

    oracle = qnprox.CountingOracle(QuadraticObjective(np.eye(d)))
    y = np.ones(d)
    g = oracle.gradient(y)
    outcome = qnprox.solver.backtracking_search(
        y, g, np.zeros((d, d)), 64.0, 0.1, 0.85, 0.5, oracle)
    # perfbench counts backtracks + 1 trials, one gradient query each
    assert outcome.backtracks >= 1
    assert oracle.counters.gradient_queries == 1 + outcome.backtracks + 1

    state = init_learner(d, 1.0)
    sample = loss_sample(state.B, 3.0 * np.ones(d), np.ones(d))
    report = qnprox.solver.learner_step(state, sample, 0)[1]
    # the learner's count is its separation call's; the norm bound skips
    # this one
    assert report.matvecs == 0

    counter = ProductCounter(monkeypatch)
    result = qnprox.learner.separation_oracle(5.0 * np.eye(d), 0.1, 0.05, 0)
    assert result.separated is True
    # the Krylov space of a multiple of I breaks down after one step
    assert result.matvecs == counter.products == 1 + 2

    basis = lanczos_basis(np.diag([1.0, -2.0, 3.0, 0.5]), 0)
    extremes = qnprox.separation.lanczos_extreme(basis, 3)
    assert extremes.matvecs == basis.size + 2 == 3 + 2
