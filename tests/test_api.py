"""The supported top-level API, every library name the benchmark in
``perfbench/`` imports or patches, so a rename cannot break it silently, a
caller for every config setting and every entry-point input, and iteration
reports that hold no live solver state."""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

import numpy as np
import pytest

import qnprox
import qnprox.learner
import qnprox.line_search
import qnprox.separation
import qnprox.solver
from qnprox.learner import Curvature, LearnerState, init_learner
from qnprox.linear_solver import KrylovBasis
from qnprox.separation import PackedSymmetric
from qnprox.solver import IterationReport
from helpers import ProductCounter, QuadraticObjective, lanczos_basis, packed

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


# settings that no library or benchmark caller sets, kept because tests
# reach paths with them that nothing else reaches: a precision-floor stop at
# sigma0 = 100, the d = 2 precision-floor regression at beta = 0.25, and
# first iterations of case I and case II chosen by sigma0
UNSET_SETTINGS = {"sigma0", "beta"}


ENTRY_POINTS = ("solve", "nag_solve", "bfgs_solve")


def test_every_setting_has_a_caller():
    # a field or an input that no caller sets is a constant: the configs'
    # calls in the library and the benchmark must set every field outside
    # the allowlist, and the entry points' calls there or in tools/ must pass
    # every parameter, by position or by keyword
    root = Path(__file__).resolve().parents[1]
    sources = [*sorted((root / "src" / "qnprox").glob("*.py")),
               root / "perfbench" / "measure.py"]
    configs = {"SolverConfig": qnprox.SolverConfig,
               "BaselineConfig": qnprox.BaselineConfig}
    signatures = {name: inspect.signature(getattr(qnprox, name))
                  for name in ENTRY_POINTS}
    set_by_callers = {name: set() for name in (*configs, *signatures)}
    for path in (*sources, *sorted((root / "tools").glob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)):
                continue
            name = node.func.id
            if name in configs and path in sources:
                set_by_callers[name].update(kw.arg for kw in node.keywords)
            elif name in signatures:
                where = f"{name} at {path.name} line {node.lineno}"
                assert not any(isinstance(arg, ast.Starred)
                               for arg in node.args), where
                assert all(kw.arg is not None for kw in node.keywords), where
                set_by_callers[name].update(signatures[name].bind_partial(
                    *node.args, **{kw.arg: kw.value for kw in node.keywords}
                ).arguments)
    for name, cls in configs.items():
        fields = {field.name for field in dataclasses.fields(cls)}
        unset = fields - set_by_callers[name]
        assert unset <= UNSET_SETTINGS, f"{name}: no caller sets {unset}"
    assert UNSET_SETTINGS <= {field.name for field in
                              dataclasses.fields(qnprox.SolverConfig)}
    for name, signature in signatures.items():
        unset = set(signature.parameters) - set_by_callers[name]
        assert not unset, f"{name}: no caller passes {unset}"


def test_no_module_imports_another_modules_private_name():
    # an underscore name is its module's own: a second module that imports
    # it is a second owner of the computation, so it must be made public
    library = Path(qnprox.__file__).parent
    imported = []
    for path in sorted(library.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").split(".")[0]
                         == "qnprox")):
                continue
            imported += [f"{path.name} line {node.lineno}: {alias.name}"
                         for alias in node.names
                         if alias.name.startswith("_")]
    assert not imported


def annotated_types(hint):
    """The hint and every type nested in it, as in Optional[X], and in the
    fields of a record it names, as in the report's LineSearchOutcome."""
    yield hint
    for arg in typing.get_args(hint):
        yield from annotated_types(arg)
    if dataclasses.is_dataclass(hint):
        for field_hint in typing.get_type_hints(hint).values():
            yield from annotated_types(field_hint)


def test_iteration_reports_hold_no_solver_state():
    # a report an observer keeps must not share live, mutable solver state:
    # the learner steps its W in place, so a report holding the curvature
    # would change after it is observed
    live = {Curvature, LearnerState, PackedSymmetric}
    hints = typing.get_type_hints(IterationReport)
    assert [field.name for field in dataclasses.fields(IterationReport)
            if live & set(annotated_types(hints[field.name]))] == []


@pytest.mark.parametrize("module, name", PATCHED)
def test_patched_stage_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_patched_stages_return_what_the_benchmark_reads(monkeypatch):
    # perfbench/tracing.py annotates each stage's span from these result
    # fields, and keeps the separation input W from the first positional
    # argument; each stage is called positionally, as the library calls it
    d = 4
    # M = I and eta = 1: the operator 2 I, solved in one step
    linear = qnprox.line_search.conjugate_residual(
        KrylovBasis(lambda v: v.copy(), np.ones(d)), 1.0, np.ones(d), 0.1)
    assert (linear.iterations, linear.matvecs) == (1, 1)

    oracle = qnprox.CountingOracle(QuadraticObjective(np.eye(d)))
    y = np.ones(d)
    g = oracle.gradient(y)
    state = init_learner(d, 1.0)
    outcome = qnprox.solver.backtracking_search(
        y, g, state.B, 64.0, 0.1, 0.85, 0.5, oracle)
    # perfbench counts backtracks + 1 trials, one gradient query each
    assert outcome.backtracks >= 1
    assert oracle.counters.gradient_queries == 1 + outcome.backtracks + 1

    # the learner is fed the search's sample, made at the learner's B
    report = qnprox.solver.learner_step(state, outcome.rejected, 0)[1]
    # the learner's count is its separation call's; the norm bound skips
    # this one
    assert report.matvecs == 0

    counter = ProductCounter(monkeypatch)
    result = qnprox.learner.separation_oracle(packed(5.0 * np.eye(d)), 0.1, 0.05, 0)
    assert result.separated is True
    # the Krylov space of a multiple of I breaks down after one step, and
    # the read-out takes no product
    assert result.matvecs == counter.products == 1

    basis = lanczos_basis(np.diag([1.0, -2.0, 3.0, 0.5]), 0)
    extremes = qnprox.separation.lanczos_extreme(basis, 3)
    assert extremes.matvecs == basis.size == 3
