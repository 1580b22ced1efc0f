"""One benchmark run of one workload.

Set-up, an untimed reference optimum, then every method solved from
x0 = z0 = 0 to the iteration where the objective gap first reaches the
target.  That iteration count K is found once per method by an untimed
search run, which also serves as the warm-up; every later solve is
``max_iters=K`` and must end at or below the target.

* ``trace=False`` gives the end-to-end metrics: medians of timed solves in a
  closed loop (one solve at a time, methods in turn) for ``seconds``, plus
  one untimed solve under ``tracemalloc`` for aqnpe's peak memory.
* ``trace=True`` gives the per-layer metrics: rounds of one untraced and
  one traced aqnpe solve, then traced NAG and BFGS solves.  The traced aqnpe
  solve must write the same trace CSV bytes and end with the same counters
  as the untraced one, and its spans must account for every gradient query
  and matvec.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from qnprox import (BaselineConfig, CountingOracle, LogisticObjective,
                    OracleCounters, RunRecord, SolverConfig,
                    SyntheticLogisticSpec, bfgs_solve, generate_logistic,
                    nag_solve, solve, write_trace_csv)
from qnprox.datasets import LogisticDataset

from tracing import CountedObjective, Recorder, TracedObjective, traced_layers
from workloads import (DATASET_SEED, METHODS, TARGET_GAP, SeedPlan, Workload,
                       seed_plan)

SETUP_REPEATS = 5
MIN_TIMED_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
MAX_ITERATION_CAP = 20000
# the reference optimum: a BFGS solve to the float floor, accepted when its
# gradient norm is at most OPTIMUM_GRAD_TOL
OPTIMUM_GRAD_TOL = 1e-6
# an iterate below f* - OPTIMUM_SLACK shows that f* is not the optimum
OPTIMUM_SLACK = 1e-11
MIB = 2.0 ** 20


class GateError(Exception):
    """A correctness check failed in a way that stops the run."""


@dataclass
class Solve:
    record: RunRecord
    seconds: float
    objective: CountedObjective
    counters: OracleCounters

    @property
    def signature(self) -> tuple:
        last = self.record.rows[-1]
        return (len(self.record.rows), last.grad_queries, last.matvecs,
                self.objective.values, self.objective.gradients)


@dataclass
class Outcome:
    """Metrics and checks of one run; ``metrics`` maps name to
    (value, unit)."""

    metrics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)


def setup(workload: Workload, plan: SeedPlan
          ) -> tuple[LogisticObjective, float, float]:
    """The instance as the user builds it; returns the objective and the
    seconds spent in ``generate_logistic`` and in ``LogisticObjective``."""
    spec = SyntheticLogisticSpec(n=workload.n, d=workload.d,
                                 sigma=workload.sigma, seed=DATASET_SEED)
    start = time.perf_counter()
    base = generate_logistic(spec)
    generate_s = time.perf_counter() - start
    dataset = LogisticDataset(features=base.features[plan.rows][:, plan.columns],
                              labels=base.labels[plan.rows])
    start = time.perf_counter()
    objective = LogisticObjective(dataset)
    init_s = time.perf_counter() - start
    return objective, generate_s, init_s


def reference_optimum(objective) -> float:
    record = bfgs_solve(objective, np.zeros(objective.dimension),
                        BaselineConfig(max_iters=1000, tolerance=1e-12))
    grad_norm = float(np.linalg.norm(objective.gradient(record.final_x)))
    if not grad_norm <= OPTIMUM_GRAD_TOL:
        raise GateError(f"reference optimum not certified: gradient norm "
                        f"{grad_norm:.3e} > {OPTIMUM_GRAD_TOL:g}")
    return float(objective.value(record.final_x))


def run_method(method: str, oracle, workload: Workload, plan: SeedPlan,
               max_iters: int) -> RunRecord:
    x0 = np.zeros(oracle.dimension)
    if method == "aqnpe":
        return solve(oracle, x0, x0.copy(), SolverConfig(
            max_iters=max_iters, rho=workload.rho, seed=plan.solver_seed))
    if method == "nag":
        return nag_solve(oracle, x0, BaselineConfig(max_iters=max_iters))
    return bfgs_solve(oracle, x0, BaselineConfig(max_iters=max_iters))


def first_at_target(record: RunRecord, f_star: float) -> Optional[int]:
    """Iteration of the first row whose gap is at most TARGET_GAP."""
    for row in record.rows:
        if row.f_value - f_star <= TARGET_GAP:
            return row.iteration
    return None


class WorkloadRun:
    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.plan = seed_plan(workload, seed)
        self.work_dir = work_dir
        self.out = Outcome()
        self.objective = None
        self.f_star = math.nan
        self.iterations = {}
        # seconds per solve to the target, from the search run
        self.estimates = {}
        self.setup_times = ([], [])
        self.spans = {}

    # -- solves -------------------------------------------------------------

    def attempt(self, method: str, wrapped: CountedObjective,
                max_iters: int, recorder: Optional[Recorder] = None
                ) -> Optional[Solve]:
        """One solve; a raise counts as a failed solve.  Reaching the target
        is judged by the caller."""
        self.out.attempted += 1
        oracle = CountingOracle(wrapped)
        root = None if recorder is None else recorder.open(
            "solver" if method == "aqnpe" else f"baselines.{method}")
        start = time.perf_counter()
        try:
            record = run_method(method, oracle, self.workload, self.plan,
                                max_iters)
        except Exception as exc:  # the run goes on and reports the failure
            self.fail(f"{method} solve raised {type(exc).__name__}: {exc}")
            return None
        finally:
            if root is not None:
                recorder.close(root)
        seconds = time.perf_counter() - start
        if not record.rows:
            self.fail(f"{method} solve returned no iterations")
            return None
        lowest = min(row.f_value for row in record.rows)
        if lowest < self.f_star - OPTIMUM_SLACK:
            self.out.problems.append(
                f"{method} reached f = {lowest!r} below the reference "
                f"optimum {self.f_star!r}: the reference is wrong")
        return Solve(record, seconds, wrapped, oracle.counters)

    def fail(self, message: str) -> None:
        self.out.failed += 1
        self.out.problems.append(message)

    def to_target(self, method: str, wrapped: CountedObjective,
                  recorder: Optional[Recorder] = None) -> Optional[Solve]:
        """A ``max_iters=K`` solve whose last iterate must meet the target."""
        solved = self.attempt(method, wrapped, self.iterations[method],
                              recorder)
        if solved is None:
            return None
        last = solved.record.rows[-1]
        if last.f_value - self.f_star > TARGET_GAP:
            self.fail(f"{method} ended at gap {last.f_value - self.f_star:.3e}"
                      f" > {TARGET_GAP:g} after {last.iteration} iterations")
            return None
        if solved.objective.gradients != last.grad_queries:
            self.out.problems.append(
                f"{method}: the objective saw {solved.objective.gradients} "
                f"gradient queries, the trace reports {last.grad_queries}")
        return solved

    def search_iterations(self, method: str) -> bool:
        """Find K, doubling the iteration cap until the target is reached."""
        cap = self.workload.caps[method]
        while True:
            solved = self.attempt(method, CountedObjective(self.objective),
                                  cap)
            if solved is None:
                return False
            k = first_at_target(solved.record, self.f_star)
            if k is not None:
                self.iterations[method] = k
                self.estimates[method] = (solved.seconds * k
                                          / len(solved.record.rows))
                return True
            if len(solved.record.rows) < cap or cap >= MAX_ITERATION_CAP:
                self.fail(f"{method} did not reach gap {TARGET_GAP:g} in "
                          f"{len(solved.record.rows)} iterations")
                return False
            cap = min(2 * cap, MAX_ITERATION_CAP)

    # -- phases -------------------------------------------------------------

    def prepare(self) -> bool:
        """Set-up repeats, reference optimum and the K search per method."""
        generate, init = [], []
        for _ in range(SETUP_REPEATS):
            self.objective, generate_s, init_s = setup(self.workload,
                                                       self.plan)
            generate.append(generate_s)
            init.append(init_s)
        self.setup_times = (generate, init)
        self.f_star = reference_optimum(self.objective)
        self.out.notes.append(f"reference optimum f* = {self.f_star!r}")
        return all(self.search_iterations(method) for method in METHODS)

    def check_repeats(self, solves: dict) -> None:
        for method, runs in solves.items():
            signatures = {s.signature for s in runs}
            if len(signatures) > 1:
                self.out.problems.append(
                    f"{method}: repeated solves differ: {sorted(signatures)}")

    def end_to_end(self, seconds: float) -> None:
        out = self.out
        generate, init = self.setup_times
        out.metric("setup_s", statistics.median(
            [g + i for g, i in zip(generate, init)]), "s")

        mem = self.peak_memory()
        # a round gives each method about a third of the longest solve's
        # time, so cheap methods get many samples
        longest = max(self.estimates.values())
        repeats = {method: max(1, int(longest / (len(METHODS) * estimate)))
                   for method, estimate in self.estimates.items()}
        solves = {method: [] for method in METHODS}
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_TIMED_ROUNDS or time.perf_counter() < deadline:
            for method in METHODS:
                for _ in range(repeats[method]):
                    solved = self.to_target(
                        method, CountedObjective(self.objective))
                    if solved is not None:
                        solves[method].append(solved)
            rounds += 1
        self.check_repeats(solves)
        if not all(solves.values()) or mem is None:
            return

        for method in METHODS:
            times = [s.seconds for s in solves[method]]
            out.metric(f"{method}.solve_s", statistics.median(times), "s")
            out.notes.append(
                f"{method}.solve_s: median of {len(times)} samples, "
                f"min {min(times):.4f} s, max {max(times):.4f} s")
        aqnpe = solves["aqnpe"][0]
        last = aqnpe.record.rows[-1]
        out.metric("aqnpe.iters", len(aqnpe.record.rows), "count")
        out.metric("aqnpe.grad_queries", last.grad_queries, "count")
        out.metric("aqnpe.matvecs", last.matvecs, "count")
        out.metric("aqnpe.value_queries", aqnpe.objective.values, "count")
        out.metric("aqnpe.peak_mem_mb", mem, "MiB")
        out.metric("nag.value_queries", solves["nag"][0].objective.values,
                   "count")
        out.metric("bfgs.grad_queries",
                   solves["bfgs"][0].record.rows[-1].grad_queries, "count")

    def peak_memory(self) -> Optional[float]:
        """tracemalloc peak above the baseline during one aqnpe solve."""
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solved = self.to_target("aqnpe", CountedObjective(self.objective))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return None if solved is None else (peak - baseline) / MIB

    def per_layer(self, seconds: float) -> None:
        out = self.out
        generate, init = self.setup_times
        plain, traced = [], {method: [] for method in METHODS}
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
            solved = self.to_target("aqnpe", CountedObjective(self.objective))
            if solved is not None:
                plain.append(solved)
            for method in METHODS:
                recorder = Recorder()
                wrapped = TracedObjective(self.objective, recorder)
                if method == "aqnpe":
                    with traced_layers(recorder) as samples:
                        solved = self.to_target(method, wrapped, recorder)
                else:
                    samples = []
                    solved = self.to_target(method, wrapped, recorder)
                if solved is not None:
                    traced[method].append((solved, recorder, samples))
            rounds += 1
        self.check_repeats({"aqnpe": plain + [t[0] for t in traced["aqnpe"]]})
        if not plain or not all(traced.values()):
            return

        for solved, recorder, _ in traced["aqnpe"]:
            self.check_trace_identity(plain[0], solved)
            self.check_accounting(solved, recorder)

        rows = [aqnpe_layers(solved, recorder, samples)
                for solved, recorder, samples in traced["aqnpe"]]
        for name, (_, unit) in rows[0].items():
            out.metric(name, statistics.median_low(r[name][0] for r in rows),
                       unit)
        for method in ("nag", "bfgs"):
            # span 0 is the method's root, opened by attempt()
            out.metric(f"baselines.{method}.self_s", statistics.median_low(
                recorder.self_times()[0] for _, recorder, _ in traced[method]),
                "s")
        out.metric("datasets.generate_s", statistics.median(generate), "s")
        out.metric("datasets.objective_init_s", statistics.median(init),
                   "s")
        out.metric("trace_overhead_ratio",
                   statistics.median(t[0].seconds for t in traced["aqnpe"])
                   / statistics.median(s.seconds for s in plain), "ratio")
        out.notes.append(f"traced rounds: {len(rows)}, untraced aqnpe "
                         f"samples: {len(plain)}")
        self.spans = {method: traced[method][-1][1].to_json()
                      for method in METHODS}

    # -- checks of the traced run --------------------------------------------

    def check_trace_identity(self, plain: Solve, traced: Solve) -> None:
        paths = [self.work_dir / f"{self.workload.name}-aqnpe-{kind}.csv"
                 for kind in ("untraced", "traced")]
        write_trace_csv(plain.record, paths[0])
        write_trace_csv(traced.record, paths[1])
        if paths[0].read_bytes() != paths[1].read_bytes():
            self.out.problems.append(
                "tracing changed the aqnpe trace CSV: "
                f"{paths[0].name} differs from {paths[1].name}")
        if plain.counters != traced.counters:
            self.out.problems.append(
                f"tracing changed the aqnpe counters: {plain.counters} vs "
                f"{traced.counters}")

    def check_accounting(self, solved: Solve, recorder: Recorder) -> None:
        last = solved.record.rows[-1]
        spans = recorder.spans
        gradients = sum(1 for s in spans if s.name == "oracles.gradient")
        if gradients != last.grad_queries:
            self.out.problems.append(
                f"accounting: {gradients} traced gradient calls, "
                f"{last.grad_queries} gradient queries in the trace")
        parts = {name: sum(s.attrs["matvecs"] for s in spans
                           if s.name == name)
                 for name in ("linear_solver", "learner", "separation")}
        # the learner's report includes its separation call's matvecs
        total = parts["linear_solver"] + parts["learner"]
        if total != last.matvecs:
            self.out.problems.append(
                f"accounting: linear_solver {parts['linear_solver']} + "
                f"learner {parts['learner'] - parts['separation']} + "
                f"separation {parts['separation']} = {total} matvecs, the "
                f"trace reports {last.matvecs}")


def aqnpe_layers(solved: Solve, recorder: Recorder,
                 samples: list) -> dict:
    """Per-layer metrics of one traced aqnpe solve, name -> (value, unit)."""
    spans = recorder.spans
    self_times = recorder.self_times()
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)
    iterations = len(solved.record.rows)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(self_times[i] for i in by_name[name])

    def total(name, key):
        return sum(spans[i].attrs[key] for i in by_name[name])

    lanczos_runs = Counter(spans[i].parent
                           for i in by_name["separation.lanczos"])
    separations = by_name["separation"]
    branches = Counter(
        ("fine" if lanczos_runs[i] > 1 else "coarse")
        + ("_separated" if spans[i].attrs["separated"] else "_inside")
        for i in separations)
    n_sep = max(len(separations), 1)
    eigvalsh = []
    for W in samples:
        start = time.perf_counter()
        np.linalg.eigvalsh(W)
        eigvalsh.append(time.perf_counter() - start)
    call_s = [spans[i].duration for i in separations]
    backtracked = sum(1 for row in solved.record.rows if row.case == "II")

    metrics = {
        "oracles.gradient.calls": (calls("oracles.gradient"), "count"),
        "oracles.gradient.self_s": (self_s("oracles.gradient"), "s"),
        "oracles.value.calls": (calls("oracles.value"), "count"),
        "oracles.value.self_s": (self_s("oracles.value"), "s"),
        "line_search.calls": (calls("line_search"), "count"),
        "line_search.self_s": (self_s("line_search"), "s"),
        "line_search.trials": (total("line_search", "trials"), "count"),
        "line_search.first_accept_ratio": (
            sum(1 for i in by_name["line_search"]
                if spans[i].attrs["trials"] == 1) / iterations, "ratio"),
        "linear_solver.calls": (calls("linear_solver"), "count"),
        "linear_solver.self_s": (self_s("linear_solver"), "s"),
        "linear_solver.iterations": (total("linear_solver", "iterations"),
                                     "count"),
        "linear_solver.matvecs": (total("linear_solver", "matvecs"),
                                  "count"),
        "learner.calls": (calls("learner"), "count"),
        "learner.self_s": (self_s("learner"), "s"),
        "learner.matvecs": (total("learner", "matvecs")
                            - total("separation", "matvecs"), "count"),
        "separation.calls": (len(separations), "count"),
        "separation.self_s": (self_s("separation"), "s"),
        "separation.matvecs": (total("separation", "matvecs"), "count"),
        "separation.fine_ratio": (
            (branches["fine_inside"] + branches["fine_separated"]) / n_sep,
            "ratio"),
        "separation.separated_ratio": (
            (branches["coarse_separated"] + branches["fine_separated"])
            / n_sep, "ratio"),
        "separation.call_s": (statistics.median(call_s) if call_s
                              else 0.0, "s"),
        "separation.eigvalsh_ref_s": (statistics.median(eigvalsh)
                                      if eigvalsh else 0.0, "s"),
        "separation.lanczos.calls": (calls("separation.lanczos"), "count"),
        "separation.lanczos.self_s": (self_s("separation.lanczos"), "s"),
        "separation.lanczos.steps": (total("separation.lanczos", "steps"),
                                     "count"),
        "solver.self_s": (self_s("solver"), "s"),
        "solver.case_II_ratio": (backtracked / iterations, "ratio"),
    }
    for branch in ("coarse_inside", "coarse_separated", "fine_inside",
                   "fine_separated"):
        metrics[f"separation.branch.{branch}"] = (branches[branch], "count")
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path) -> WorkloadRun:
    run = WorkloadRun(workload, seed, work_dir)
    try:
        if run.prepare():
            if trace:
                run.per_layer(seconds)
            else:
                run.end_to_end(seconds)
    except GateError as exc:
        run.out.problems.append(str(exc))
    fails = run.out.failed
    run.out.notes.append(f"fail_share {fails / max(run.out.attempted, 1):g} "
                         f"ratio ({fails} of {run.out.attempted} solves)")
    return run
