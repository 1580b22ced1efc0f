"""tools/bench_snapshot.py reads the trace CSVs the library writes, never
merges an output left by an earlier run, and records in its counts ladder
what a direct solve counts."""

import hashlib
import importlib.util
import json
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

from qnprox import (BaselineConfig, SolverConfig, bfgs_solve, nag_solve,
                    solve, write_trace_csv)
from qnprox.selftest import make_logistic

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "bench_snapshot.py"
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


@pytest.mark.parametrize("trace", [0, 1])
def test_run_one_refuses_a_stale_trace_csv(tmp_path, monkeypatch, trace):
    """A run that does not write one of its outputs fails, even when an
    earlier run's file is lying in .perfbench: the result file on trace 0,
    the aqnpe trace CSV on trace 1, where the result file is written."""
    results = tmp_path / ".perfbench"
    results.mkdir()
    result = results / f"tall-seed{bench_snapshot.SEED}-trace{trace}.json"
    stale = results / "tall-aqnpe-untraced.csv" if trace else result
    stale.write_text("iter,f\n0,1.0\n")

    def perfbench_without_output(command, cwd, stdout):
        if trace:
            result.write_text(json.dumps(
                {key: None for key in bench_snapshot.RESULT_KEYS}))
        return subprocess.CompletedProcess(command, 1)

    monkeypatch.setattr(bench_snapshot.subprocess, "run",
                        perfbench_without_output)
    with pytest.raises(RuntimeError, match=rf"--trace {trace} in .* exited 1 "
                                           rf"and wrote no {stale.name}$"):
        bench_snapshot.run_one(tmp_path, "tall", trace)
    assert not stale.exists()


@pytest.fixture(scope="module")
def tiny_ladder():
    return bench_snapshot.ladder(ROOT, tiny=True)


def test_ladder_counts_grow_as_the_gap_shrinks(tiny_ladder):
    assert list(tiny_ladder["workloads"]) == list(bench_snapshot.WORKLOADS)
    for entry in tiny_ladder["workloads"].values():
        assert entry["d_ln_d"] == entry["d"] * math.log(entry["d"])
        for method in ("aqnpe", "nag"):
            counts = [entry[method][gap] for gap in tiny_ladder["gaps"]]
            assert None not in counts
            for key in ("iters", "grad_queries"):
                column = [c[key] for c in counts]
                assert column == sorted(column)
        # NAG: one gradient query per iteration
        assert all(c["grad_queries"] == c["iters"]
                   for c in entry["nag"].values())
        assert list(entry["aqnpe_rho"]) == list(bench_snapshot.RHOS)
        # the pinned rho's row is the 1e-8 rung of the gap ladder, from a
        # solve with another iteration cap
        assert (entry["aqnpe_rho"][entry["rho"]]
                == entry["aqnpe"][tiny_ladder["rho_gap"]])


def test_ladder_rung_is_the_first_iteration_at_the_gap(tiny_ladder):
    # a max_iters = K solve on the tiny tall instance ends at the gap, and
    # its row K - 1 is above it
    import measure
    import workloads

    workload = workloads.tiny(workloads.WORKLOADS["tall"])
    plan = workloads.seed_plan(workload, bench_snapshot.SEED)
    objective, _, _ = measure.setup(workload, plan)
    entry = tiny_ladder["workloads"]["tall"]
    rung = entry["aqnpe"]["1e-06"]
    x0 = np.zeros(workload.d)
    rows = solve(objective, x0, x0.copy(), SolverConfig(
        max_iters=rung["iters"], rho=workload.rho,
        seed=plan.solver_seed)).rows
    assert rows[-1].f_value - entry["f_star"] <= 1e-6
    assert rows[-2].f_value - entry["f_star"] > 1e-6
    assert (rows[-1].grad_queries, rows[-1].matvecs) == (
        rung["grad_queries"], rung["matvecs"])
    # A_K is the A that the observer reports at the 1e-8 row
    reports = []
    solve(objective, x0, x0.copy(), SolverConfig(
        max_iters=entry["aqnpe"]["1e-08"]["iters"], rho=workload.rho,
        seed=plan.solver_seed), observer=reports.append)
    assert entry["A_K"] == reports[-1].A


def test_ladder_digests_are_the_baseline_trace_csvs(tiny_ladder, tmp_path):
    # each digest is that of the trace CSV a direct solve writes when it is
    # capped at the first iteration at gap 1e-8
    import measure
    import workloads

    workload = workloads.tiny(workloads.WORKLOADS["paper"])
    plan = workloads.seed_plan(workload, bench_snapshot.SEED)
    objective, _, _ = measure.setup(workload, plan)
    entry = tiny_ladder["workloads"]["paper"]
    digests = entry["baseline_traces"]
    assert digests["nag"]["iters"] == entry["nag"]["1e-08"]["iters"]
    x0 = np.zeros(workload.d)
    for method, solver in (("nag", nag_solve), ("bfgs", bfgs_solve)):
        record = solver(objective, x0,
                        BaselineConfig(max_iters=digests[method]["iters"]))
        gaps = [row.f_value - entry["f_star"] for row in record.rows]
        assert gaps[-1] <= 1e-8 and all(gap > 1e-8 for gap in gaps[:-1])
        path = tmp_path / f"{method}.csv"
        write_trace_csv(record, path)
        assert digests[method]["sha256"] == hashlib.sha256(
            path.read_bytes()).hexdigest()


def fake_snapshot(tag, linear_matvecs, layer_keys):
    """A snapshot with one end-to-end metric per workload, the trace-1
    per-layer metrics named in ``layer_keys``, and a one-row aqnpe trace."""
    def metrics(names, value):
        return {name: {"value": value, "unit": "count"} for name in names}

    run = {
        "trace0": {"metrics": metrics(["aqnpe.matvecs"], 6465)},
        "trace1": {
            "metrics": {**metrics(layer_keys, 7),
                        **metrics(["linear_solver.matvecs"], linear_matvecs)},
            "aqnpe_trace": {"rows": 1, "column_sha256": {"f": "0"},
                            "f": [1.0]}},
    }
    return {"tag": tag,
            "runs": {workload: run for workload in bench_snapshot.WORKLOADS}}


def test_compare_prints_the_per_layer_metrics(capsys):
    layers = [name for name in bench_snapshot.LAYER_METRICS
              if name != "separation.matvecs"]
    before = fake_snapshot("parent", 4610, layers)
    after = fake_snapshot("change", 2224, bench_snapshot.LAYER_METRICS)
    bench_snapshot.compare(before, after)
    out = capsys.readouterr().out.splitlines()
    assert {"linear_solver.calls", "linear_solver.iterations",
            "linear_solver.matvecs", "linear_solver.self_s",
            "line_search.self_s", "separation.lanczos.calls",
            "separation.matvecs"} <= set(bench_snapshot.LAYER_METRICS)
    # reads 0 on every workload since the learner takes no product of its own
    assert "learner.matvecs" not in bench_snapshot.LAYER_METRICS
    for workload in bench_snapshot.WORKLOADS:
        block = out[out.index(workload):]
        block = block[:block.index("  aqnpe trace columns that differ: "
                                   "none")]
        layer = block[block.index("  per layer (trace 1):") + 1:]
        assert [line.split()[0] for line in layer] == list(
            bench_snapshot.LAYER_METRICS)
        assert layer[bench_snapshot.LAYER_METRICS.index(
            "linear_solver.matvecs")].split() == [
                "linear_solver.matvecs", "4610", "->", "2224", "x0.482"]
        # a metric the older snapshot lacks reads "-"
        assert layer[-1].split() == ["separation.matvecs", "-", "->", "7"]


def test_simplicity_counts_read_the_root_checkout(tmp_path):
    # a stand-in checkout whose package differs from the one imported here
    package = tmp_path / "src" / "qnprox"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from dataclasses import dataclass\n"
        "from .extra import BaselineConfig\n"
        "__all__ = ['SolverConfig', 'BaselineConfig']\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class SolverConfig:\n"
        "    x: int = 0\n")
    (package / "extra.py").write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class BaselineConfig:\n"
        "    a: int = 0\n"
        "    b: int = 0\n")
    assert bench_snapshot.simplicity(tmp_path) == {
        "src_lines": 8 + 7, "public_names": 2, "config_fields": 3}


def test_simplicity_counts_of_this_checkout():
    import dataclasses

    import qnprox

    counts = bench_snapshot.simplicity(ROOT)
    assert counts["src_lines"] == sum(
        len(path.read_text().splitlines())
        for path in (ROOT / "src" / "qnprox").glob("*.py"))
    assert counts["public_names"] == len(qnprox.__all__)
    assert counts["config_fields"] == (
        len(dataclasses.fields(qnprox.SolverConfig))
        + len(dataclasses.fields(qnprox.BaselineConfig)))


def test_compare_prints_the_simplicity_counts(capsys):
    before = fake_snapshot("parent", 1, [])
    after = fake_snapshot("change", 1, [])
    after["simplicity"] = {"src_lines": 2669, "public_names": 21,
                           "config_fields": 14}
    bench_snapshot.compare(before, after)
    out = capsys.readouterr().out.splitlines()
    block = out[out.index("simplicity:") + 1:][:3]
    # a snapshot without the counts reads "-"
    assert [line.split() for line in block] == [
        ["src_lines", "-", "->", "2669"], ["public_names", "-", "->", "21"],
        ["config_fields", "-", "->", "14"]]
    bench_snapshot.compare(after, after)
    out = capsys.readouterr().out.splitlines()
    assert out[out.index("simplicity:") + 1].split() == [
        "src_lines", "2669", "->", "2669"]


def test_compare_ratios_of_zero_and_aligned_columns(capsys):
    before = fake_snapshot("parent", 0, bench_snapshot.LAYER_METRICS)
    after = fake_snapshot("change", 0, bench_snapshot.LAYER_METRICS)
    for snapshot, value in ((before, 0), (after, 5)):
        snapshot["runs"]["tall"] = json.loads(json.dumps(
            snapshot["runs"]["tall"]))
        metrics = snapshot["runs"]["tall"]["trace1"]["metrics"]
        metrics["separation.calls"]["value"] = 0
        metrics["separation.matvecs"]["value"] = value
    bench_snapshot.compare(before, after)
    out = capsys.readouterr().out.splitlines()
    block = out[out.index("tall"):]
    layer = block[block.index("  per layer (trace 1):") + 1:][
        :len(bench_snapshot.LAYER_METRICS)]
    rows = {line.split()[0]: line for line in layer}
    # 0 -> 0 is unchanged, and 0 -> 5 has no ratio
    assert rows["linear_solver.matvecs"].split()[1:] == [
        "0", "->", "0", "x1.000"]
    assert rows["separation.calls"].split()[1:] == ["0", "->", "0", "x1.000"]
    assert rows["separation.matvecs"].split()[1:] == ["0", "->", "5", "-"]
    # every name fits its column, so the arrows line up
    assert len({line.index(" -> ") for line in layer}) == 1


def git_worktrees():
    return subprocess.run(["git", "worktree", "list", "--porcelain"],
                          cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


@pytest.mark.skipif(not (ROOT / ".git").exists(),
                    reason="--paired checks the parent out with git worktree")
def test_paired_block_at_tiny_sizes(capsys):
    # one pair of tiny runs of HEAD against this checkout: the block's
    # structure, not its times, and the worktree is gone afterwards
    before = git_worktrees()
    block = bench_snapshot.paired(ROOT, "HEAD", 1, ("paper", "tall"),
                                  tiny=True)
    assert git_worktrees() == before
    assert (block["pairs"], block["tiny"], block["seconds"]) == (1, True, 0)
    assert len(block["parent_commit"]) == 40
    assert list(block["workloads"]) == ["paper", "tall"]
    for entry in block["workloads"].values():
        assert set(entry["time"]) == {"setup_s", "aqnpe.solve_s",
                                      "nag.solve_s", "bfgs.solve_s"}
        for t in entry["time"].values():
            for side in ("parent", "change"):
                s = t[side]
                assert len(s["values"]) == 1
                assert s["min"] == s["q1"] == s["median"] == s["q3"] == \
                    s["values"][0]
            assert t["lower"] in (0, 1)
        assert {"aqnpe.iters", "aqnpe.grad_queries", "aqnpe.matvecs",
                "aqnpe.peak_mem_mb"} <= set(entry["counts"])
        assert entry["unequal"] == []
        assert entry["failed_runs"] == {"parent": 0, "change": 0}
    bench_snapshot.print_paired(block)
    out = capsys.readouterr().out.splitlines()
    assert sum(line.strip().startswith("aqnpe.solve_s") for line in out) == 2
    assert all(line.rstrip().endswith("/1") for line in out
               if "solve_s" in line)


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_is_a_usage_error(pairs, monkeypatch, capsys):
    # rejected before any git command, so no worktree is made
    def no_git(*args, **kwargs):
        raise AssertionError(f"ran {args[0]}")

    monkeypatch.setattr(bench_snapshot.subprocess, "run", no_git)
    with pytest.raises(SystemExit) as info:
        bench_snapshot.main(["--paired", "HEAD", "--pairs", pairs, "--tiny"])
    assert info.value.code == 2
    assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err


def test_paired_summary_counts_lower_pairs_and_unequal_counts():
    def result(seconds, iters):
        return {"exit_code": 0, "metrics": {
            "aqnpe.solve_s": {"value": seconds, "unit": "s"},
            "aqnpe.iters": {"value": iters, "unit": "count"}}}

    parent = [result(s, 10) for s in (1.0, 2.0, 3.0, 4.0)]
    change = [result(s, i) for s, i in ((0.5, 10), (2.5, 10), (2.0, 11),
                                        (3.0, 10))]
    block = bench_snapshot.paired_summary(parent, change)
    t = block["time"]["aqnpe.solve_s"]
    assert t["lower"] == 3
    assert t["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                           "min": 1.0, "values": [1.0, 2.0, 3.0, 4.0]}
    assert t["change"]["min"] == 0.5
    assert block["counts"] == {"aqnpe.iters": {"parent": 10, "change": 10}}
    assert block["unequal"] == ["aqnpe.iters"]


def test_compare_names_the_baseline_traces_that_moved(tiny_ladder, capsys):
    def digest_lines():
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("  baseline trace CSVs that differ: ")]

    before = fake_snapshot("parent", 1, [])
    after = fake_snapshot("change", 1, [])
    after["ladder"] = tiny_ladder
    bench_snapshot.compare(before, after)
    # a snapshot without digests reads "-"
    assert [line.split(": ")[1] for line in digest_lines()] == ["-"] * 3
    before["ladder"] = json.loads(json.dumps(tiny_ladder))
    before["ladder"]["workloads"]["tall"]["baseline_traces"]["bfgs"][
        "sha256"] = "0" * 64
    bench_snapshot.compare(before, after)
    assert [line.split(": ")[1] for line in digest_lines()] == [
        "none", "['bfgs']", "none"]
    # each workload's ladder f* prints before -> after, to the bit, with
    # its relative change
    f_star = tiny_ladder["workloads"]["tall"]["f_star"]
    before["ladder"]["workloads"]["tall"]["f_star"] = 2.0 * f_star
    bench_snapshot.compare(before, after)
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("    f* ")]
    assert lines[1] == ["f*", repr(2.0 * f_star), "->", repr(f_star) + ",",
                        "relative", "change", "-0.5"]
    paper = repr(tiny_ladder["workloads"]["paper"]["f_star"])
    assert lines[0] == ["f*", paper, "->", paper + ",", "relative", "change",
                        "0"]
