"""Snapshot the repository benchmark into one committed BENCH_<tag>.json.

Run from the repository root:

    python3 tools/bench_snapshot.py                  # BENCH_<short HEAD>.json
    python3 tools/bench_snapshot.py --root ../parent # BENCH_<its short HEAD>.json
    python3 tools/bench_snapshot.py --compare BENCH_a.json BENCH_b.json
    python3 tools/bench_snapshot.py --paired PARENT [--pairs N]
                                    [--workloads W ...] [--tiny]

A snapshot runs ``perfbench/run.py --seed 1 --seconds 20 --trace {0,1}`` on
the paper, tall and wide workloads inside ``--root`` (the git checkout whose
``src`` is measured), one run at a time, and merges the six
``.perfbench/<workload>-seed1-trace{0,1}.json`` results (metrics, environment,
notes, problems) into one file.  It also keeps the aqnpe trace CSV that the
trace-1 run writes: a SHA-256 per column and the ``f`` column itself, so two
snapshots show which columns of the trace moved and by how much.

It then adds a counts ladder, computed in this process through the
library's public API on the same instances (perfbench's ``workloads`` and
``measure.setup``, imported from ``--root`` and not edited), seed 1, with
one BLAS thread as perfbench pins it (its ``run.BLAS_THREAD_VARIABLES``):

* for aqnpe at the workload's pinned rho and for NAG, iterations and
  gradient queries to objective gaps 1e-4, 1e-6, 1e-8 and 1e-10, next to
  d ln d;
* the last weight A_K of the pinned-rho aqnpe solve, the A that ``solve``'s
  observer reports at the 1e-8 row, for the paper's certificate
  f(x_K) - f* <= ||z0 - x*||^2 / (2 A_K);
* for aqnpe at rho = 1e-12, 1/128, 1/16, 1/4 and 1, iterations, gradient
  queries and matvecs to gap 1e-8;
* for NAG and BFGS, the SHA-256 of the ``write_trace_csv`` output of a solve
  run to its first iteration at gap 1e-8, so a change to the baselines shows
  byte identity of their traces, as the aqnpe trace's digests show its own.

Counts are deterministic, so the ladder repeats nothing.  Each count comes
from the first trace row at or below the gap, with f* = f(x*), x* from the
library's ``qnprox.selftest.reference_minimizer`` started at zeros; a solve
that does not reach a gap within 20000 iterations records null.

It also records three simplicity counts of ``--root``: the lines of the
``.py`` files under ``src/``, the names in ``qnprox.__all__``, and the
fields of ``SolverConfig`` and ``BaselineConfig`` together.

The snapshot is written to ``BENCH_<tag>.json`` in the current directory,
the tag being the root's short HEAD, with ``-dirty`` when its ``src`` or
``perfbench`` has uncommitted changes.

``--paired PARENT`` times a change against its parent.  It checks the
revision PARENT out with ``git worktree add`` into a temporary directory,
then runs ``perfbench/run.py --seed 1 --seconds 20 --trace 0`` N times
(``--pairs``, default 4) in PARENT's checkout and in ``--root``'s, in
alternating order (parent first on even pairs), per workload, and removes
the worktree on exit.  Both modes run perfbench through one runner,
:func:`run_one`, which reads the ``.perfbench`` result file of each run.
Per time metric it prints the median, the quartiles and the minimum of
each side, and the number of pairs where the change was lower; per other
metric the two values, after checking that every run of a side gave the
same one.  The block is written as ``paired`` into
``BENCH_<tag>.json``, joining the snapshot there if one exists.
``--tiny`` runs perfbench's tiny instances with ``--seconds 0`` and writes
nothing.

``--compare`` prints the simplicity counts before -> after (``-`` for a
snapshot without them), then, per workload, each end-to-end metric before
and after with its ratio, the per-layer metrics of LAYER_METRICS from the
trace-1 run, the trace columns whose digests differ, the largest relative
change of ``f``, the ladder's f* with its relative change and its counts
(before -> after where both files have a ladder), the baselines whose trace
digests differ, and the after file's paired block.  It runs nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("paper", "tall", "wide")
SEED = 1
SECONDS = 20
RESULT_KEYS = ("correct", "attempted", "failed", "metrics", "environment",
               "notes", "problems")
LADDER_GAPS = (1e-4, 1e-6, 1e-8, 1e-10)
RHO_GAP = 1e-8
BASELINE_TRACE_GAP = 1e-8
RHOS = {"1e-12": 1e-12, "1/128": 1.0 / 128.0, "1/16": 1.0 / 16.0,
        "1/4": 1.0 / 4.0, "1": 1.0}
LADDER_MAX_ITERS = 20000
# trace-1 metrics that --compare prints: where the solves' products and the
# line search's time go, and what the separation oracle did.  perfbench
# reads a Lanczos call's steps as its matvecs - 2, for two Rayleigh
# quotients per read-out that the oracle no longer takes, so in snapshots
# taken since, lanczos.steps reads 2 per call low: the steps are
# lanczos.steps + 2 lanczos.calls, which is separation.matvecs
LAYER_METRICS = ("linear_solver.calls", "linear_solver.iterations",
                 "linear_solver.matvecs", "linear_solver.self_s",
                 "line_search.self_s",
                 "separation.calls", "separation.branch.coarse_inside",
                 "separation.branch.coarse_separated",
                 "separation.branch.fine_inside",
                 "separation.branch.fine_separated",
                 "separation.lanczos.calls", "separation.lanczos.steps",
                 "separation.lanczos.self_s", "separation.matvecs")
SIMPLICITY_COUNTS = ("src_lines", "public_names", "config_fields")
DEFAULT_PAIRS = 4
# run in a fresh interpreter on --root's src, so the counts are that
# checkout's, whatever this process has imported
PUBLIC_SURFACE = (
    "import dataclasses, json, qnprox\n"
    "print(json.dumps([len(qnprox.__all__),\n"
    "                  len(dataclasses.fields(qnprox.SolverConfig))\n"
    "                  + len(dataclasses.fields(qnprox.BaselineConfig))]))\n")


def git_short_head(root: Path) -> str:
    return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def git_dirty(root: Path) -> bool:
    status = subprocess.run(["git", "status", "--porcelain", "--", "src",
                             "perfbench"],
                            cwd=root, check=True, capture_output=True,
                            text=True).stdout
    return bool(status.strip())


def trace_summary(csv_path: Path) -> dict:
    """Per-column SHA-256 of an aqnpe trace CSV (after its ``#`` metadata
    lines), and its ``f`` column."""
    header, *rows = [line.split(",")
                     for line in csv_path.read_text().splitlines()
                     if not line.startswith("#")]
    columns = dict(zip(header, zip(*rows)))
    return {
        "rows": len(columns["f"]),
        "column_sha256": {
            name: hashlib.sha256("\n".join(column).encode()).hexdigest()
            for name, column in columns.items()},
        "f": [float(v) for v in columns["f"]],
    }


def run_one(checkout: Path, workload: str, trace: int,
            tiny: bool = False) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: the RESULT_KEYS of the
    result file it writes, its ``exit_code``, and on trace 1 the
    :func:`trace_summary` of its aqnpe trace CSV.  Those files are unlinked
    first: a run that does not write them raises RuntimeError, naming the
    command, its exit code and the missing files, rather than read an
    earlier run's."""
    seconds = 0 if tiny else SECONDS
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds),
               "--trace", str(trace), *(["--tiny"] if tiny else [])]
    work_dir = checkout / ".perfbench"
    stem = f"{workload}{'-tiny' if tiny else ''}-seed{SEED}-trace{trace}"
    outputs = [work_dir / f"{stem}.json"]
    if trace:
        outputs.append(work_dir / f"{workload}-aqnpe-untraced.csv")
    for path in outputs:
        path.unlink(missing_ok=True)
    print(f"+ ({checkout}) " + " ".join(command[1:]), file=sys.stderr,
          flush=True)
    code = subprocess.run(command, cwd=checkout,
                          stdout=subprocess.DEVNULL).returncode
    missing = [path.name for path in outputs if not path.exists()]
    if missing:
        raise RuntimeError(f"{' '.join(command[1:])} in {checkout} exited "
                           f"{code} and wrote no {' and no '.join(missing)}")
    result = json.loads(outputs[0].read_text())
    entry = {key: result[key] for key in RESULT_KEYS}
    entry["exit_code"] = code
    if trace:
        entry["aqnpe_trace"] = trace_summary(outputs[1])
    return entry


def simplicity(root: Path) -> dict:
    """The simplicity counts of ``root`` (module docstring)."""
    src_lines = sum(len(path.read_text().splitlines())
                    for path in (root / "src").rglob("*.py"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    public_names, config_fields = json.loads(subprocess.run(
        [sys.executable, "-c", PUBLIC_SURFACE], cwd=root, env=env,
        check=True, capture_output=True, text=True).stdout)
    return {"src_lines": src_lines, "public_names": public_names,
            "config_fields": config_fields}


def snapshot(root: Path, tag: str) -> dict:
    runs = {workload: {f"trace{trace}": run_one(root, workload, trace)
                       for trace in (0, 1)}
            for workload in WORKLOADS}
    return {"tag": tag, "seed": SEED, "seconds": SECONDS,
            "command": "python3 perfbench/run.py --workload W "
                       f"--seed {SEED} --seconds {SECONDS} --trace T",
            "simplicity": simplicity(root), "runs": runs}


def counts_to_gaps(run, first_cap: int, f_star: float, gaps) -> dict:
    """Counts at the first trace row whose gap is at most each of ``gaps``,
    from ``run(max_iters)``; the cap starts at ``first_cap`` and doubles
    until the smallest gap is reached, the solve stops early, or the cap
    reaches LADDER_MAX_ITERS.  A gap never reached maps to None."""
    cap = first_cap
    while True:
        rows = run(cap).rows
        if (rows and rows[-1].f_value - f_star <= min(gaps)
                or len(rows) < cap or cap >= LADDER_MAX_ITERS):
            break
        cap = min(2 * cap, LADDER_MAX_ITERS)
    counts = {}
    for gap in gaps:
        row = next((row for row in rows if row.f_value - f_star <= gap),
                   None)
        counts[f"{gap:g}"] = row and {"iters": row.iteration,
                                      "grad_queries": row.grad_queries,
                                      "matvecs": row.matvecs}
    return counts


def ladder(root: Path, tiny: bool = False) -> dict:
    """The counts ladder (module docstring) on the perfbench workloads of
    ``root``, at perfbench's ``--tiny`` sizes when ``tiny``."""
    for path in ("perfbench", "src"):
        sys.path.insert(0, str(root / path))
    import numpy as np
    from qnprox import (BaselineConfig, SolverConfig, bfgs_solve, nag_solve,
                        solve, write_trace_csv)
    from qnprox.selftest import reference_minimizer
    import measure
    import workloads

    out = {"seed": SEED, "gaps": [f"{gap:g}" for gap in LADDER_GAPS],
           "rho_gap": f"{RHO_GAP:g}", "workloads": {}}
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]
        if tiny:
            workload = workloads.tiny(workload)
        plan = workloads.seed_plan(workload, SEED)
        objective, _, _ = measure.setup(workload, plan)
        x0 = np.zeros(workload.d)
        f_star = float(objective.value(reference_minimizer(objective, x0)))

        def aqnpe(rho, observer=None):
            return lambda cap: solve(objective, x0, x0.copy(), SolverConfig(
                max_iters=cap, rho=rho, seed=plan.solver_seed), observer)

        weights = []   # A after each iteration of the last pinned-rho solve

        def pinned(cap):
            weights.clear()
            return aqnpe(workload.rho, lambda r: weights.append(r.A))(cap)

        def nag(cap):
            return nag_solve(objective, x0, BaselineConfig(max_iters=cap))

        def bfgs(cap):
            return bfgs_solve(objective, x0, BaselineConfig(max_iters=cap))

        def trace_digest(run, cap):
            """The iterations to BASELINE_TRACE_GAP and the SHA-256 of the
            trace CSV of ``run`` stopped there, or None if never reached."""
            gap = f"{BASELINE_TRACE_GAP:g}"
            rung = counts_to_gaps(run, cap, f_star, (BASELINE_TRACE_GAP,))[gap]
            if rung is None:
                return None
            with tempfile.TemporaryDirectory() as scratch:
                path = Path(scratch) / "trace.csv"
                write_trace_csv(run(rung["iters"]), path)
                return {"iters": rung["iters"],
                        "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

        caps = workload.caps
        print(f"+ ladder {name}", file=sys.stderr, flush=True)
        counts = counts_to_gaps(pinned, caps["aqnpe"], f_star, LADDER_GAPS)
        rung = counts[f"{RHO_GAP:g}"]
        out["workloads"][name] = {
            "n": workload.n, "d": workload.d,
            "d_ln_d": workload.d * math.log(workload.d),
            "rho": next(label for label, rho in RHOS.items()
                        if rho == workload.rho),
            "f_star": f_star,
            "aqnpe": counts,
            "A_K": rung and weights[rung["iters"] - 1],
            "nag": counts_to_gaps(nag, caps["nag"], f_star, LADDER_GAPS),
            "aqnpe_rho": {
                label: counts_to_gaps(aqnpe(rho), caps["aqnpe"], f_star,
                                      (RHO_GAP,))[f"{RHO_GAP:g}"]
                for label, rho in RHOS.items()},
            "baseline_traces": {"nag": trace_digest(nag, caps["nag"]),
                                "bfgs": trace_digest(bfgs, caps["bfgs"])},
        }
    return out


def spread(values: list) -> dict:
    """Median, quartiles and minimum of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        q1 = median = q3 = ordered[0]
    else:
        q1, median, q3 = statistics.quantiles(ordered, n=4,
                                              method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": ordered[0]}


def paired_summary(parent: list, change: list) -> dict:
    """One workload's paired block from the parent's and the change's
    results, pair i being ``parent[i]`` and ``change[i]``: per time metric
    (unit ``s``) each side's values and :func:`spread`, and the pairs where
    the change was lower; per other metric the first value of each side,
    with ``unequal`` naming the metrics whose value differs between two
    runs of one side; and the runs that did not exit 0."""
    times, counts, unequal = {}, {}, []
    for name, entry in parent[0]["metrics"].items():
        sides = {side: [run["metrics"][name]["value"] for run in runs]
                 for side, runs in (("parent", parent), ("change", change))}
        if entry["unit"] == "s":
            times[name] = {
                **{side: {**spread(v), "values": v}
                   for side, v in sides.items()},
                "lower": sum(b < a for a, b in zip(sides["parent"],
                                                   sides["change"]))}
        else:
            counts[name] = {side: v[0] for side, v in sides.items()}
            if any(len(set(v)) > 1 for v in sides.values()):
                unequal.append(name)
    failed = {side: sum(run["exit_code"] != 0 for run in runs)
              for side, runs in (("parent", parent), ("change", change))}
    return {"time": times, "counts": counts, "unequal": unequal,
            "failed_runs": failed}


def paired(root: Path, parent: str, pairs: int, workloads,
           tiny: bool = False) -> dict:
    """The paired block (module docstring) of ``root`` against the
    revision ``parent``, checked out with ``git worktree add`` into a
    temporary directory that is removed on exit."""
    commit = subprocess.run(["git", "rev-parse", "--verify",
                             f"{parent}^{{commit}}"], cwd=root, check=True,
                            capture_output=True, text=True).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="bench-paired-"))
    checkout = scratch / "parent"
    subprocess.run(["git", "worktree", "add", "--detach", str(checkout),
                    commit], cwd=root, check=True, capture_output=True)
    try:
        blocks = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(pairs):
                order = [("parent", checkout), ("change", root)]
                for side, path in order[::-1] if i % 2 else order:
                    runs[side].append(run_one(path, workload, 0, tiny))
            blocks[workload] = paired_summary(runs["parent"], runs["change"])
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(checkout)], cwd=root, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root,
                       capture_output=True)
    return {"parent": parent, "parent_commit": commit, "pairs": pairs,
            "seed": SEED, "seconds": 0 if tiny else SECONDS, "tiny": tiny,
            "command": "python3 perfbench/run.py --workload W "
                       f"--seed {SEED} --seconds "
                       f"{0 if tiny else SECONDS} --trace 0"
                       + (" --tiny" if tiny else ""),
            "workloads": blocks}


def print_paired(block: dict) -> None:
    """Per workload and time metric ``parent median [q1, q3] min ->
    change median [q1, q3] min``, the ratio of the medians and the pairs
    where the change was lower; then the other metrics, parent -> change."""
    print(f"\npaired: {block['parent']} ({block['parent_commit'][:7]}) -> "
          f"change, {block['pairs']} pairs in alternating order, "
          f"{block['command']}")
    for workload, entry in block["workloads"].items():
        width = max(map(len, (*entry["time"], *entry["counts"])))
        print(f"  {workload}")
        for name, t in entry["time"].items():
            a, b = t["parent"], t["change"]
            cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                     f"min {s['min']:.4g}" for s in (a, b)]
            ratio = f"x{b['median'] / a['median']:.3f}" if a["median"] else "-"
            print(f"    {name:{width}s} {cells[0]} -> {cells[1]} {ratio} "
                  f"lower {t['lower']}/{block['pairs']}")
        for name, c in entry["counts"].items():
            print(f"    {name:{width}s} {c['parent']:.6g} -> {c['change']:.6g}")
        print(f"    unequal within a side: {entry['unequal'] or 'none'}; "
              f"runs that failed: {entry['failed_runs']}")


def print_ladder(before, after: dict) -> None:
    """The ladder's f*, ``before -> after`` with the relative change, and its
    counts as iterations/gradient queries per gap (with /matvecs in the rho
    row), ``before -> after`` where they differ."""
    def cell(entry, keys):
        return "-" if entry is None else "/".join(str(entry[k]) for k in keys)

    print("\nladder: iterations/gradient queries to each gap; rho row to "
          f"{after['rho_gap']}, with matvecs")
    for name, new in after["workloads"].items():
        old = before["workloads"][name] if before else new
        print(f"  {name} (d ln d = {new['d_ln_d']:.0f}, pinned rho "
              f"{new['rho']})")
        a, b = old["f_star"], new["f_star"]
        print(f"    f*     {a!r} -> {b!r}, relative change {(b - a) / a:.3g}")
        for label, key, columns in (
                ("aqnpe", "aqnpe", ("iters", "grad_queries")),
                ("nag", "nag", ("iters", "grad_queries")),
                ("rho", "aqnpe_rho", ("iters", "grad_queries", "matvecs"))):
            cells = []
            for point, entry in new[key].items():
                a, b = cell(old[key].get(point), columns), cell(entry, columns)
                cells.append(f"{point} {b if a == b else f'{a} -> {b}'}")
            print(f"    {label:6s} " + ", ".join(cells))


def metric_line(name: str, before: dict, after: dict, width: int) -> str:
    """``name before -> after xratio`` for two runs' metrics, the name
    padded to ``width``; a metric one run lacks reads ``-``, the ratio of
    two zeros is x1.000, and a ratio to a zero ``-``."""
    a, b = (metrics[name]["value"] if name in metrics else None
            for metrics in (before, after))
    if a is None or b is None:
        return (f"  {name:{width}s} {'-' if a is None else f'{a:.6g}':>14s} "
                f"-> {'-' if b is None else f'{b:.6g}'}")
    if a:
        ratio = f"x{b / a:.3f}"
    else:
        ratio = "x1.000" if b == 0 else "-"
    return f"  {name:{width}s} {a:>14.6g} -> {b:<14.6g} {ratio}"


def compare(before: dict, after: dict) -> None:
    print(f"{before['tag']} -> {after['tag']}")
    width = max(map(len, (*SIMPLICITY_COUNTS, *LAYER_METRICS, *(
        name for run in before["runs"].values()
        for name in run["trace0"]["metrics"]))))
    old, new = before.get("simplicity", {}), after.get("simplicity", {})
    print("simplicity:")
    for name in SIMPLICITY_COUNTS:
        print(f"  {name:{width}s} {old.get(name, '-'):>14} -> "
              f"{new.get(name, '-')}")
    for workload in WORKLOADS:
        old, new = before["runs"][workload], after["runs"][workload]
        print(f"\n{workload}")
        for name in old["trace0"]["metrics"]:
            print(metric_line(name, old["trace0"]["metrics"],
                              new["trace0"]["metrics"], width))
        print("  per layer (trace 1):")
        for name in LAYER_METRICS:
            print(metric_line(name, old["trace1"]["metrics"],
                              new["trace1"]["metrics"], width))
        old_trace = old["trace1"]["aqnpe_trace"]
        new_trace = new["trace1"]["aqnpe_trace"]
        moved = [name for name, digest in old_trace["column_sha256"].items()
                 if new_trace["column_sha256"].get(name) != digest]
        print(f"  aqnpe trace columns that differ: {moved or 'none'}")
        if old_trace["rows"] == new_trace["rows"]:
            change = max(abs(b - a) / abs(a) for a, b in
                         zip(old_trace["f"], new_trace["f"]))
            print(f"  largest relative change of f: {change:.3g}")
        else:
            print(f"  trace rows: {old_trace['rows']} -> {new_trace['rows']}")
        digests = [snapshot.get("ladder", {}).get("workloads", {})
                   .get(workload, {}).get("baseline_traces")
                   for snapshot in (before, after)]
        if None in digests:
            moved = "-"
        else:
            moved = [method for method, digest in digests[1].items()
                     if digests[0].get(method) != digest] or "none"
        print(f"  baseline trace CSVs that differ: {moved}")
    if "ladder" in after:
        print_ladder(before.get("ladder"), after["ladder"])
    if "paired" in after:
        print_paired(after["paired"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="checkout to measure (default: the current "
                             "directory)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BEFORE", "AFTER"))
    parser.add_argument("--paired", metavar="PARENT",
                        help="time --root against this git revision")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--tiny", action="store_true",
                        help="with --paired: perfbench's tiny instances, "
                             "nothing written")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        compare(before, after)
        return 0
    root = args.root.resolve()
    tag = git_short_head(root) + ("-dirty" if git_dirty(root) else "")
    out = Path(f"BENCH_{tag}.json")
    if args.paired:
        block = paired(root, args.paired, args.pairs, args.workloads,
                       args.tiny)
        print_paired(block)
        if not args.tiny:
            data = json.loads(out.read_text()) if out.exists() else {
                "tag": tag}
            data["paired"] = block
            out.write_text(json.dumps(data, indent=1) + "\n")
            print(f"wrote {out}", file=sys.stderr)
        return 0
    data = snapshot(root, tag)
    sys.path.insert(0, str(root / "perfbench"))
    from run import BLAS_THREAD_VARIABLES
    for variable in BLAS_THREAD_VARIABLES:   # before the ladder loads numpy
        os.environ[variable] = "1"
    data["ladder"] = ladder(root)
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    failed = [f"{w}/{t}" for w, runs in data["runs"].items()
              for t, entry in runs.items() if entry["exit_code"] != 0]
    if failed:
        print(f"perfbench failed on: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
