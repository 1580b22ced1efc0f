"""Snapshot the repository benchmark into one committed BENCH_<tag>.json.

Run from the repository root:

    python3 tools/bench_snapshot.py                  # BENCH_<short HEAD>.json
    python3 tools/bench_snapshot.py --root ../parent # BENCH_<its short HEAD>.json
    python3 tools/bench_snapshot.py --compare BENCH_a.json BENCH_b.json

A snapshot runs ``perfbench/run.py --seed 1 --seconds 20 --trace {0,1}`` on
the paper, tall and wide workloads inside ``--root`` (the git checkout whose
``src`` is measured), one run at a time, and merges the six
``.perfbench/<workload>-seed1-trace{0,1}.json`` results (metrics, environment,
notes, problems) into one file.  It also keeps the aqnpe trace CSV that the
trace-1 run writes: a SHA-256 per column and the ``f`` column itself, so two
snapshots show which columns of the trace moved and by how much.

The snapshot is written to ``BENCH_<tag>.json`` in the current directory,
the tag being the root's short HEAD, with ``-dirty`` when its ``src`` or
``perfbench`` has uncommitted changes.

``--compare`` prints, per workload, each end-to-end metric before and after
with its ratio, the trace columns whose digests differ, and the largest
relative change of ``f``.  It runs nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper", "tall", "wide")
SEED = 1
SECONDS = 20
RESULT_KEYS = ("correct", "attempted", "failed", "metrics", "environment",
               "notes", "problems")


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
    header, *rows = [line for line in csv_path.read_text().splitlines()
                     if not line.startswith("#")]
    names = header.split(",")
    columns = list(zip(*(row.split(",") for row in rows)))
    return {
        "rows": len(rows),
        "column_sha256": {
            name: hashlib.sha256("\n".join(column).encode()).hexdigest()
            for name, column in zip(names, columns)},
        "f": [float(v) for v in columns[names.index("f")]],
    }


def run_one(root: Path, workload: str, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS),
               "--trace", str(trace)]
    result_path = root / ".perfbench" / f"{workload}-seed{SEED}-trace{trace}.json"
    trace_path = root / ".perfbench" / f"{workload}-aqnpe-untraced.csv"
    outputs = [result_path, trace_path] if trace else [result_path]
    for path in outputs:
        path.unlink(missing_ok=True)   # never merge a stale result
    print("+ " + " ".join(command[1:]), file=sys.stderr, flush=True)
    code = subprocess.run(command, cwd=root, stdout=subprocess.DEVNULL).returncode
    for path in outputs:
        if not path.exists():
            raise RuntimeError(f"{' '.join(command[1:])} exited {code} and "
                               f"wrote no {path.name}")
    result = json.loads(result_path.read_text())
    entry = {key: result[key] for key in RESULT_KEYS}
    entry["exit_code"] = code
    if trace:
        entry["aqnpe_trace"] = trace_summary(trace_path)
    return entry


def snapshot(root: Path, tag: str) -> dict:
    runs = {workload: {f"trace{trace}": run_one(root, workload, trace)
                       for trace in (0, 1)}
            for workload in WORKLOADS}
    return {"tag": tag, "seed": SEED, "seconds": SECONDS,
            "command": "python3 perfbench/run.py --workload W "
                       f"--seed {SEED} --seconds {SECONDS} --trace T",
            "runs": runs}


def compare(before: dict, after: dict) -> None:
    print(f"{before['tag']} -> {after['tag']}")
    for workload in WORKLOADS:
        old, new = before["runs"][workload], after["runs"][workload]
        print(f"\n{workload}")
        for name, metric in old["trace0"]["metrics"].items():
            a = metric["value"]
            b = new["trace0"]["metrics"][name]["value"]
            ratio = b / a if a else float("nan")
            print(f"  {name:24s} {a:>14.6g} -> {b:<14.6g} x{ratio:.3f}")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path.cwd(),
                        help="checkout to measure (default: the current "
                             "directory)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (json.loads(p.read_text()) for p in args.compare)
        compare(before, after)
        return 0
    root = args.root.resolve()
    tag = git_short_head(root) + ("-dirty" if git_dirty(root) else "")
    out = Path(f"BENCH_{tag}.json")
    data = snapshot(root, tag)
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    failed = [f"{w}/{t}" for w, runs in data["runs"].items()
              for t, entry in runs.items() if entry["exit_code"] != 0]
    if failed:
        print(f"perfbench failed on: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
