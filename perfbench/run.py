"""Repository benchmark: time to objective gap 1e-8 on logistic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see measure.py).  Every metric is printed
as ``metric <name> <value> <unit>``; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every solve reached the target
and every check passed.  ``--tiny`` runs the same workload at a size the
benchmark's own tests use.  The library is imported from ``./src``; run
files (trace CSVs, spans, the result with its environment record) go to
``./.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path

WORK_DIR = ".perfbench"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def import_library(root: Path):
    """Import qnprox from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qnprox

    location = Path(qnprox.__file__).resolve()
    if src not in location.parents:
        raise ImportError(f"qnprox was imported from {location}, not {src}")
    return qnprox


def blas_threads() -> str:
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        return str(get())
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``root/.git`` only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "cpu": cpu_model(),
        "commit": git_commit(root),
        "workload": workload,
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small instance, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    # One BLAS thread, set before numpy loads.  With OpenBLAS's default of
    # two threads on a shared two-core machine, single NAG solves of the
    # wide workload took 1.4 to 3.1 s; with one thread, 2.2 to 2.7 s.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    try:
        import_library(root)
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import measure
    from workloads import WORKLOADS, tiny

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    work_dir = root / WORK_DIR
    work_dir.mkdir(exist_ok=True)

    env = environment(root, args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    run = measure.run_workload(workload, args.seed, args.seconds,
                               bool(args.trace), work_dir)
    out = run.out
    for note in out.notes:
        print(note)
    for name, (value, unit) in out.metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")

    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    stem += f"-trace{args.trace}"
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }
    (work_dir / f"{stem}.json").write_text(json.dumps(
        {**result, "environment": env, "notes": out.notes,
         "problems": out.problems}, indent=1) + "\n")
    if run.spans:
        (work_dir / f"{stem}-spans.json").write_text(json.dumps(run.spans))
    print(json.dumps(result))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
