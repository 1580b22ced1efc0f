"""Benchmark command line: ``bench gen``, ``bench run``, ``bench selftest``.

Exit codes: 0 on success, 1 when a method fails or a self-check fails,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .bench import SOLVERS, method_configs, run_benchmark
from .datasets import (SyntheticLogisticSpec, generate_logistic,
                       read_dataset_csv, write_dataset_csv)
from .selftest import run_selftest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Synthetic logistic-regression benchmark for the "
                    "accelerated quasi-Newton proximal extragradient solver "
                    "and its NAG/BFGS baselines.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--n", type=int, default=500, help="number of samples")
    gen.add_argument("--d", type=int, default=50,
                     help="feature dimension (including the intercept column)")
    gen.add_argument("--sigma", type=float, default=0.8,
                     help="feature noise standard deviation")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--paper-scale", action="store_true",
                     help="shorthand for n=2000, d=150, sigma=0.8")
    gen.add_argument("--out", required=True, help="output dataset CSV path")

    run = sub.add_parser("run", help="run solvers and emit trace CSVs")
    run.add_argument("--data", required=True, help="dataset CSV from 'gen'")
    run.add_argument("--methods", default=",".join(SOLVERS),
                     help=f"comma-separated subset of {','.join(SOLVERS)} "
                          "(empty string runs nothing)")
    run.add_argument("--max-iters", type=int, default=500)
    run.add_argument("--tol", type=float, default=0.0,
                     help="gradient-norm stopping tolerance")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out-dir", required=True)
    run.add_argument("--svg", action="store_true",
                     help="also emit SVG convergence charts")

    sub.add_parser("selftest", help="run the built-in invariant battery")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "gen":
        if args.paper_scale:
            args.n, args.d, args.sigma = 2000, 150, 0.8
        try:
            spec = SyntheticLogisticSpec(n=args.n, d=args.d, sigma=args.sigma,
                                         seed=args.seed)
            dataset = generate_logistic(spec)
        except ValueError as exc:
            parser.error(str(exc))
        try:
            write_dataset_csv(dataset, args.out)
        except OSError as exc:
            parser.error(f"cannot write dataset: {exc}")
        print(f"wrote {dataset.n} x {dataset.d} dataset to {args.out}")
        return 0

    if args.command == "run":
        methods = [m for m in args.methods.split(",") if m]
        try:
            method_configs(methods, args.max_iters, args.tol, args.seed)
        except ValueError as exc:
            parser.error(str(exc))
        try:
            dataset = read_dataset_csv(args.data)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read dataset: {exc}")
        try:
            runs = run_benchmark(dataset, methods, args.out_dir,
                                 max_iters=args.max_iters, tolerance=args.tol,
                                 seed=args.seed, svg=args.svg)
        except ValueError as exc:  # only a dataset the objective rejects
            parser.error(f"cannot use dataset: {exc}")
        except OSError as exc:  # only an output path that cannot be written
            parser.error(f"cannot write results: {exc}")
        for run in runs:
            status = "ok" if run.ok else f"FAILED ({run.error})"
            rows = len(run.record.rows) if run.record is not None else 0
            print(f"{run.name}: {status}, {rows} iterations")
        print(f"results written to {args.out_dir}")
        return 0 if all(run.ok for run in runs) else 1

    # the subcommand is required, so what is left is selftest
    return 0 if run_selftest() else 1


if __name__ == "__main__":
    sys.exit(main())
