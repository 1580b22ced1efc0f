"""Benchmark orchestration: run solvers on a dataset, emit CSV traces,
gradient-query histograms, and optional SVG charts of the gap f - f*, with
f* = min(each row's f, f(x*)), x* from ``selftest.reference_minimizer``."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .baselines import BaselineConfig, bfgs_solve, nag_solve
from .datasets import LogisticDataset, LogisticObjective
from .errors import ConvergenceError
from .selftest import reference_minimizer
from .solver import SolverConfig, solve
from .trace import RunRecord, format_float, write_trace_csv

# each method's solver, called as SOLVERS[name](objective, x0, config=config)
SOLVERS = {"aqnpe": solve, "nag": nag_solve, "bfgs": bfgs_solve}
GAP_MARGIN = 1e-15


@dataclass
class MethodRun:
    name: str
    record: Optional[RunRecord]
    error: Optional[str]

    @property
    def ok(self) -> bool:
        return self.error is None


def method_configs(methods: Sequence[str], max_iters: int, tolerance: float,
                   seed: int) -> dict:
    """The config of each of ``methods`` for these settings.

    An unknown or repeated method, or a setting that a method's config
    rejects, raises :class:`ValueError` here, before any method runs.
    """
    for i, name in enumerate(methods):
        if name not in SOLVERS:
            raise ValueError(f"unknown method {name!r}; choose from "
                             f"{','.join(SOLVERS)}")
        if name in methods[:i]:
            raise ValueError(f"method {name!r} is given twice")
    aqnpe = SolverConfig(max_iters=max_iters, tolerance=tolerance, seed=seed)
    baseline = BaselineConfig(max_iters=max_iters, tolerance=tolerance)
    return {name: aqnpe if name == "aqnpe" else baseline for name in methods}


def run_benchmark(dataset: LogisticDataset, methods: Sequence[str],
                  out_dir, max_iters: int = 500, tolerance: float = 0.0,
                  seed: int = 0, svg: bool = False) -> list[MethodRun]:
    """Run each method on the dataset's logistic objective and emit results.

    One trace CSV per method, a ``summary.csv`` of all runs, a per-iteration
    gradient-query histogram for the accelerated solver, and (optionally)
    SVG charts of the objective gap by iteration and by gradient queries.
    Failures are recorded per method without aborting the others; an
    unknown or repeated method, a setting a method's config rejects, or a
    dataset :class:`~qnprox.datasets.LogisticObjective` rejects raises
    :class:`ValueError` before ``out_dir`` is created, and an ``out_dir``
    that cannot be made or written raises :class:`OSError`.  Every method
    and the charts' reference minimizer share one objective: its margin
    cache is exact, so sharing it changes no output.
    """
    configs = method_configs(methods, max_iters, tolerance, seed)
    objective = LogisticObjective(dataset)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs: list[MethodRun] = []
    for name in methods:
        x0 = np.zeros(objective.dimension)
        try:
            record = SOLVERS[name](objective, x0, config=configs[name])
            runs.append(MethodRun(name=name, record=record, error=None))
        except Exception as exc:
            partial = getattr(exc, "trace", None)
            runs.append(MethodRun(name=name, record=partial, error=str(exc)))

    for run in runs:
        if run.record is not None:
            write_trace_csv(run.record, out_dir / f"{run.name}.csv")

    _write_summary(runs, out_dir / "summary.csv")

    for run in runs:
        if run.name == "aqnpe" and run.record is not None:
            _write_grad_histogram(run.record,
                                  out_dir / "aqnpe_grad_hist.csv")

    if svg and any(run.record is not None and run.record.rows for run in runs):
        zeros = np.zeros(objective.dimension)
        try:
            x_star = reference_minimizer(objective, zeros)
        except ConvergenceError as exc:  # its best point stands in for x*
            x_star = exc.best
        f_star = min(float(objective.value(x_star)), *(
            row.f_value for run in runs if run.record is not None
            for row in run.record.rows))
        _write_gap_chart(runs, f_star, "iteration",
                         out_dir / "fgap_vs_iteration.svg")
        _write_gap_chart(runs, f_star, "grad_queries",
                         out_dir / "fgap_vs_grad_queries.svg")
    return runs


def _write_summary(runs: Sequence[MethodRun], path: Path) -> None:
    lines = ["method,status,iterations,final_f,grad_queries,matvecs"]
    for run in runs:
        rows = run.record.rows if run.record is not None else []
        final_f = format_float(rows[-1].f_value) if rows else ""
        grads = str(rows[-1].grad_queries) if rows else ""
        mats = str(rows[-1].matvecs) if rows else ""
        status = "ok" if run.ok else "failed"
        lines.append(f"{run.name},{status},{len(rows)},{final_f},{grads},{mats}")
    path.write_text("\n".join(lines) + "\n")


def _write_grad_histogram(record: RunRecord, path: Path) -> None:
    counts = Counter(record.grad_query_deltas())
    lines = ["grad_queries_per_iteration,count"]
    for queries in sorted(counts):
        lines.append(f"{queries},{counts[queries]}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# hand-rolled SVG line charts (no plotting dependency)

_SERIES_COLORS = {"aqnpe": "#d62728", "nag": "#1f77b4", "bfgs": "#2ca02c"}
_CHART_W, _CHART_H = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 50


def _write_gap_chart(runs: Sequence[MethodRun], f_star: float, x_kind: str,
                     path: Path) -> None:
    series = []
    for run in runs:
        if run.record is None or not run.record.rows:
            continue
        xs, ys = [], []
        for row in run.record.rows:
            gap = row.f_value - (f_star - GAP_MARGIN)
            if gap <= 0.0:
                continue
            xs.append(row.iteration if x_kind == "iteration"
                      else row.grad_queries)
            ys.append(math.log10(gap))
        if xs:
            series.append((run.name, xs, ys))
    if not series:
        return

    x_min = min(min(xs) for _, xs, _ in series)
    x_max = max(max(xs) for _, xs, _ in series)
    y_min = min(min(ys) for _, _, ys in series)
    y_max = max(max(ys) for _, _, ys in series)
    if x_max == x_min:
        x_max = x_min + 1
    if y_max == y_min:
        y_max = y_min + 1

    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + plot_w * (x - x_min) / (x_max - x_min)

    def sy(y):
        return _MARGIN_T + plot_h * (y_max - y) / (y_max - y_min)

    x_label = "iteration" if x_kind == "iteration" else "gradient queries"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" '
        f'height="{_CHART_H}" viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{_CHART_H - _MARGIN_B + 18}" '
            f'font-size="12" text-anchor="middle">{xv:.0f}</text>')
        yv = y_min + (y_max - y_min) * i / 4
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{sy(yv):.1f}" font-size="12" '
            f'text-anchor="end" dominant-baseline="middle">1e{yv:.1f}</text>')
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_CHART_H - 12}" '
        f'font-size="13" text-anchor="middle">{x_label}</text>')
    parts.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{_MARGIN_T + plot_h / 2:.1f})">objective gap</text>')
    for idx, (name, xs, ys) in enumerate(series):
        color = _SERIES_COLORS.get(name, "#444444")
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        ly = _MARGIN_T + 16 + 16 * idx
        parts.append(f'<line x1="{_MARGIN_L + plot_w - 120}" y1="{ly}" '
                     f'x2="{_MARGIN_L + plot_w - 95}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_MARGIN_L + plot_w - 88}" y="{ly + 4}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
