"""Per-iteration run records and their CSV round trip.

Trace files carry metadata as ``# key=value`` comment lines, then the header
``iter,f,eta_hat,case,backtracks,grad_queries,matvecs`` and one row per
iteration.  Floats are written with 17 significant digits so parsing a file
reproduces the in-memory record bit-exactly, and metadata keys are sorted so
identical runs emit byte-identical files.  Wall time is kept on the record
but never written, for the same reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

TRACE_HEADER = "iter,f,eta_hat,case,backtracks,grad_queries,matvecs"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    f_value: float
    eta_hat: float
    case: str
    backtracks: int
    grad_queries: int
    matvecs: int


@dataclass
class RunRecord:
    method: str
    metadata: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    wall_time: Optional[float] = field(default=None, compare=False)
    final_x: Optional[object] = field(default=None, compare=False, repr=False)

    def append(self, row: TraceRow) -> None:
        if self.rows and row.iteration <= self.rows[-1].iteration:
            raise ValueError("trace rows must be strictly ordered by iteration")
        self.rows.append(row)

    def finish(self, start: float, final_x) -> "RunRecord":
        """Stamp the wall time since ``start`` and the last iterate."""
        self.wall_time = time.perf_counter() - start
        self.final_x = final_x
        return self

    def grad_query_deltas(self) -> list:
        """Gradient queries spent per iteration (first row counts from 0)."""
        deltas = []
        previous = 0
        for row in self.rows:
            deltas.append(row.grad_queries - previous)
            previous = row.grad_queries
        return deltas


def write_trace_csv(record: RunRecord, path) -> None:
    lines = [f"# method={record.method}"]
    for key in sorted(record.metadata):
        lines.append(f"# {key}={record.metadata[key]}")
    lines.append(TRACE_HEADER)
    for row in record.rows:
        lines.append(",".join([
            str(row.iteration),
            format_float(row.f_value),
            format_float(row.eta_hat),
            row.case,
            str(row.backtracks),
            str(row.grad_queries),
            str(row.matvecs),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path) -> RunRecord:
    """Parse a trace file; a bad header, a malformed row or a row out of
    iteration order raises ValueError naming the file and the line."""
    record = RunRecord(method="")
    saw_header = False
    for number, line in enumerate(Path(path).read_text().splitlines(),
                                  start=1):
        if not line:
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            if key == "method":
                record.method = value
            else:
                record.metadata[key] = value
            continue
        where = f"{path}, line {number}"
        if not saw_header:
            if line != TRACE_HEADER:
                raise ValueError(f"{where}: unexpected trace header {line!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"{where}: expected 7 fields, got {len(parts)}")
        try:
            record.append(TraceRow(
                iteration=int(parts[0]),
                f_value=float(parts[1]),
                eta_hat=float(parts[2]),
                case=parts[3],
                backtracks=int(parts[4]),
                grad_queries=int(parts[5]),
                matvecs=int(parts[6]),
            ))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    if not saw_header:
        raise ValueError(f"{path} contains no trace header")
    return record
