"""Per-iteration run records, the driver loop every solver runs in
(:func:`record_run`), and their CSV round trip.

Trace files carry metadata as ``# key=value`` comment lines, then the header
``iter,f,eta_hat,case,backtracks,grad_queries,matvecs`` and one row per
iteration.  Floats are written with 17 significant digits so parsing a file
reproduces the in-memory record bit-exactly, and metadata keys are sorted so
identical runs emit byte-identical files.  Wall time is kept on the record
but never written, for the same reason.

In memory a record keeps its rows as seven typed columns: four int64 counts
and two doubles in ``array`` buffers, and the case as a list of interned
strings, about 57 bytes a row.  ``RunRecord.rows`` builds a ``TraceRow`` on
access, so a long run costs its columns, not one object per row.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .oracles import CountingOracle, checked_input

TRACE_HEADER = "iter,f,eta_hat,case,backtracks,grad_queries,matvecs"
# why a run stopped, as RunRecord.stopped reads
MAX_ITERS = "max_iters"
TOLERANCE = "tolerance"
PRECISION_FLOOR = "precision_floor"
ERROR = "error"
# 4096 eps: aqnpe's anchor gradient and BFGS's predicted decrease, relative
# to their scales, are float noise at or below it, and stop at the floor
FLOAT_NOISE = 4096.0 * sys.float_info.epsilon


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


class TraceTable(Sequence):
    """The rows of a run as typed columns, in ``TraceRow`` field order.

    A read-only sequence of ``TraceRow``: an index (negative too) builds one
    row, a slice a list of rows, and a table equals a table or a list that
    holds equal rows.  ``append`` is the one write path; it keeps iterations
    strictly increasing and writes a row whole or not at all.
    """

    __slots__ = ("_columns",)

    def __init__(self, rows=()):
        self._columns = (array("q"), array("d"), array("d"), [],
                         array("q"), array("q"), array("q"))
        for row in rows:
            self.append(row)

    def append(self, row: TraceRow) -> None:
        iterations = self._columns[0]
        if iterations and row.iteration <= iterations[-1]:
            raise ValueError("trace rows must be strictly ordered by iteration")
        values = (row.iteration, row.f_value, row.eta_hat, sys.intern(row.case),
                  row.backtracks, row.grad_queries, row.matvecs)
        size = len(iterations)
        try:
            for column, value in zip(self._columns, values):
                column.append(value)
        except (OverflowError, TypeError):
            # a count outside int64, or a value of the wrong type
            for column in self._columns:
                del column[size:]
            raise

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(TraceRow, *(column[index]
                                        for column in self._columns)))
        return TraceRow(*(column[index] for column in self._columns))

    def __iter__(self):
        return map(TraceRow, *self._columns)

    def __eq__(self, other):
        if not isinstance(other, (TraceTable, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self) -> str:
        return f"TraceTable({list(self)!r})"


@dataclass
class RunRecord:
    """A run's method, its metadata and its trace rows.

    ``rows`` is a ``TraceTable``: seven typed columns at about 57 bytes a
    row, read as ``TraceRow`` objects built on access.  A plain list of rows
    given to the constructor, or to ``dataclasses.replace``, is appended row
    by row, so it passes the same ordering check as ``append``.

    ``stopped`` is why the run stopped: MAX_ITERS, TOLERANCE,
    PRECISION_FLOOR, or ERROR on the partial record an error carries.  It
    is not written, so a record read from a CSV has None.
    """

    method: str
    metadata: dict = field(default_factory=dict)
    rows: Sequence[TraceRow] = field(default_factory=TraceTable)
    wall_time: Optional[float] = field(default=None, compare=False)
    final_x: Optional[object] = field(default=None, compare=False, repr=False)
    stopped: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.rows, TraceTable):
            self.rows = TraceTable(self.rows)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def finish(self, start: float, final_x) -> None:
        """Stamp the wall time since ``start`` and the last iterate."""
        self.wall_time = time.perf_counter() - start
        self.final_x = final_x

    def grad_query_deltas(self) -> list:
        """Gradient queries spent per iteration (first row counts from 0)."""
        deltas = []
        previous = 0
        for row in self.rows:
            deltas.append(row.grad_queries - previous)
            previous = row.grad_queries
        return deltas


def record_run(method: str, oracle, x0, config, begin) -> RunRecord:
    """One solve of ``method``, capped at ``config.max_iters`` rows.

    Wraps the oracle in a :class:`~qnprox.oracles.CountingOracle` unless it
    is one, and checks ``x0`` against its dimension (:class:`ValueError`).
    ``begin(oracle, x)``, x a copy of x0, returns the run's metadata and its
    iterations: a generator that yields each finished iteration's f,
    eta_hat, case, backtracks, iterate, and None or the TOLERANCE its row
    meets, after which it is not resumed; it returns TOLERANCE or
    PRECISION_FLOOR, the one written as ``stopped``.  A row is numbered and
    counted here, and ``record.stopped`` set.  An error raised by the
    iterations carries the partial record as ``trace`` and a copy of the
    counters as ``counters``.
    """
    if not isinstance(oracle, CountingOracle):
        oracle = CountingOracle(oracle)
    counters = oracle.counters
    x = checked_input("x0", x0, (oracle.dimension,)).copy()
    metadata, iterations = begin(oracle, x)
    record = RunRecord(method, dict(metadata, max_iters=str(config.max_iters),
                                    tolerance=format_float(config.tolerance)))
    start = time.perf_counter()
    try:
        for k in range(1, config.max_iters + 1):
            try:
                *columns, x, stopped = next(iterations)
            except StopIteration as stop:
                stopped = stop.value
                break
            record.append(TraceRow(k, *columns, counters.gradient_queries,
                                   counters.matvecs))
            if stopped is not None:
                break
        else:
            stopped = MAX_ITERS
        record.stopped = stopped
        if stopped == PRECISION_FLOOR:
            record.metadata["stopped"] = PRECISION_FLOOR
    except Exception as exc:
        record.stopped = ERROR
        exc.trace, exc.counters = record, replace(counters)
        raise
    finally:
        record.finish(start, x)
    return record


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
    """Parse a trace file; a metadata line without ``=``, after the header
    or repeating a key, a bad header, a malformed row, a count outside int64
    or a row out of iteration order raises ValueError naming the file and
    the line."""
    record = RunRecord(method="")
    saw_header = False
    for number, line in enumerate(Path(path).read_text().splitlines(),
                                  start=1):
        if not line:
            continue
        where = f"{path}, line {number}"
        if line.startswith("# "):
            key, equals, value = line[2:].partition("=")
            if saw_header:
                raise ValueError(f"{where}: metadata line {line!r} after "
                                 "the header")
            if not equals:
                raise ValueError(f"{where}: metadata line {line!r} has no '='")
            if key in record.metadata:
                raise ValueError(f"{where}: metadata key {key!r} repeated")
            record.metadata[key] = value
            continue
        if not saw_header:
            if line != TRACE_HEADER:
                raise ValueError(f"{where}: unexpected trace header {line!r}")
            record.method = record.metadata.pop("method", "")
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
        except OverflowError:
            raise ValueError(f"{where}: a count is outside the int64 range"
                             ) from None
    if not saw_header:
        raise ValueError(f"{path} contains no trace header")
    return record
