import re
import string
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnprox import (BaselineConfig, CountingOracle, NumericsError, RunRecord,
                    SolverConfig, SolverError, TraceRow, bfgs_solve,
                    nag_solve, read_trace_csv, solve, write_trace_csv)
from qnprox.trace import format_float
from helpers import FaultAfter


def sample_record():
    record = RunRecord(method="aqnpe", metadata={"seed": "0", "beta": "0.5"})
    record.append(TraceRow(1, 0.6931471805599453, 0.065559, "I", 0, 2, 3))
    record.append(TraceRow(2, 0.5234567890123456, 0.131118, "II", 1, 5, 11))
    record.append(TraceRow(3, 1.25e-13, 0.0655, "II", 2, 9, 23))
    return record


class TestRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        record = sample_record()
        path = tmp_path / "trace.csv"
        write_trace_csv(record, path)
        assert read_trace_csv(path) == record

    def test_emission_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(sample_record(), a)
        write_trace_csv(sample_record(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_comments(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(sample_record(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# method=aqnpe"
        assert lines[1] == "# beta=0.5"
        assert lines[2] == "# seed=0"
        assert lines[3] == "iter,f,eta_hat,case,backtracks,grad_queries,matvecs"
        assert len(lines) == 4 + 3

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_rejects_metadata_without_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# method=aqnpe\n# seed=0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path} contains no trace header")):
            read_trace_csv(path)

    @staticmethod
    def written_with(tmp_path, line, text):
        """The sample trace with its file line ``line`` replaced."""
        path = tmp_path / "bad.csv"
        write_trace_csv(sample_record(), path)
        lines = path.read_text().splitlines()
        lines[line - 1] = text
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_metadata_without_equals_names_file_and_line(self, tmp_path):
        # the sample's metadata is file lines 1-3, "# beta=0.5" on line 2
        path = self.written_with(tmp_path, 2, "# beta")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}, line 2: .*'# beta'"):
            read_trace_csv(path)

    @pytest.mark.parametrize("text, line", [("# method=nag", 2),
                                            ("# seed=7", 3)],
                             ids=["method", "seed"])
    def test_repeated_metadata_key_names_file_and_line(self, tmp_path, text,
                                                       line):
        # "# seed=7" on line 2 comes before the sample's "# seed=0" on line 3
        path = self.written_with(tmp_path, 2, text)
        key = text[2:].partition("=")[0]
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}, line {line}: .*'{key}' repeated"):
            read_trace_csv(path)

    def test_metadata_after_the_header_names_file_and_line(self, tmp_path):
        # the sample's header is file line 4 and its first row line 5
        path = tmp_path / "bad.csv"
        write_trace_csv(sample_record(), path)
        lines = path.read_text().splitlines()
        lines[5:5] = ["# method=nag", "# seed=7"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}, line 6: .*'# method=nag' after the header"):
            read_trace_csv(path)

    def test_rejects_rows_out_of_order(self, tmp_path):
        # the sample's rows are file lines 5-7 with iterations 1, 2, 3
        path = self.written_with(tmp_path, 6,
                                 "1,0.5,0.131118,II,1,5,11")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}, line 6: .*ordered"):
            read_trace_csv(path)

    def test_malformed_value_names_file_and_line(self, tmp_path):
        path = self.written_with(tmp_path, 7, "3,abc,0.0655,II,2,9,23")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}, line 7: .*'abc'"):
            read_trace_csv(path)

    def test_wrong_field_count_names_file_and_line(self, tmp_path):
        path = self.written_with(tmp_path, 5, "1,0.69,0.06,I,0,2")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}, line 5: .*7 fields"):
            read_trace_csv(path)

    @pytest.mark.parametrize("column", [0, 4, 5, 6],
                             ids=["iter", "backtracks", "grad_queries",
                                  "matvecs"])
    def test_count_outside_int64_names_file_and_line(self, tmp_path, column):
        fields = "3,1.25e-13,0.0655,II,2,9,23".split(",")
        fields[column] = str(2 ** 63)
        path = self.written_with(tmp_path, 7, ",".join(fields))
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}, line 7: .*int64"):
            read_trace_csv(path)


class TestRecordInvariants:
    def test_rows_strictly_ordered(self):
        record = RunRecord(method="nag")
        record.append(TraceRow(1, 1.0, 0.1, "-", 0, 1, 0))
        with pytest.raises(ValueError):
            record.append(TraceRow(1, 0.9, 0.1, "-", 0, 2, 0))

    def test_grad_query_deltas(self):
        record = sample_record()
        assert record.grad_query_deltas() == [2, 3, 4]

    def test_wall_time_never_serialized(self, tmp_path):
        record = sample_record()
        record.wall_time = 123.456
        path = tmp_path / "trace.csv"
        write_trace_csv(record, path)
        assert "123.456" not in path.read_text()
        assert read_trace_csv(path) == record


def test_record_keeps_a_row_in_at_most_64_bytes():
    # counts above 256 and fresh floats, as solve makes them, so no row can
    # lean on CPython's small-int cache or on a shared float
    rows = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record = RunRecord(method="aqnpe")
        for k in range(1, rows + 1):
            f = 1.0 / (k + 0.5)
            record.append(TraceRow(k, f, 3.0 * f, "II" if k % 3 else "I",
                                   300 + k, 1000 + 3 * k, 2000 + 5 * k))
        del f
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(record.rows) == rows
    assert kept / rows <= 64


# finite floats of every kind, with the signed zeros and the smallest
# subnormals drawn explicitly
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
COUNTS = st.integers(0, 2 ** 63 - 1)
# metadata as the writers emit it: keys of letters, digits and underscores
# other than "method" (such as "L1" or "max_iters"), and values that are
# floats at 17 digits, integers, or a stop reason
METADATA = st.dictionaries(
    st.text(string.ascii_letters + string.digits + "_", min_size=1,
            max_size=12).filter(lambda key: key != "method"),
    st.one_of(FLOATS.map(format_float), COUNTS.map(str),
              st.just("precision_floor")),
    max_size=10)


@st.composite
def trace_rows(draw):
    """Rows in strictly increasing iteration order, up to the int64 top."""
    rows = []
    iteration = draw(st.one_of(st.integers(0, 10),
                               st.just(2 ** 63 - 1 - 12 * 1000)))
    for _ in range(draw(st.integers(0, 12))):
        rows.append(TraceRow(
            iteration=iteration, f_value=draw(FLOATS), eta_hat=draw(FLOATS),
            case=draw(st.sampled_from(["I", "II", "-"])),
            backtracks=draw(COUNTS), grad_queries=draw(COUNTS),
            matvecs=draw(COUNTS)))
        iteration += draw(st.integers(1, 1000))
    return rows


@st.composite
def run_records(draw):
    record = RunRecord(method=draw(st.sampled_from(["aqnpe", "nag", "bfgs"])),
                       metadata=draw(METADATA))
    for row in draw(trace_rows()):
        record.append(row)
    return record


def bits(rows):
    # repr tells -0.0 from 0.0 and round-trips every finite float, so equal
    # reprs are equal bits
    return [repr(row) for row in rows]


@settings(deadline=None)
@given(rows=trace_rows(), data=st.data())
def test_the_table_reads_back_the_appended_rows_bit_for_bit(rows, data):
    record = RunRecord(method="aqnpe")
    for row in rows:
        record.append(row)
    table = record.rows
    assert len(table) == len(rows)
    assert bits(table) == bits(rows)
    assert table == rows and rows == table
    assert table == RunRecord(method="aqnpe", rows=list(rows)).rows
    assert table != rows + [TraceRow(2 ** 63 - 1, 0.0, 0.0, "I", 0, 0, 0)]
    window = data.draw(st.slices(len(rows)))
    assert bits(table[window]) == bits(rows[window])
    if not rows:
        return
    index = data.draw(st.integers(-len(rows), len(rows) - 1))
    assert bits([table[index], table[-1]]) == bits([rows[index], rows[-1]])
    with pytest.raises(ValueError, match="ordered"):
        record.append(replace(rows[-1], iteration=rows[-1].iteration
                              - data.draw(st.integers(0, 3))))
    # a count outside int64 is refused whole: no column keeps a part of it
    last = rows[-1].iteration
    with pytest.raises(OverflowError):
        record.append(replace(rows[0], iteration=last + 1, matvecs=2 ** 63))
    assert bits(record.rows) == bits(rows)


@settings(deadline=None)
@given(record=run_records())
def test_any_written_record_reads_back_and_rewrites_to_the_same_bytes(
        record):
    with tempfile.TemporaryDirectory() as directory:
        first, second = Path(directory, "a.csv"), Path(directory, "b.csv")
        write_trace_csv(record, first)
        parsed = read_trace_csv(first)
        assert parsed == record
        # equality cannot tell -0.0 from 0.0; the bytes can
        write_trace_csv(parsed, second)
        assert second.read_bytes() == first.read_bytes()


SOLVES = {
    "aqnpe": lambda oracle, x0: solve(oracle, x0, config=SolverConfig(
        max_iters=40, seed=0)),
    "nag": lambda oracle, x0: nag_solve(oracle, x0,
                                        BaselineConfig(max_iters=40)),
    "bfgs": lambda oracle, x0: bfgs_solve(oracle, x0,
                                          BaselineConfig(max_iters=40)),
}


# where the fault lands: the query, how many queries of its kind stay good,
# and the rows each solver writes first.  aqnpe's three land in the
# iteration after the clean run's eighth row, at its anchor gradient, its
# first trial's gradient and its one value query, at x_{k+1}; NAG asks one
# gradient an iteration, so its "trial" is the next iteration's anchor
FAULTS = {
    "anchor gradient": ("gradient", lambda full: full.rows[7].grad_queries,
                        {"aqnpe": 8, "nag": 8, "bfgs": 8}),
    "trial gradient": ("gradient",
                       lambda full: full.rows[7].grad_queries + 1,
                       {"aqnpe": 8, "nag": 9, "bfgs": 9}),
    "value": ("value", lambda full: 8, {"aqnpe": 8, "nag": 3, "bfgs": 7}),
}


@pytest.mark.parametrize("method", list(SOLVES))
def test_failure_mid_run_keeps_the_partial_trace_and_counters(
        method, small_logistic):
    # the first faulty query turns NaN: aqnpe wraps the cause in SolverError
    # naming the iteration, the rows already written whichever query
    # failed, and the baselines raise it as it is; every solver attaches
    # the clean run's first rows and a copy of the counters
    x0 = np.zeros(small_logistic.dimension)
    full = SOLVES[method](small_logistic, x0)
    assert len(full.rows) > 9
    for fault, (query, good_queries, written) in FAULTS.items():
        good = good_queries(full)
        broken = FaultAfter(small_logistic, good, query=query)
        oracle = CountingOracle(broken)
        with pytest.raises(Exception) as info:
            SOLVES[method](oracle, x0)
        err = info.value
        rows = len(err.trace.rows)
        assert rows == written[method], fault
        if method == "aqnpe":
            assert type(err) is SolverError
            assert str(err).startswith(
                f"solver aborted at iteration {rows}: {query} oracle"), fault
            assert type(err.__cause__) is NumericsError
        else:
            assert type(err) is NumericsError
            assert str(err).startswith(f"{query} oracle"), fault
        assert err.trace.method == full.method
        assert err.trace.rows == full.rows[:rows], fault
        # the counters are the queries seen, the first faulty one counted
        # before it is rejected
        seen = broken.seen["gradient"]
        assert err.counters.gradient_queries == seen, fault
        if query == "gradient":
            assert seen == good + 1, fault
        # the live counters move on with the next query, the copy does not
        with pytest.raises(NumericsError):
            getattr(oracle, query)(x0)
        assert oracle.counters.gradient_queries == broken.seen["gradient"]
        assert err.counters.gradient_queries == seen, fault
