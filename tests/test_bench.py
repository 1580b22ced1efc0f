import numpy as np
import pytest

from qnprox import (LogisticObjective, SyntheticLogisticSpec,
                    generate_logistic, read_trace_csv)
from qnprox.bench import run_benchmark
from qnprox.trace import RunRecord, TraceRow
from helpers import iterations_to_gap


@pytest.fixture(scope="module")
def small_dataset():
    return generate_logistic(SyntheticLogisticSpec(n=80, d=10, sigma=0.8,
                                                   seed=2))


class TestRunBenchmark:
    def test_emits_trace_summary_and_histogram(self, small_dataset, tmp_path):
        runs = run_benchmark(small_dataset, ["aqnpe", "nag"], tmp_path,
                             max_iters=25, seed=0)
        assert all(run.ok for run in runs)
        assert (tmp_path / "aqnpe.csv").exists()
        assert (tmp_path / "nag.csv").exists()
        assert (tmp_path / "summary.csv").exists()
        hist_lines = (tmp_path / "aqnpe_grad_hist.csv").read_text().splitlines()
        assert hist_lines[0] == "grad_queries_per_iteration,count"
        counts = {int(l.split(",")[0]): int(l.split(",")[1])
                  for l in hist_lines[1:]}
        assert sum(counts.values()) == 25
        trace = read_trace_csv(tmp_path / "aqnpe.csv")
        assert len(trace.rows) == 25

    def test_row_count_matches_max_iters(self, small_dataset, tmp_path):
        run_benchmark(small_dataset, ["bfgs"], tmp_path, max_iters=10, seed=0)
        lines = (tmp_path / "bfgs.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 1 + 10  # header plus one row per iteration

    def test_empty_methods_writes_empty_summary(self, small_dataset, tmp_path):
        runs = run_benchmark(small_dataset, [], tmp_path, max_iters=5)
        assert runs == []
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines == ["method,status,iterations,final_f,grad_queries,matvecs"]

    def test_unknown_method_rejected(self, small_dataset, tmp_path):
        with pytest.raises(ValueError):
            run_benchmark(small_dataset, ["sgd"], tmp_path)

    def test_repeated_method_rejected(self, small_dataset, tmp_path):
        with pytest.raises(ValueError, match="method 'aqnpe' is given twice"):
            run_benchmark(small_dataset, ["aqnpe", "aqnpe", "nag"],
                          tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, field", [
        ({"max_iters": 0}, "max_iters"), ({"tolerance": -1.0}, "tolerance"),
        ({"tolerance": float("nan")}, "tolerance"), ({"seed": -1}, "seed"),
    ])
    def test_rejected_setting_runs_no_method(self, small_dataset, tmp_path,
                                             setting, field):
        with pytest.raises(ValueError, match=field):
            run_benchmark(small_dataset, ["aqnpe", "nag", "bfgs"],
                          tmp_path / "out", **setting)
        assert not (tmp_path / "out").exists()

    def test_method_failure_recorded_without_aborting(self, small_dataset,
                                                      tmp_path, monkeypatch):
        import qnprox.bench as bench_module

        def failing(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(bench_module.SOLVERS, "nag", failing)
        runs = run_benchmark(small_dataset, ["nag", "bfgs"], tmp_path,
                             max_iters=5)
        assert [run.ok for run in runs] == [False, True]
        summary = (tmp_path / "summary.csv").read_text()
        assert "nag,failed" in summary
        assert "bfgs,ok" in summary

    @pytest.mark.parametrize("method", ["nag", "bfgs"])
    def test_failed_baseline_writes_its_partial_trace(
            self, small_dataset, tmp_path, monkeypatch, method):
        import qnprox.bench as bench_module

        class NanAfterFive(LogisticObjective):
            calls = 0

            def gradient(self, x):
                self.calls += 1
                g = super().gradient(x)
                return g if self.calls <= 5 else np.full_like(g, np.nan)

        monkeypatch.setattr(bench_module, "LogisticObjective", NanAfterFive)
        runs = run_benchmark(small_dataset, [method], tmp_path, max_iters=25)
        assert not runs[0].ok
        trace = read_trace_csv(tmp_path / f"{method}.csv")
        assert trace.rows == runs[0].record.rows
        assert 1 <= len(trace.rows) < 25
        assert f"{method},failed,{len(trace.rows)}," in (
            tmp_path / "summary.csv").read_text()

    def test_svg_charts_emitted(self, small_dataset, tmp_path):
        # the separable instance has no minimizer: the charts' reference
        # minimizer meets a singular Newton system there, and they chart
        # all the same
        separable = generate_logistic(SyntheticLogisticSpec(
            n=6, d=8, sigma=0.0, seed=1))
        for name, dataset in (("small", small_dataset),
                              ("separable", separable)):
            run_benchmark(dataset, ["aqnpe", "nag", "bfgs"], tmp_path / name,
                          max_iters=15, seed=0, svg=True)
            for chart in ("fgap_vs_iteration.svg", "fgap_vs_grad_queries.svg"):
                text = (tmp_path / name / chart).read_text()
                assert text.startswith("<svg")
                assert "polyline" in text

    def test_byte_identical_reruns(self, small_dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_benchmark(small_dataset, ["aqnpe"], out_a, max_iters=12, seed=4)
        run_benchmark(small_dataset, ["aqnpe"], out_b, max_iters=12, seed=4)
        assert ((out_a / "aqnpe.csv").read_bytes()
                == (out_b / "aqnpe.csv").read_bytes())


class TestIterationsToGap:
    def test_finds_first_crossing(self):
        record = RunRecord(method="x")
        for k, f in enumerate([1.0, 0.1, 0.01, 0.001], start=1):
            record.append(TraceRow(k, f, 0.1, "-", 0, k, 0))
        assert iterations_to_gap(record, f_star=0.0, gap=0.05) == 3
        assert iterations_to_gap(record, f_star=0.0, gap=1e-9) is None
