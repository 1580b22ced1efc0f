import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qnprox.cli
from qnprox import (SyntheticLogisticSpec, generate_logistic,
                    read_dataset_csv, selftest)
from qnprox.cli import main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors exit instead of returning
        return exc.code


class TestGen:
    def test_generates_dataset(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = run_cli(["gen", "--n", "30", "--d", "6", "--sigma", "0.5",
                        "--seed", "9", "--out", str(out)])
        assert code == 0
        dataset = read_dataset_csv(out)
        assert dataset.n == 30 and dataset.d == 6
        assert set(np.unique(dataset.labels)) <= {-1.0, 1.0}

    def test_paper_scale_overrides_the_shape(self, tmp_path, capsys,
                                             monkeypatch):
        # the dataset is captured, not written: 2000 x 150 is 300k floats
        written = []
        monkeypatch.setattr(qnprox.cli, "write_dataset_csv",
                            lambda dataset, path: written.append(dataset))
        code = run_cli(["gen", "--paper-scale", "--n", "30", "--d", "6",
                        "--sigma", "0.1", "--seed", "2",
                        "--out", str(tmp_path / "data.csv")])
        assert code == 0
        (dataset,) = written
        assert (dataset.n, dataset.d) == (2000, 150)
        spec = SyntheticLogisticSpec(n=2000, d=150, sigma=0.8, seed=2)
        assert np.array_equal(dataset.features,
                              generate_logistic(spec).features)

    def test_bad_dimension_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["gen", "--n", "10", "--d", "1", "--out",
                        str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("flags, field", [
        (["--sigma", "nan"], "sigma"), (["--seed", "-1"], "seed"),
    ])
    def test_rejected_field_is_usage_error(self, tmp_path, capsys, flags,
                                           field):
        out = tmp_path / "x.csv"
        code = run_cli(["gen", "--n", "5", "--d", "3", "--out", str(out)]
                       + flags)
        assert code == 2
        assert f"{field} must" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    @pytest.fixture()
    def data_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run_cli(["gen", "--n", "60", "--d", "8", "--seed", "1",
                        "--out", str(out)]) == 0
        return out

    def test_full_run(self, data_csv, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = run_cli(["run", "--data", str(data_csv), "--methods",
                        "aqnpe,nag,bfgs", "--max-iters", "8", "--seed", "0",
                        "--out-dir", str(out_dir), "--svg"])
        assert code == 0
        for name in ("aqnpe.csv", "nag.csv", "bfgs.csv", "summary.csv",
                     "aqnpe_grad_hist.csv", "fgap_vs_iteration.svg"):
            assert (out_dir / name).exists()

    def test_empty_methods_ok(self, data_csv, tmp_path):
        out_dir = tmp_path / "results"
        code = run_cli(["run", "--data", str(data_csv), "--methods", "",
                        "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "summary.csv").exists()

    def test_unknown_method_is_usage_error(self, data_csv, tmp_path, capsys):
        code = run_cli(["run", "--data", str(data_csv), "--methods", "sgd",
                        "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "unknown method 'sgd'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flags, field", [
        (["--max-iters", "0"], "max_iters"), (["--tol", "-1"], "tolerance"),
        (["--tol", "nan"], "tolerance"), (["--seed", "-1"], "seed"),
    ])
    def test_rejected_setting_is_usage_error(self, data_csv, tmp_path, capsys,
                                             flags, field):
        out_dir = tmp_path / "r"
        code = run_cli(["run", "--data", str(data_csv), "--out-dir",
                        str(out_dir)] + flags)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_dataset_is_usage_error(self, tmp_path):
        code = run_cli(["run", "--data", str(tmp_path / "missing.csv"),
                        "--out-dir", str(tmp_path / "r")])
        assert code == 2

    def test_non_finite_dataset_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("y,a_0,a_1\n1,nan,1.0\n")
        code = run_cli(["run", "--data", str(path),
                        "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "cannot read dataset" in capsys.readouterr().err

    def test_method_failure_exits_one(self, data_csv, tmp_path, monkeypatch):
        import qnprox.bench as bench_module

        def always_fails(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(bench_module.SOLVERS, "nag", always_fails)
        code = run_cli(["run", "--data", str(data_csv), "--methods", "nag",
                        "--out-dir", str(tmp_path / "r")])
        assert code == 1

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli([]) == 2


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code = run_cli(["selftest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_failing_check_prints_fail_and_exits_one(self, capsys,
                                                      monkeypatch):
        checks = list(selftest.CHECKS)
        checks[2] = (checks[2][0], lambda: "planted violation")
        monkeypatch.setattr(selftest, "CHECKS", tuple(checks))
        code = run_cli(["selftest"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] separation-oracle: planted violation" in out
        assert out.count("[PASS]") == 6

    def test_runs_from_a_checkout_without_install(self):
        # PYTHONPATH=src python3 -m qnprox.cli selftest, from the repo root
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "qnprox.cli", "selftest"], cwd=root,
            env=dict(os.environ, PYTHONPATH="src"), capture_output=True,
            text=True, timeout=600)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        assert [line.split()[0] for line in lines] == ["[PASS]"] * 7
        assert [line.split()[1] for line in lines] == [
            "momentum-identity", "linear-solver", "separation-oracle",
            "learner", "line-search", "solver-certificate", "smoothness"]
