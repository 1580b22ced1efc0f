import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from qnprox import (BaselineConfig, CountingOracle, LogisticObjective,
                    NumericsError, SolverConfig, SyntheticLogisticSpec,
                    bfgs_solve, generate_logistic, nag_solve,
                    read_dataset_csv, solve, write_dataset_csv,
                    write_trace_csv)
from qnprox.datasets import (LogisticDataset, logistic_curvature,
                             logistic_weights, mean_logistic_loss)
from qnprox.selftest import smoothness_violation


class TestGeneration:
    def test_noise_free_labels_recover_the_rule(self):
        spec = SyntheticLogisticSpec(n=50, d=8, sigma=0.0, seed=3)
        dataset = generate_logistic(spec)
        # with sigma = 0 undoing the constant shift recovers the true
        # feature vectors exactly; x* is the generator's first draw
        x_star = np.random.default_rng(spec.seed).standard_normal(spec.d - 1)
        recovered = dataset.features[:, :-1] - 1.0
        predicted = np.where(recovered @ x_star >= 0.0,
                             1.0, -1.0)
        assert np.array_equal(predicted, dataset.labels)

    def test_deterministic_given_seed(self):
        spec = SyntheticLogisticSpec(n=40, d=6, sigma=0.8, seed=12)
        a = generate_logistic(spec)
        b = generate_logistic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_paper_scale_statistics(self):
        spec = SyntheticLogisticSpec(n=2000, d=150, sigma=0.8, seed=0)
        dataset = generate_logistic(spec)
        # the intercept column is exactly one
        assert np.all(dataset.features[:, -1] == 1.0)
        # replaying the documented draw order isolates the noise entries
        rng = np.random.default_rng(spec.seed)
        rng.standard_normal(spec.d - 1)              # true parameter
        a_star = rng.standard_normal((spec.n, spec.d - 1))
        noise = dataset.features[:, :-1] - a_star - 1.0
        assert abs(np.std(noise) - spec.sigma) <= 0.05 * spec.sigma

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            generate_logistic(SyntheticLogisticSpec(n=0, d=5, sigma=1.0,
                                                    seed=0))
        with pytest.raises(ValueError):
            generate_logistic(SyntheticLogisticSpec(n=5, d=1, sigma=1.0,
                                                    seed=0))
        with pytest.raises(ValueError):
            generate_logistic(SyntheticLogisticSpec(n=5, d=5, sigma=-0.1,
                                                    seed=0))

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("d", 3.0), ("seed", 1.5), ("seed", -1),
        ("sigma", math.nan), ("sigma", math.inf), ("sigma", "0.8"),
    ])
    def test_spec_rejects_what_numpy_would_misread(self, field, value):
        # each once passed the spec and then failed inside numpy, or wrote
        # NaN features, with no word of the field
        kwargs = dict(n=5, d=3, sigma=0.8, seed=0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must .* got {value!r}"):
            SyntheticLogisticSpec(**kwargs)


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        spec = SyntheticLogisticSpec(n=30, d=7, sigma=0.8, seed=4)
        dataset = generate_logistic(spec)
        path = tmp_path / "data.csv"
        write_dataset_csv(dataset, path)
        loaded = read_dataset_csv(path)
        assert np.array_equal(loaded.features, dataset.features)
        assert np.array_equal(loaded.labels, dataset.labels)

    def test_header_schema(self, tmp_path):
        spec = SyntheticLogisticSpec(n=3, d=4, sigma=0.1, seed=0)
        path = tmp_path / "data.csv"
        write_dataset_csv(generate_logistic(spec), path)
        header = path.read_text().splitlines()[0]
        assert header == "y,a_0,a_1,a_2,a_3"

    def test_rejects_bad_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,a_0,a_1\n2,0.5,1.0\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    @staticmethod
    def rejects(tmp_path, text, line, problem):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: ")
                           + problem):
            read_dataset_csv(path)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_entry(self, tmp_path, entry):
        self.rejects(tmp_path, f"y,a_0,a_1\n1,0.5,1.0\n-1,{entry},1.0\n",
                     3, "non-finite")

    def test_rejects_row_of_wrong_width(self, tmp_path):
        self.rejects(tmp_path, "y,a_0,a_1\n1,0.5,1.0\n-1,0.5\n", 3,
                     "2 fields, header has 3")

    def test_rejects_header_without_rows(self, tmp_path):
        self.rejects(tmp_path, "y,a_0,a_1\n", 1, "header with no data rows")

    def test_rejects_non_numeric_entry_past_a_blank_line(self, tmp_path):
        # the blank line 3 is skipped, and line 4 is named
        self.rejects(tmp_path, "y,a_0,a_1\n1,0.5,1.0\n\n-1,abc,1.0\n", 4,
                     "could not convert string to float: 'abc'")


@pytest.fixture(scope="module")
def objective():
    spec = SyntheticLogisticSpec(n=80, d=10, sigma=0.8, seed=5)
    return LogisticObjective(generate_logistic(spec))


class TestLogisticObjective:
    def test_gradient_matches_finite_differences(self, objective):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(objective.dimension)
        grad = objective.gradient(x)
        h = 1e-6
        for i in range(objective.dimension):
            e = np.zeros(objective.dimension)
            e[i] = h
            fd = (objective.value(x + e) - objective.value(x - e)) / (2.0 * h)
            assert abs(fd - grad[i]) <= 1e-7 * max(1.0, abs(grad[i]))

    def test_hessian_matches_gradient_differences(self, objective):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(objective.dimension)
        H = objective.hessian(x)
        h = 1e-6
        for i in range(objective.dimension):
            e = np.zeros(objective.dimension)
            e[i] = h
            fd = (objective.gradient(x + e) - objective.gradient(x - e)) / (2.0 * h)
            assert np.allclose(fd, H[:, i], rtol=1e-5, atol=1e-7)

    def test_smoothness_matches_dense_bound(self, objective):
        A = objective.features
        dense = float(np.linalg.eigvalsh(A.T @ A / (4.0 * A.shape[0]))[-1])
        assert objective.smoothness <= dense * (1.0 + 1e-9)
        assert objective.smoothness >= dense * (1.0 - 1e-12)

    def test_hessian_dominated_by_smoothness(self, objective):
        rng = np.random.default_rng(2)
        # at x = 0 the Hessian is A^T A / (4 n), so the bound is tight there
        points = [np.zeros(objective.dimension),
                  *(rng.standard_normal((10, objective.dimension)) * 3.0)]
        for x in points:
            assert smoothness_violation(objective, x) is None

    @pytest.mark.parametrize("n, d", [(200, 12), (8, 30)])
    def test_smoothness_is_exact_for_a_near_degenerate_top_pair(self, n, d):
        # features U diag(s) V^T with s_1 = 1, s_2 = 0.995: a top pair this
        # close stops an iterative estimate below lambda_max (300 power
        # steps: 0.64% under at (200, 12)); (8, 30) takes the A A^T side
        rng = np.random.default_rng(0)
        m = min(n, d)
        U, _ = np.linalg.qr(rng.standard_normal((n, m)))
        V, _ = np.linalg.qr(rng.standard_normal((d, m)))
        s = np.linspace(1.0, 0.1, m)
        s[1] = 0.995
        labels = np.where(rng.standard_normal(n) >= 0.0, 1.0, -1.0)
        objective = LogisticObjective(LogisticDataset(
            features=(U * s) @ V.T, labels=labels))
        A = objective.features
        exact = float(np.linalg.eigvalsh(A.T @ A)[-1]) / (4.0 * n)
        assert abs(objective.smoothness - exact) <= 1e-12 * exact
        assert smoothness_violation(objective, np.zeros(d)) is None


# margins where a naive kernel overflows, underflows, cancels or loses the
# sign of zero: exp(745) overflows, exp(-745) is the last subnormal
EDGE_MARGINS = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0,
                1000.0, -1000.0]
EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny


def close_in_ulps(got, want, ulps):
    """|got - want| <= ulps eps |want|, or below the smallest normal, where
    a subnormal result has no relative precision to bound."""
    error = np.abs(np.asarray(got) - want)
    return bool(np.all((error <= ulps * EPS * np.abs(want)) | (error < TINY)))


class TestLossKernels:
    """The three kernels agree with the textbook ufuncs to a few ulps on
    every margin, and raise no floating-point warning doing it."""

    @settings(max_examples=300)
    @given(margins=st.lists(
        st.one_of(st.sampled_from(EDGE_MARGINS),
                  st.floats(-1000.0, 1000.0)), min_size=1, max_size=64))
    def test_kernels_match_the_reference_ufuncs(self, margins):
        m = np.array(margins)
        out = np.empty_like(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = mean_logistic_loss(m, out)
            with np.errstate(over="ignore"):   # as the gradient runs it
                weights = logistic_weights(m, 1.0, out).copy()
            curvature = logistic_curvature(m, out).copy()
            want_loss = np.mean(np.logaddexp(0.0, -m))
            want_weights = expit(-m)
            want_curvature = expit(m) * expit(-m)
        assert close_in_ulps(loss, want_loss, 4), (loss, want_loss)
        assert close_in_ulps(weights, want_weights, 4)
        assert close_in_ulps(curvature, want_curvature, 4)

    def test_curvature_at_zero_margin_is_exactly_a_quarter(self):
        m = np.array([0.0, -0.0])
        assert np.array_equal(logistic_curvature(m, np.empty(2)), [0.25, 0.25])


class UncachedLogistic:
    """The loss kernels without the margin cache: a fresh S x and fresh
    n-vectors on every call."""

    def __init__(self, objective):
        self.features = objective.features
        self.dimension = objective.dimension
        self.smoothness = objective.smoothness
        self.signed = objective.features * objective.labels[:, None]

    def value(self, x):
        margins = self.signed @ x
        return mean_logistic_loss(margins, np.empty_like(margins))

    def gradient(self, x):
        margins = self.signed @ x
        with np.errstate(over="ignore"):
            weights = logistic_weights(margins, 1.0, np.empty_like(margins))
        return -(self.signed.T @ weights) / self.signed.shape[0]

    def hessian(self, x):
        margins = self.signed @ x
        weights = logistic_curvature(margins, np.empty_like(margins))
        return (self.features.T * weights) @ self.features / self.features.shape[0]


class TestMarginCache:
    """Value, gradient and Hessian at one point share one S x; on an
    instance of one row block every result stays bit-identical to the
    uncached formulas, on several it stays within a few ulps."""

    def test_interleaved_calls_match_uncached_formulas(self):
        cached = LogisticObjective(generate_logistic(
            SyntheticLogisticSpec(n=80, d=10, sigma=0.8, seed=5)))
        plain = UncachedLogistic(cached)
        rng = np.random.default_rng(3)
        x1, x2 = rng.standard_normal((2, cached.dimension))
        moving = x2.copy()

        def check(method, x):
            got = getattr(cached, method)(x)
            want = getattr(plain, method)(x)
            assert np.array_equal(got, want), (method, x)

        check("value", x1)
        check("gradient", x1)        # value -> gradient at one point
        check("gradient", x2)
        check("value", x2)           # gradient -> value at one point
        check("hessian", x2)
        check("hessian", x1)
        check("value", x1)
        check("value", moving)
        moving[0] += 0.5             # the same array, mutated in place
        check("gradient", moving)
        check("value", moving)
        zero = np.zeros(cached.dimension)
        check("value", zero)
        check("gradient", -zero)     # -0.0 equals 0.0: the cache is reused
        check("value", -zero)
        check("hessian", zero)
        integer = np.arange(cached.dimension) % 3 - 1
        check("value", integer)
        check("gradient", integer)
        check("value", integer.astype(float))

        oracle = CountingOracle(cached)
        bad = np.full(cached.dimension, np.nan)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericsError):
                oracle.gradient(bad)
            with pytest.raises(NumericsError):
                oracle.value(bad)
        check("value", x1)
        check("gradient", x1)

    def test_solver_traces_match_uncached_formulas(self, logistic_instance,
                                                   tmp_path):
        plain = UncachedLogistic(logistic_instance)
        x0 = np.zeros(logistic_instance.dimension)
        runs = {
            "aqnpe": lambda f: solve(f, x0, config=SolverConfig(
                max_iters=150, seed=0)),
            "nag": lambda f: nag_solve(f, x0, BaselineConfig(max_iters=300)),
            "bfgs": lambda f: bfgs_solve(f, x0, BaselineConfig(max_iters=60)),
        }
        for name, run in runs.items():
            cached_csv = tmp_path / f"{name}_cached.csv"
            plain_csv = tmp_path / f"{name}_plain.csv"
            write_trace_csv(run(logistic_instance), cached_csv)
            write_trace_csv(run(plain), plain_csv)
            assert cached_csv.read_bytes() == plain_csv.read_bytes(), name

    def test_multi_block_calls_match_uncached_formulas(self):
        # four row blocks, the last one short: the margins and the sums
        # A^T w and A^T diag(c) A are formed block by block, so they differ
        # from the one-product formulas in the last bits only
        cached = LogisticObjective(generate_logistic(
            SyntheticLogisticSpec(n=1700, d=128, sigma=0.8, seed=7)))
        rows = [len(features) for features, *_ in cached._blocks]
        assert len(rows) >= 3 and rows[-1] < rows[0]
        plain = UncachedLogistic(cached)
        A = cached.features
        n = A.shape[0]
        column_sums = np.abs(A).sum(axis=0).max()          # ||A||_1
        rng = np.random.default_rng(11)
        x1, x2 = rng.standard_normal((2, cached.dimension)) * 0.2

        def check_gradient(x):
            got = cached.gradient(x)
            want = plain.gradient(x)
            with np.errstate(over="ignore"):
                weights = logistic_weights(plain.signed @ x, 1.0, np.empty(n))
            scale = column_sums * np.abs(weights).max() / n
            assert np.all(np.abs(got - want) <= 8 * EPS * scale), x
            return got

        miss = check_gradient(x1)                # cache miss
        cached.value(x2)
        check_gradient(x2)                       # hit after a value
        cached.value(x1)
        assert np.array_equal(cached.gradient(x1), miss)   # hit, same bits
        moving = x2.copy()
        cached.gradient(moving)
        moving[0] += 0.5                         # the same array, mutated
        check_gradient(moving)

        # value(x) has the same bits whichever call filled the cache
        cached.gradient(x1)
        after_gradient = cached.value(x1)
        cached.value(x2)
        after_value = cached.value(x1)
        cached.hessian(x2)
        cached.hessian(x1)
        after_hessian = cached.value(x1)
        assert after_gradient == after_value == after_hessian
        assert abs(after_value - plain.value(x1)) <= 8 * EPS * after_value

        got = cached.hessian(x2)
        want = plain.hessian(x2)
        scale = column_sums * np.abs(A).max() / (4.0 * n)
        assert np.all(np.abs(got - want) <= 8 * EPS * scale)

    def test_holds_no_copy_of_the_dataset(self):
        # the margins, one scratch n-vector and the cached point: 2 n + d
        # floats, plus a little for the object itself and its block views;
        # 2000 x 20 is one row block, 20000 x 10 four
        for n, d in ((2000, 20), (20000, 10)):
            dataset = generate_logistic(
                SyntheticLogisticSpec(n=n, d=d, sigma=0.8, seed=1))
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                baseline = tracemalloc.get_traced_memory()[0]
                objective = LogisticObjective(dataset)
                held = tracemalloc.get_traced_memory()[0] - baseline
            finally:
                if started:
                    tracemalloc.stop()
            assert objective.features is dataset.features
            assert held <= (2 * n + d) * 8 + 4096, (n, d)

    @pytest.mark.parametrize("method", ["value", "gradient"])
    def test_call_allocates_no_n_vector(self, method):
        # on a cache miss (a new point: the product runs again) and on a
        # hit; 20000 x 10 is four row blocks, 6000 x 100 ten
        for n, d in ((20000, 10), (6000, 100)):
            objective = LogisticObjective(generate_logistic(
                SyntheticLogisticSpec(n=n, d=d, sigma=0.8, seed=1)))
            rng = np.random.default_rng(0)
            x, y = rng.standard_normal((2, objective.dimension))
            call = getattr(objective, method)
            call(x)                      # warm-up
            for point in (y, y):         # miss, then hit
                tracemalloc.start()
                try:
                    call(point)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < n * 8, (n, d)
