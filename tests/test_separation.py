import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import MonkeyPatch
from scipy.linalg import eigh_tridiagonal

import qnprox.separation
from qnprox.selftest import separation_violation
from qnprox.separation import (_ritz_vector, lanczos_extreme, lanczos_steps,
                               separation_oracle)
from conftest import random_unit_opnorm
from helpers import ProductCounter, hyperplane, lanczos_basis, packed


def stage_lengths(d, delta, q):
    log_term = math.log(11.0 * d / q ** 2)
    n1 = min(math.ceil(log_term + 0.5), d)
    n2 = min(math.ceil(log_term / (4.0 * math.sqrt(2.0 * delta)) + 0.5), d)
    return n1, n2


def random_symmetric(rng, d):
    W = rng.standard_normal((d, d))
    return (W + W.T) / 2.0


def fresh_lanczos(W, iterations, seed):
    """Extreme Ritz values of a new ``iterations``-step basis from ``seed``."""
    return lanczos_extreme(lanczos_basis(W, seed), iterations)


class TestLanczos:
    def test_zero_matrix(self):
        basis = lanczos_basis(np.zeros((6, 6)), seed=0)
        result = lanczos_extreme(basis, iterations=6)
        assert result.lam_max == 0.0
        assert result.lam_min == 0.0
        assert result.matvecs == basis.size == 1
        assert abs(np.linalg.norm(_ritz_vector(basis, 1.0)) - 1.0) < 1e-12

    def test_full_krylov_space_is_exact(self):
        W = np.diag([4.0, 0.0, 0.0, 0.0, 0.0])
        result = fresh_lanczos(W, iterations=5, seed=1)
        assert abs(result.lam_max - 4.0) <= 1e-10
        assert abs(result.lam_min - 0.0) <= 1e-10

    def test_random_start_ritz_quality(self):
        # with the iteration count of the random-start analysis at
        # epsilon = 1/4, q = 0.05, the top Ritz value lands within a quarter
        # of the spectral range in at least 95% of runs
        d, q, eps = 30, 0.05, 0.25
        iterations = math.ceil(0.25 / math.sqrt(eps)
                               * math.log(11.0 * d / q ** 2) + 0.5)
        rng = np.random.default_rng(2024)
        hits = 0
        runs = 200
        for seed in range(runs):
            W = rng.standard_normal((d, d))
            W = (W + W.T) / 2.0
            vals = np.linalg.eigvalsh(W)
            lam1, lamd = float(vals[-1]), float(vals[0])
            result = fresh_lanczos(W, iterations, seed=seed)
            if result.lam_max >= lam1 - eps * (lam1 - lamd):
                hits += 1
        assert hits >= 0.95 * runs

    def test_ritz_values_inside_spectrum(self):
        # Cauchy interlacing: T_k is a compression of W, at every k
        rng = np.random.default_rng(5)
        W = rng.standard_normal((12, 12))
        W = (W + W.T) / 2.0
        vals = np.linalg.eigvalsh(W)
        for k in range(1, 13):
            result = fresh_lanczos(W, iterations=k, seed=9)
            assert (vals[0] - 1e-10 <= result.lam_min <= result.lam_max
                    <= vals[-1] + 1e-10), k

    def test_matvec_accounting(self, monkeypatch):
        # one product per Lanczos step, and none for the read-out
        counter = ProductCounter(monkeypatch)
        W = random_symmetric(np.random.default_rng(3), 10)
        result = fresh_lanczos(W, iterations=6, seed=0)
        assert result.matvecs == counter.products == 6

    def test_step_count_gives_both_stage_lengths(self):
        # 4 sqrt(1/16) is exactly 1, so the coarse count is the fine
        # count's formula at eps = 1/16, for every d and q
        for q in (0.5, 0.05, 1e-3, 1e-6, 1e-9):
            for d in range(2, 3000):
                n1, n2 = stage_lengths(d, 0.01, q)
                assert lanczos_steps(d, q, 1.0 / 16.0) == n1, (d, q)
                assert lanczos_steps(d, q, 0.02) == n2, (d, q)

    def test_iterations_validation(self):
        with pytest.raises(ValueError):
            lanczos_extreme(lanczos_basis(np.eye(3), seed=0), iterations=0)

    def test_continued_run_repeats_one_shot_run(self):
        rng = np.random.default_rng(6)
        W = random_symmetric(rng, 25)
        basis = lanczos_basis(W, seed=4)
        lanczos_extreme(basis, 9)
        continued = lanczos_extreme(basis, 17)
        one_shot_basis = lanczos_basis(W, seed=4)
        one_shot = lanczos_extreme(one_shot_basis, 17)
        assert continued.matvecs == 17 - 9
        assert continued.lam_max == one_shot.lam_max
        assert continued.lam_min == one_shot.lam_min
        assert np.array_equal(_ritz_vector(basis, 1.0),
                              _ritz_vector(one_shot_basis, 1.0))

    def test_ritz_pairs_equal_eigh_tridiagonal(self):
        # the read-out is eigh_tridiagonal on the basis's T_k, and the Ritz
        # vector its eigenvector mapped by the basis vectors, to the bit;
        # with full reorthogonalization the Ritz value is the Ritz vector's
        # Rayleigh quotient up to rounding, measured at most 0.11 k eps
        # ||W||_F here
        W = random_symmetric(np.random.default_rng(8), 80)
        eps = np.finfo(float).eps
        frobenius = float(np.linalg.norm(W))
        for k in range(2, 81):
            basis = lanczos_basis(W, seed=k)
            lam_max, lam_min, _ = lanczos_extreme(basis, k)
            a, b = basis.alphas[:k], basis.betas[:k - 1]
            Q = basis.vectors[:k]
            for lam, sign, index in ((lam_max, 1.0, k - 1),
                                     (lam_min, -1.0, 0)):
                w, y = eigh_tridiagonal(a, b, select="i",
                                        select_range=(index, index))
                want = y[:, 0] @ Q
                want /= np.linalg.norm(want)
                assert lam == w[0], (k, index)
                assert np.array_equal(_ritz_vector(basis, sign), want), (
                    k, index)
                rayleigh = float(want @ packed(W).matvec(want))
                assert abs(lam - rayleigh) <= k * eps * frobenius, (k, index)

    # the breakdown test is relative, so at any scale c = 2^e, which every
    # product and norm carries exactly, the basis takes W's steps; a test
    # absolute in beta would stop it after one step once ||c W|| is below
    # about 1e-14, and gamma would fall below ||c W||_op
    @pytest.mark.parametrize("e", [-30, -50, -80])
    def test_scaled_matrix_scales_the_ritz_values(self, e):
        W = random_symmetric(np.random.default_rng(3), 40)
        c = 2.0 ** e
        plain = fresh_lanczos(W, iterations=20, seed=5)
        scaled = fresh_lanczos(c * W, iterations=20, seed=5)
        assert scaled.matvecs == plain.matvecs == 20
        for got, want in ((scaled.lam_max, plain.lam_max),
                          (scaled.lam_min, plain.lam_min)):
            assert abs(got - c * want) <= 1e-12 * abs(c * want)
        result = separation_oracle(packed(c * W), delta=0.05, q=0.05, seed=5)
        assert separation_violation(result, c * W) is None

    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1),
           start=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_continued_ritz_values_widen_and_match_one_shot(self, d, seed,
                                                             start, data):
        n1 = data.draw(st.integers(1, d), label="n1")
        n2 = data.draw(st.integers(n1, d), label="n2")
        W = random_symmetric(np.random.default_rng(seed), d)
        vals = np.linalg.eigvalsh(W)
        basis = lanczos_basis(W, seed=start)
        coarse = lanczos_extreme(basis, n1)
        fine = lanczos_extreme(basis, n2)
        assert fine.lam_max >= coarse.lam_max - 1e-10
        assert fine.lam_min <= coarse.lam_min + 1e-10
        for result in (coarse, fine):
            assert vals[0] - 1e-10 <= result.lam_min
            assert result.lam_max <= vals[-1] + 1e-10
        # a fresh run from the same start vector
        reference = fresh_lanczos(W, n2, seed=start)
        assert abs(fine.lam_max - reference.lam_max) <= 1e-10
        assert abs(fine.lam_min - reference.lam_min) <= 1e-10


class TestContinuedRun:
    """One Krylov basis per oracle call: the fine stage continues the
    coarse stage's basis instead of restarting it."""

    D, Q = 60, 0.05

    def lanczos_calls(self, monkeypatch):
        calls = []
        original = qnprox.separation.lanczos_extreme

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(result.matvecs)
            return result

        monkeypatch.setattr(qnprox.separation, "lanczos_extreme", recording)
        return calls

    @pytest.mark.parametrize("delta", [0.05, 0.01])
    def test_matvecs_per_branch(self, delta, monkeypatch):
        d, q = self.D, self.Q
        n1, n2 = stage_lengths(d, delta, q)
        assert n1 < d and n2 < d
        calls = self.lanczos_calls(monkeypatch)
        counter = ProductCounter(monkeypatch)
        rng = np.random.default_rng(31)
        cases = [(0.1, "coarse inside", [n1]),
                 (5.0, "coarse separated", [n1]),
                 (1.0, "fine", [n1, max(n1, n2) - n1])]
        for scale, branch, per_call in cases:
            calls.clear()
            counter.products = 0
            W = random_unit_opnorm(rng, d) * scale
            result = separation_oracle(packed(W), delta, q, seed=3)
            assert calls == per_call, branch
            assert result.matvecs == counter.products == sum(per_call)
        assert sum(per_call) == max(n1, n2)

    # the oracle knows its last dimension, so the basis's buffer is
    # allocated once with the rows q_0 .. q_max(n1, n2) and never doubles
    @pytest.mark.parametrize("d, delta", [(60, 0.05), (60, 0.01), (12, 0.05)])
    def test_basis_buffer_is_sized_once(self, d, delta, monkeypatch):
        n1, n2 = stage_lengths(d, delta, self.Q)
        buffers = []
        original = qnprox.separation.lanczos_extreme

        def recording(basis, iterations):
            result = original(basis, iterations)
            buffers.append(basis.vectors)
            return result

        monkeypatch.setattr(qnprox.separation, "lanczos_extreme", recording)
        W = random_unit_opnorm(np.random.default_rng(31), d)
        separation_oracle(packed(W), delta, self.Q, seed=3)
        assert len(buffers) == 2
        assert buffers[0] is buffers[1]
        assert buffers[1].shape == (min(max(n1, n2) + 1, d), d)

    def test_fine_stage_draws_no_second_start(self):
        n1, n2 = stage_lengths(30, 0.05, 0.05)
        W = random_unit_opnorm(np.random.default_rng(2), 30)
        generator = np.random.default_rng(5)
        result = separation_oracle(packed(W), 0.05, 0.05, seed=generator)
        assert result.matvecs == max(n1, n2)
        reference = np.random.default_rng(5)
        reference.standard_normal(30)
        assert generator.standard_normal() == reference.standard_normal()

    # the Krylov space is invariant after one step (zero matrix, decided by
    # the coarse stage) or two (rank one with eigenvalue 0.8, fine stage)
    @pytest.mark.parametrize("kind, matvecs", [("zero", 1),
                                               ("rank-one", 2)])
    def test_counted_matvecs_are_performed_under_breakdown(self, kind,
                                                            matvecs,
                                                            monkeypatch):
        d, delta, q = 30, 0.05, 0.05
        assert min(stage_lengths(d, delta, q)) > 2
        v = np.random.default_rng(9).standard_normal(d)
        W = 0.8 * np.outer(v, v) / float(v @ v)
        if kind == "zero":
            W = np.zeros((d, d))
        counter = ProductCounter(monkeypatch)
        result = separation_oracle(packed(W), delta, q, seed=0)
        assert result.matvecs == counter.products == matvecs
        assert not result.separated
        if kind == "rank-one":
            assert abs(result.gamma - (0.8 + delta)) <= 1e-12

    def test_fine_stage_adds_no_product_when_n2_le_n1(self, monkeypatch):
        # delta >= 1/32 gives n2 <= n1: the fine stage reads the coarse
        # stage's tridiagonal again, and its values, with no product
        d, delta = self.D, 0.05
        n1, n2 = stage_lengths(d, delta, self.Q)
        assert n2 <= n1 < d
        counter = ProductCounter(monkeypatch)
        stages = []
        original = qnprox.separation.lanczos_extreme

        def recording(basis, iterations):
            before = counter.products
            result = original(basis, iterations)
            stages.append((result, counter.products - before))
            return result

        monkeypatch.setattr(qnprox.separation, "lanczos_extreme", recording)
        W = random_unit_opnorm(np.random.default_rng(31), d)
        result = separation_oracle(packed(W), delta, self.Q, seed=3)
        (coarse, coarse_products), (fine, fine_products) = stages
        assert coarse.matvecs == coarse_products == n1
        assert fine.matvecs == fine_products == 0
        assert (fine.lam_max, fine.lam_min) == (coarse.lam_max,
                                                coarse.lam_min)
        assert result.matvecs == counter.products == n1

    # every product the oracle takes is a step of its one basis, and counted
    @settings(max_examples=60)
    @given(d=st.integers(2, 60), delta=st.floats(0.005, 0.5),
           q=st.floats(0.01, 0.5), scale=st.floats(0.05, 6.0),
           seed=st.integers(0, 2 ** 32 - 1),
           start=st.integers(0, 2 ** 32 - 1))
    def test_counted_matvecs_are_the_products_and_the_basis_size(
            self, d, delta, q, scale, seed, start):
        bases = []
        original = qnprox.separation.lanczos_extreme

        def recording(basis, iterations):
            bases.append(basis)
            return original(basis, iterations)

        W = random_unit_opnorm(np.random.default_rng(seed), d) * scale
        with MonkeyPatch.context() as patch:
            counter = ProductCounter(patch)
            patch.setattr(qnprox.separation, "lanczos_extreme", recording)
            result = separation_oracle(packed(W), delta, q, seed=start)
        assert len(bases) in (1, 2) and all(b is bases[0] for b in bases)
        assert result.matvecs == counter.products == bases[0].size
        n1, n2 = stage_lengths(d, delta, q)
        assert result.matvecs <= (n1 if len(bases) == 1 else max(n1, n2))


class TestSeparationOracle:
    def test_zero_matrix_is_inside(self):
        result = separation_oracle(packed(np.zeros((8, 8))), delta=0.1, q=0.05, seed=0)
        assert not result.separated
        assert result.gamma == 0.0
        assert np.array_equal(hyperplane(result), np.zeros((8, 8)))

    def test_spiked_matrix_is_separated_with_margin(self):
        d = 10
        W = np.zeros((d, d))
        W[0, 0] = 4.0
        result = separation_oracle(packed(W), delta=0.1, q=0.05, seed=0)
        assert result.separated
        assert 4.0 < result.gamma <= 8.0 + 1e-12
        assert abs(np.linalg.norm(hyperplane(result)) - 3.0) <= 1e-9
        rng = np.random.default_rng(77)
        for _ in range(100):
            B_hat = random_unit_opnorm(rng, d)
            margin = float(np.sum(hyperplane(result) * (W - B_hat)))
            assert margin >= result.gamma - 1.0 - 1e-9

    def test_small_norm_certified_inside(self):
        d, runs = 12, 200
        rng = np.random.default_rng(99)
        inside = 0
        for seed in range(runs):
            W = random_unit_opnorm(rng, d) * 0.4
            result = separation_oracle(packed(W), delta=0.05, q=0.05, seed=seed)
            if not result.separated:
                inside += 1
        assert inside >= 0.95 * runs

    def test_certificates_against_dense_eig(self):
        # all three branches; whenever the oracle speaks, the dense
        # eigendecomposition confirms it (up to the allowed failure rate)
        d = 15
        rng = np.random.default_rng(123)
        failures = 0
        runs = 120
        for seed in range(runs):
            target = float(rng.choice([0.3, 0.8, 1.2, 3.0]))
            W = random_unit_opnorm(rng, d) * target
            delta = 0.05
            result = separation_oracle(packed(W), delta=delta, q=0.05, seed=seed)
            ok = separation_violation(result, W) is None
            if not result.separated:
                assert np.array_equal(hyperplane(result), np.zeros((d, d)))
                assert result.gamma <= 1.0
            else:
                assert result.gamma > 1.0
                s_norm = float(np.linalg.norm(hyperplane(result)))
                assert abs(s_norm - 1.0) <= 1e-9 or abs(s_norm - 3.0) <= 1e-9
                for _ in range(20):
                    B_hat = random_unit_opnorm(rng, d)
                    margin = float(np.sum(hyperplane(result) * (W - B_hat)))
                    if margin < result.gamma - 1.0 - delta - 1e-9:
                        ok = False
            if not ok:
                failures += 1
        assert failures <= 0.05 * runs

    # rank one c e e^T: the basis is invariant after two steps and the
    # extreme Ritz value is c to rounding, so gamma tells the stage apart
    # (2 |c| coarse, |c| + delta fine)
    @pytest.mark.parametrize("c, gamma, weight", [
        (0.3, 0.6, 0.0),            # coarse, inside
        (4.0, 8.0, 3.0),            # coarse, separated by the top pair
        (-4.0, 8.0, -3.0),          # coarse, separated by the bottom pair
        (0.8, 0.8 + 0.1, 0.0),      # fine, inside
        (1.2, 1.2 + 0.1, 1.0),      # fine, separated by the top pair
        (-1.2, 1.2 + 0.1, -1.0),    # fine, separated by the bottom pair
    ])
    def test_rank_one_certificate_per_branch(self, c, gamma, weight):
        d = 10
        e = np.random.default_rng(3).standard_normal(d)
        e /= np.linalg.norm(e)
        W = c * np.outer(e, e)
        result = separation_oracle(packed(W), delta=0.1, q=0.05, seed=0)
        assert abs(result.gamma - gamma) <= 1e-12
        assert result.weight == weight
        assert result.separated == (weight != 0.0)
        assert abs(np.linalg.norm(result.u) - 1.0) <= 1e-12
        assert abs(abs(result.u @ e) - 1.0) <= 1e-12
        assert all(np.ndim(v) < 2 for v in vars(result).values())

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        W = random_unit_opnorm(rng, 9) * 1.3
        a = separation_oracle(packed(W), delta=0.07, q=0.02, seed=42)
        b = separation_oracle(packed(W), delta=0.07, q=0.02, seed=42)
        assert a.gamma == b.gamma
        assert a.separated == b.separated
        assert a.weight == b.weight
        assert np.array_equal(a.u, b.u)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            separation_oracle(packed(np.eye(3)), delta=0.0, q=0.5, seed=0)
        with pytest.raises(ValueError):
            separation_oracle(packed(np.eye(3)), delta=0.1, q=1.5, seed=0)
