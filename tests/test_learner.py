import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import qnprox.learner
import qnprox.solver
from qnprox import SolverConfig, solve
from qnprox.learner import (FAILURE_BUDGET, Curvature, LossSample,
                            _surrogate_coefficient, delta_schedule,
                            init_learner, learner_step, q_schedule)
from qnprox.selftest import (band_violation, fed_loss_violation,
                             learner_bound_violation)
from qnprox.separation import PackedSymmetric, separation_oracle
from conftest import random_psd
from helpers import (CountingMatrix, ProductCounter, dense_learner_step,
                     hyperplane, loss_sample, matrix_loss,
                     matrix_loss_gradient, packed, project_frobenius_ball,
                     rescale_to_unit_ball)


def fd_symmetric_gradient(B, sample, h=1e-6):
    """Central finite differences of the loss over the symmetric basis."""
    d = B.shape[0]
    grad = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            direction = np.zeros((d, d))
            direction[i, j] = 1.0
            direction[j, i] = 1.0
            plus = matrix_loss(B + h * direction, sample)
            minus = matrix_loss(B - h * direction, sample)
            slope = (plus - minus) / (2.0 * h)
            if i == j:
                grad[i, i] = slope
            else:
                grad[i, j] = grad[j, i] = slope / 2.0
    return grad


class TestLoss:
    def test_exact_fit_gives_zero(self):
        rng = np.random.default_rng(0)
        B = random_psd(rng, 5)
        s = rng.standard_normal(5)
        assert matrix_loss(B, loss_sample(B, B @ s, s)) == 0.0

    def test_zero_matrix_unit_ratio(self):
        s = np.array([1.0, -2.0, 0.5])
        B = np.zeros((3, 3))
        assert matrix_loss(B, loss_sample(B, s, s)) == 1.0

    def test_bounded_by_smoothness_squared(self):
        # w = H s with 0 <= H <= L1 I and any 0 <= B <= L1 I keeps the loss
        # below L1^2
        rng = np.random.default_rng(1)
        d, L1 = 7, 2.5
        losses = []
        for _ in range(200):
            H = random_psd(rng, d, top=L1 * float(rng.uniform(0.1, 1.0)))
            B = random_psd(rng, d, top=L1 * float(rng.uniform(0.1, 1.0)))
            s = rng.standard_normal(d)
            losses.append(matrix_loss(B, loss_sample(B, H @ s, s)))
        assert fed_loss_violation(losses, L1, rtol=1e-12) is None

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            LossSample(w=np.ones(3), s=np.zeros(3), Bs=np.zeros(3))

    @pytest.mark.parametrize("field, w, Bs", [
        ("w", np.ones(4), np.ones(3)),
        ("w", np.ones((3, 1)), np.ones(3)),
        ("Bs", np.ones(3), np.ones(4)),
        ("Bs", np.ones(3), np.array([1.0, np.nan, 1.0])),
        ("Bs", np.ones(3), np.array([1.0, 1.0, -np.inf])),
    ])
    def test_malformed_sample_names_the_field(self, field, w, Bs):
        # w, s and Bs must share a shape and Bs must be finite: the step
        # reads Bs as given and takes no product that would show it wrong
        with pytest.raises(ValueError, match=rf"loss sample field {field} "):
            LossSample(w=w, s=np.ones(3), Bs=Bs)

    def test_matvec_accounting(self):
        rng = np.random.default_rng(2)
        B = random_psd(rng, 4)
        s = rng.standard_normal(4)
        sample = loss_sample(B, s, s)
        B = B.view(CountingMatrix)
        matrix_loss(B, sample)
        matrix_loss_gradient(B, sample)
        assert B.products == 2


class TestLossGradient:
    def test_zero_at_exact_fit(self):
        rng = np.random.default_rng(3)
        B = random_psd(rng, 6)
        s = rng.standard_normal(6)
        grad = matrix_loss_gradient(B, loss_sample(B, B @ s, s))
        assert np.allclose(grad, 0.0, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        d = 8
        for _ in range(5):
            B = random_psd(rng, d)
            sample = loss_sample(B, rng.standard_normal(d),
                                 rng.standard_normal(d))
            grad = matrix_loss_gradient(B, sample)
            fd = fd_symmetric_gradient(B, sample)
            assert (np.linalg.norm(fd - grad)
                    <= 1e-6 * max(1.0, np.linalg.norm(grad)))

    def test_frobenius_bound_via_loss(self):
        # ||grad||_F <= ||grad||_* <= 2 sqrt(loss)
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(2, 10))
            B = random_psd(rng, d)
            sample = loss_sample(B, rng.standard_normal(d),
                                 rng.standard_normal(d))
            grad = matrix_loss_gradient(B, sample)
            loss = matrix_loss(B, sample)
            fro = np.linalg.norm(grad)
            nuc = np.linalg.norm(grad, "nuc")
            assert fro <= nuc * (1.0 + 1e-10)
            assert nuc <= 2.0 * math.sqrt(loss) * (1.0 + 1e-10)

    def test_exactly_symmetric_rank_two(self):
        rng = np.random.default_rng(6)
        B = random_psd(rng, 9)
        sample = loss_sample(B, rng.standard_normal(9),
                             rng.standard_normal(9))
        grad = matrix_loss_gradient(B, sample)
        assert np.max(np.abs(grad - grad.T)) == 0.0
        assert np.linalg.matrix_rank(grad, tol=1e-10) <= 2


class TestSchedules:
    def test_delta_square_sum_bounded_up_to_1e6(self):
        t = np.arange(0, 10 ** 6, dtype=float)
        total = float(np.sum(1.0 / ((t + 2.0) * np.log(t + 2.0) ** 2)))
        assert total <= 2.5

    def test_q_schedule_total_failure_budget(self):
        total = sum(q_schedule(t) for t in range(1, 10 ** 5))
        assert total <= FAILURE_BUDGET

    def test_q_schedule_starts_at_one(self):
        with pytest.raises(ValueError):
            q_schedule(0)


class TestRescale:
    def test_matches_the_dense_identity_formula(self):
        # the in-place diagonal shift gives the same floats as adding a dense
        # (L1 / 2) I into the curvature's dense form
        rng = np.random.default_rng(21)
        for d in (1, 2, 7, 40):
            for _ in range(5):
                L1 = float(rng.uniform(0.1, 10.0))
                M = rng.standard_normal((d, d))
                M = (M + M.T) / 2.0
                kappa = float(rng.uniform(0.1, 10.0))
                assert np.array_equal(Curvature(packed(M), kappa,
                                                L1 / 2.0).dense(),
                                      kappa * M + (L1 / 2.0) * np.eye(d))

    def test_leaves_its_input_alone(self):
        rng = np.random.default_rng(22)
        W = packed(rng.standard_normal((6, 6)))
        before = W.packed.copy()
        Curvature(W, 0.5, 1.0).dense()
        assert np.array_equal(W.packed, before)


class TestLearnerStep:
    def test_centered_start_maps_to_zero(self):
        # the start, the center (L1 / 2) I, gives W = 0 and B = (L1 / 2) I
        d, L1 = 5, 3.0
        state = init_learner(d, L1)
        assert np.array_equal(np.array(state.W), np.zeros((d, d)))
        assert np.array_equal(state.B.dense(), (L1 / 2.0) * np.eye(d))

    def test_projection_identity_inside_ball(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 6)) * 0.01
        projected, norm = project_frobenius_ball(M, math.sqrt(6))
        assert projected is M
        assert norm == float(np.linalg.norm(M))

    def test_clock_counts_fed_losses(self):
        rng = np.random.default_rng(8)
        d, L1 = 4, 1.0
        state = init_learner(d, L1)
        for expected in range(1, 6):
            s = rng.standard_normal(d)
            state, _ = learner_step(state, loss_sample(state.B, s, s),
                                    seed=rng)
            assert state.t == expected

    def test_iterates_stay_in_frobenius_ball_and_feasible(self):
        rng = np.random.default_rng(9)
        d, L1 = 8, 2.0
        state = init_learner(d, L1)
        for _ in range(40):
            s = rng.standard_normal(d)
            H = random_psd(rng, d, top=L1)
            state, _ = learner_step(state, loss_sample(state.B, H @ s, s),
                                    seed=rng)
            assert state.W.frobenius_norm() <= math.sqrt(d) + 1e-12
            B = state.B.dense()
            assert band_violation(B, L1) is None
            assert np.max(np.abs(B - B.T)) == 0.0

    def test_surrogate_gradient_norm_bound(self):
        # repeated strongly-aligned losses push the auxiliary iterate out of
        # the operator-norm ball, so the separated branch (and its surrogate
        # correction) actually fires; whenever it does,
        # ||G_tilde||_F <= 4 ||G||_*
        rng = np.random.default_rng(10)
        d, L1 = 6, 1.0
        state = init_learner(d, L1)
        s = rng.standard_normal(d)
        checked = 0
        for _ in range(60):
            sample = loss_sample(state.B, 10.0 * s, s)
            G = (2.0 / L1) * matrix_loss_gradient(state.B, sample)
            if state.certificate is not None:
                B_hat = rescale_to_unit_ball(state.B.dense(), L1)
                coeff = max(0.0, -float(np.sum(G * B_hat)))
                G_tilde = G + coeff * hyperplane(state.certificate)
                assert (np.linalg.norm(G_tilde)
                        <= 4.0 * np.linalg.norm(G, "nuc") * (1.0 + 1e-10))
                checked += 1
            state, _ = learner_step(state, sample, seed=rng)
        assert checked > 0

    @staticmethod
    def separated_state(rng, d, L1):
        """Feed one aligned loss (w = 10 s) until a separation call leaves
        a certificate in the state."""
        state = init_learner(d, L1)
        s = np.ones(d)
        while state.certificate is None:
            state, _ = learner_step(state, loss_sample(state.B, 10.0 * s, s),
                                    seed=rng)
        return state

    def test_surrogate_coefficient_matches_dense_inner_product(self):
        # the vector formula against max(0, -<G, B_hat>) formed densely
        rng = np.random.default_rng(14)
        clamped = 0
        for _ in range(500):
            d = int(rng.integers(1, 20))
            L1 = float(rng.uniform(0.1, 10.0))
            B = random_psd(rng, d, top=L1 * float(rng.uniform(0.0, 1.0)))
            sample = loss_sample(B, rng.standard_normal(d),
                                 rng.standard_normal(d))
            G = (2.0 / L1) * matrix_loss_gradient(B, sample)
            dense = max(0.0, -float(np.sum(G * rescale_to_unit_ball(B, L1))))
            vector = _surrogate_coefficient(sample.s, sample.Bs,
                                            sample.w - sample.Bs,
                                            float(sample.s @ sample.s), L1)
            assert abs(vector - dense) <= 1e-12 * dense
            clamped += dense == 0.0
        assert 0 < clamped < 500

    def test_surrogate_step_matches_dense_reference(self):
        rng = np.random.default_rng(15)
        d, L1 = 6, 1.0
        state = self.separated_state(rng, d, L1)
        assert state.certificate.weight in (-3.0, -1.0, 1.0, 3.0)
        B_hat = rescale_to_unit_ball(state.B.dense(), L1)
        coeff = 0.0
        while coeff == 0.0:
            sample = loss_sample(state.B, rng.standard_normal(d),
                                 rng.standard_normal(d))
            G = (2.0 / L1) * matrix_loss_gradient(state.B, sample)
            coeff = max(0.0, -float(np.sum(G * B_hat)))
        expected, _ = project_frobenius_ball(
            np.array(state.W)
            - state.rho * (G + coeff * hyperplane(state.certificate)),
            math.sqrt(d))
        state, _ = learner_step(state, sample, seed=rng)
        assert np.allclose(np.array(state.W), expected, rtol=0.0,
                           atol=1e-14)

    def test_state_holds_one_dense_matrix_after_separation(self):
        # W is the only matrix, held as its packed lower triangle of
        # d (d + 1) / 2 entries; B is derived from it
        rng = np.random.default_rng(16)
        d, L1 = 6, 1.0
        state = self.separated_state(rng, d, L1)
        assert not any(isinstance(v, np.ndarray) for v in vars(state).values())
        arrays = [state.W.packed]
        arrays += [v for v in vars(state.certificate).values()
                   if isinstance(v, np.ndarray)]
        assert sum(a.size for a in arrays) == d * (d + 1) // 2 + d
        assert [a.ndim for a in arrays] == [1, 1]
        assert state.B.W is state.W

    def test_report_counts_separation_matvecs(self, monkeypatch):
        # the report equals the products taken: the oracle's with W_next on
        # the steps that call it, none on the steps whose norm bound
        # certifies W_next inside.  The loss's B s comes with the sample, so
        # the step takes no product of its own
        counter = ProductCounter(monkeypatch)
        calls = []

        def oracle(*args):
            before = counter.products
            result = separation_oracle(*args)
            calls.append((result.separated, counter.products - before))
            return result

        monkeypatch.setattr(qnprox.learner, "separation_oracle", oracle)
        rng = np.random.default_rng(17)
        d, L1 = 5, 1.0
        state = init_learner(d, L1)
        kinds = set()
        for k in range(60):
            # curvature 3 L1 gives skips and inside calls, 10 L1 separations
            s = rng.standard_normal(d)
            sample = loss_sample(state.B, (3.0 if k < 40 else 10.0) * s, s)
            calls.clear()
            before = counter.products
            state, report = learner_step(state, sample, seed=rng)
            assert len(calls) <= 1
            oracle_products = sum(taken for _, taken in calls)
            assert counter.products - before == oracle_products
            assert report.matvecs == oracle_products
            if calls:
                assert report.matvecs > 0
                kinds.add("separated" if calls[0][0] else "inside")
            else:
                kinds.add("skipped")
        assert kinds == {"skipped", "inside", "separated"}

    def test_skipped_step_draws_the_lanczos_start_vector(self, monkeypatch):
        # a skip advances the generator by the d normals the oracle's
        # Lanczos start would have drawn, so later calls see the same stream
        def no_oracle(*args):
            raise AssertionError("the norm bound should have certified")

        monkeypatch.setattr(qnprox.learner, "separation_oracle", no_oracle)
        d, L1 = 7, 1.0
        state = init_learner(d, L1)
        s = np.random.default_rng(18).standard_normal(d)
        generator = np.random.default_rng(5)
        reference = np.random.default_rng(5)
        state, report = learner_step(state, loss_sample(state.B, s, s),
                                     seed=generator)
        assert report.matvecs == 0
        assert state.op_bound <= 1.0
        reference.standard_normal(d)
        assert np.array_equal(generator.standard_normal(4),
                              reference.standard_normal(4))

    def test_initial_bound_is_the_frobenius_norm(self):
        # ||W_0||_F = 0 at the center
        assert init_learner(6, 2.0).op_bound == 0.0

    def test_static_comparator_regret_bound(self):
        # with a fixed comparator H in Z the cumulative loss obeys
        # sum loss_t(B_t) <= 256 ||B0 - H||_F^2 + 4 sum loss_t(H)
        #                    + 2 L1^2 sum delta_t^2
        rng = np.random.default_rng(0)
        d, L1, T = 6, 1.0, 20
        H = random_psd(rng, d, top=0.8 * L1)
        B0 = (L1 / 2.0) * np.eye(d)
        state = init_learner(d, L1)
        total_alg = total_cmp = 0.0
        for _ in range(T):
            s = rng.standard_normal(d)
            sample = loss_sample(state.B,
                                 H @ s + 0.05 * rng.standard_normal(d), s)
            total_alg += matrix_loss(state.B, sample)
            total_cmp += matrix_loss(H, sample)
            state, _ = learner_step(state, sample, seed=rng)
        delta_sq = sum(delta_schedule(t) ** 2 for t in range(T))
        bound = (256.0 * np.linalg.norm(B0 - H) ** 2 + 4.0 * total_cmp
                 + 2.0 * L1 ** 2 * delta_sq)
        assert total_alg <= bound

    def test_deterministic_given_seed(self):
        d, L1 = 5, 1.0
        sample_rng = np.random.default_rng(11)
        pairs = [(sample_rng.standard_normal(d), sample_rng.standard_normal(d))
                 for _ in range(6)]
        results = []
        for _ in range(2):
            state = init_learner(d, L1)
            rng = np.random.default_rng(77)
            for w, s in pairs:
                state, _ = learner_step(state, loss_sample(state.B, w, s),
                                        seed=rng)
            results.append(state.B.dense())
        assert np.array_equal(results[0], results[1])


def learner_walk(d, steps=60, L1=2.0, rho=0.09):
    """(state, sample, seed) for each step of a ``learner_step`` walk from
    the center of Z.  Its losses, w = a s + noise with a drawn from [-3, 6],
    give skipped, inside and separated steps at each d the tests use.  A
    step consumes its state, so each yielded state holds its own copy of W,
    and the walk steps on its own."""
    rng = np.random.default_rng(d)
    state = init_learner(d, L1, rho=rho)
    for k in range(steps):
        s = rng.standard_normal(d)
        w = float(rng.uniform(-3.0, 6.0)) * s + 0.3 * rng.standard_normal(d)
        sample = loss_sample(state.B, w, s)
        W = PackedSymmetric(d, state.W.name, state.W.packed.copy())
        yield replace(state, W=W), sample, 1000 + k
        state, _ = learner_step(state, sample, seed=1000 + k)


def relative_frobenius(a, b):
    return float(np.linalg.norm(a - b)) / float(np.linalg.norm(b))


@pytest.mark.parametrize("d", [5, 12, 40, 64])
def test_in_place_step_matches_the_dense_expression(d):
    # the BLAS rank updates round differently from the dense expression,
    # so W and B agree to a relative 1e-14 in Frobenius norm, and so does
    # the bound read from W; the branch, the loss and the counts agree
    # exactly
    branches = set()
    for state, sample, seed in learner_walk(d):
        ref, ref_report, ref_B = dense_learner_step(state, sample, seed)
        new, report = learner_step(state, sample, seed)
        assert relative_frobenius(np.array(new.W), ref.W) <= 1e-14
        assert relative_frobenius(new.B.dense(), ref_B) <= 1e-14
        assert abs(new.op_bound - ref.op_bound) <= 1e-14 * ref.op_bound
        assert (new.t, report) == (ref.t, ref_report)
        assert (new.certificate is None) == (ref.certificate is None)
        if new.certificate is not None:
            assert new.certificate.weight == ref.certificate.weight
            u_gap = new.certificate.u - ref.certificate.u
            assert np.linalg.norm(u_gap) <= 1e-12
        branches.add("skip" if report.matvecs == 0 else
                     "inside" if new.certificate is None else "separated")
    assert branches == {"skip", "inside", "separated"}


@pytest.mark.parametrize("d", [5, 40])
def test_operator_product_matches_its_dense_form(d):
    # B v = (L1 / 2) v + kappa (W v) rounds differently from the dense
    # product, by a few ulps, whichever branch formed the state
    rng = np.random.default_rng(23)
    branches = set()
    for state, sample, seed in learner_walk(d):
        new, report = learner_step(state, sample, seed)
        branches.add("skip" if report.matvecs == 0 else
                     "inside" if new.certificate is None else "separated")
        v = rng.standard_normal(d)
        dense = new.B.dense() @ v
        assert (np.linalg.norm(new.B @ v - dense)
                <= 1e-13 * np.linalg.norm(dense))
    assert branches == {"skip", "inside", "separated"}


def learner_allocation_peak(state, sample, seed, monkeypatch):
    """The new state of ``learner_step``, and the most bytes it held
    allocated above its start outside the separation oracle: the peak is
    read before each oracle call and reset after it."""
    peaks = []

    def oracle(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        result = separation_oracle(*args)
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(qnprox.learner, "separation_oracle", oracle)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        new, _ = learner_step(state, sample, seed)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        if started:
            tracemalloc.stop()
    return new, max(peaks) - baseline


@pytest.mark.parametrize("d", [5, 40])
def test_step_writes_only_into_the_lower_triangle_of_W(d, monkeypatch):
    # the step consumes state.W: it becomes the new state's W, updated in
    # its one packed vector of the lower triangle, and outside the oracle
    # it allocates less than that vector, so no d x d array and no copy of
    # W; every
    # other input is left alone.  The walk never leaves the Frobenius ball,
    # so one more step from the center takes a loss large enough to run
    # the projection scale
    steps = list(learner_walk(d))
    s = np.ones(d)
    start = init_learner(d, 2.0, rho=0.09)
    steps.append((start, loss_sample(start.B, 1000.0 * s, s), 7))
    certificates = 0
    for state, sample, seed in steps:
        others = [sample.s, sample.w, sample.Bs]
        if state.certificate is not None:
            others.append(state.certificate.u)
            certificates += 1
        before = [a.copy() for a in others]
        vector = state.W.packed
        new, peak = learner_allocation_peak(state, sample, seed, monkeypatch)
        assert new.W is state.W and new.W.packed is vector
        assert vector.shape == (d * (d + 1) // 2,)
        # at d = 5 the step's Python objects, about 2 kB, outweigh the
        # 120-byte vector; at d = 40 they take under a third of it
        assert peak < vector.nbytes or d < 40
        assert all(np.array_equal(a, b) for a, b in zip(others, before))
        assert not any(np.shares_memory(vector, a) for a in others)
    assert certificates > 0
    assert new.W.frobenius_norm() <= math.sqrt(d) * (1.0 + 1e-12)
    assert new.W.frobenius_norm() >= math.sqrt(d) * (1.0 - 1e-12)


def test_triangle_norm_and_completion():
    # the packed lower triangle gives ||M||_F and the dense M, whose
    # eigenvalues are M's to the bit
    rng = np.random.default_rng(24)
    for d in (1, 2, 7, 64, 130):
        M = rng.standard_normal((d, d))
        M = (M + M.T) / 2.0
        W = packed(M)
        assert W.packed.shape == (d * (d + 1) // 2,)
        assert np.array_equal(np.array(W), M)
        assert np.array_equal(np.array(W, copy=True), M)
        assert np.array_equal(np.linalg.eigvalsh(np.array(W)),
                              np.linalg.eigvalsh(M))
        norm = float(np.linalg.norm(M))
        assert abs(W.frobenius_norm() - norm) <= 1e-14 * norm


def test_step_refuses_a_W_that_BLAS_would_copy():
    # a strided packed vector reaches BLAS as a copy, and the in-place
    # update would be lost without a word
    state = init_learner(4, 1.0)
    state.W.packed = np.zeros(2 * state.W.packed.size)[::2]
    sample = loss_sample(state.B, 3.0 * np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match="the learner's W must be a "
                                         "contiguous float64 vector"):
        learner_step(state, sample, 0)


@pytest.mark.parametrize("rho", [1.0 / 128.0, 1.0 / 16.0])
def test_chained_bound_holds_after_every_step(logistic_instance, monkeypatch,
                                               rho):
    # the acceptance instance, solver seeds 0-2: after every learner step
    # the dense spectrum of W stays under the state's bound, and both skipped
    # steps (no matvec) and oracle calls occur
    problems, matvecs = [], []

    def checked_step(state, sample, seed):
        state, report = learner_step(state, sample, seed)
        problems.append(learner_bound_violation(state))
        matvecs.append(report.matvecs)
        return state, report

    monkeypatch.setattr(qnprox.solver, "learner_step", checked_step)
    x0 = np.zeros(logistic_instance.dimension)
    for seed in range(3):
        solve(logistic_instance, x0,
              config=SolverConfig(max_iters=500, rho=rho, seed=seed))
    assert not any(problems)
    skipped = matvecs.count(0)
    assert 0 < skipped < len(matvecs)
