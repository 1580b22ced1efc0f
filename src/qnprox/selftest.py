"""The paper's invariants as pure checks, and the ``bench selftest`` battery.

Each ``*_violation`` function returns None when its invariant holds, else a
message naming the first violation, at the tolerances the tests assert; the
tests and the battery both call them.  Each :data:`CHECKS` entry runs them on
a small seeded instance, and :func:`run_selftest` prints its PASS/FAIL line.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import LogisticObjective, SyntheticLogisticSpec, generate_logistic
from .baselines import BaselineConfig, bfgs_solve
from .errors import ConvergenceError
from .learner import LossSample, init_learner, learner_step
from .line_search import ALPHA1, ALPHA2, BETA, backtracking_search
from .linear_solver import KrylovBasis, conjugate_residual
from .oracles import CountingOracle
from .separation import PackedSymmetric, separation_oracle
from .solver import IterationReport, SolverConfig, momentum_weights, solve


def symmetrize(matrix):
    """Exactly symmetric part (M + M^T) / 2.

    IEEE addition is commutative, so entries (i, j) and (j, i) of the result
    are bit-identical.  The halving is in place, so only the result is
    allocated.
    """
    result = matrix + matrix.T
    result /= 2.0
    return result


def random_psd(rng, d, top=1.0):
    """Random symmetric PSD matrix rescaled so its largest eigenvalue is top."""
    Q = rng.standard_normal((d, d))
    M = Q @ Q.T
    return symmetrize(M * (top / np.linalg.eigvalsh(M)[-1]))


def make_logistic(n, d, seed, sigma=0.8):
    return LogisticObjective(generate_logistic(
        SyntheticLogisticSpec(n=n, d=d, sigma=sigma, seed=seed)))


def reference_minimizer(objective, x0):
    """BFGS to its floor, then Newton steps while they lower ||grad||, to
    ||grad|| <= 1e-13: the library's one x*.  Else raises
    :class:`ConvergenceError` with ``best`` set, never ``LinAlgError``."""
    try:
        record = bfgs_solve(objective, x0,
                            BaselineConfig(max_iters=2000, tolerance=1e-13))
        x = record.final_x
    except ConvergenceError as exc:
        x = exc.best
    g = objective.gradient(x)
    for _ in range(10):
        if np.linalg.norm(g) <= 1e-14:
            break
        try:
            trial = x - np.linalg.solve(objective.hessian(x), g)
        except np.linalg.LinAlgError:
            break
        g_trial = objective.gradient(trial)
        if not np.linalg.norm(g_trial) < np.linalg.norm(g):
            break
        x, g = trial, g_trial
    if not np.linalg.norm(g) <= 1e-13:
        raise ConvergenceError("no reference minimizer to ||grad|| <= 1e-13",
                               best=x)
    return x


def momentum_violation(A, eta, a, rtol=1e-12):
    """The momentum weight a solves a^2 = eta (A + a)."""
    if not abs(eta * (A + a) - a * a) <= rtol * a * a:
        return f"a^2 != eta (A + a) at A={A!r}, eta={eta!r}, a={a!r}"
    return None


def certificate_violation(reports, objective, x_star, f_star, z0,
                          rtol=1e-10):
    """f(x_k) - f* <= ||z0 - x*||^2 / (2 A_k) for every report."""
    dist_sq = float((z0 - x_star) @ (z0 - x_star))
    for rep in reports:
        gap = float(objective.value(rep.x)) - f_star
        bound = dist_sq / (2.0 * rep.A)
        if not gap - bound <= rtol * bound:
            return f"gap {gap:.3e} above {bound:.3e} at k={rep.k}"
    return None


def potential_violation(reports, objective, x_star, f_star, z0, rtol=1e-9):
    """A_k (f(x_k) - f*) + ||z_k - x*||^2 / 2, starting from
    ||z0 - x*||^2 / 2, never rises by more than rtol times that start."""
    phi_0 = 0.5 * float((z0 - x_star) @ (z0 - x_star))
    phi_prev = phi_0
    for rep in reports:
        gap = float(objective.value(rep.x)) - f_star
        phi = rep.A * gap + 0.5 * float((rep.z - x_star) @ (rep.z - x_star))
        if not phi <= phi_prev + rtol * phi_0:
            return f"potential rose to {phi:.6e} at k={rep.k}"
        phi_prev = phi
    return None


def weight_growth_violation(reports, rtol=1e-12):
    """A_k >= c (sum_{i <= k} sqrt(eta_hat_i))^2 for every report, with
    c = (1 - sqrt(BETA))^2 / (4 (2 - sqrt(BETA))^2)."""
    const = (1.0 - math.sqrt(BETA)) ** 2 / (4.0 * (2.0 - math.sqrt(BETA)) ** 2)
    partial = 0.0
    for rep in reports:
        partial += math.sqrt(rep.search.eta_hat)
        if not rep.A >= const * partial ** 2 * (1.0 - rtol):
            return f"A = {rep.A:.3e} below its growth bound at k={rep.k}"
    return None


def gradient_query_violation(record):
    """An aqnpe iteration queries 2 + backtracks gradients, and N of them,
    started at sigma0 = ALPHA2 / L1, at most 3 N (0 on a record with no
    rows)."""
    deltas = record.grad_query_deltas()
    for delta, row in zip(deltas, record.rows):
        if delta != 2 + row.backtracks:
            return (f"{delta} gradient queries with {row.backtracks} "
                    f"backtracks at iteration {row.iteration}")
    bound = 3 * len(deltas)
    if not sum(deltas) <= bound:
        return f"{sum(deltas)} gradient queries > {bound}"
    return None


def fed_loss_violation(losses, L1, rtol=1e-8):
    """Every loss fed to the learner is at most L1^2."""
    for t, loss in enumerate(losses):
        if not loss <= L1 ** 2 * (1.0 + rtol):
            return f"loss {loss:.6e} above L1^2 = {L1 ** 2:.6e} at round {t}"
    return None


def backtrack_violation(outcome, y, rtol=1e-10):
    """After a backtrack from anchor y with gradient g and curvature B, for
    the line search ``outcome`` and its rejected trial x~ = y + s: the
    step-size lower bound
    eta_hat >= ALPHA2 BETA ||x~ - y|| / ||grad(x~) - g - B s||, its model
    error w - Bs of ``outcome.rejected`` (the sample the learner is fed),
    then ||x~ - y|| <= (1 + ALPHA1) / (BETA (1 - ALPHA1)) ||x_hat - y||."""
    if outcome.rejected is None:
        return None
    displacement = float(np.linalg.norm((y + outcome.rejected.s) - y))
    model_error = outcome.rejected.w - outcome.rejected.Bs
    bound = ALPHA2 * BETA * displacement / float(np.linalg.norm(model_error))
    if not outcome.eta_hat >= bound * (1.0 - rtol):
        return f"step {outcome.eta_hat:.6e} below its lower bound {bound:.6e}"
    ratio = (1.0 + ALPHA1) / (BETA * (1.0 - ALPHA1))
    if not (displacement
            <= ratio * np.linalg.norm(outcome.x_hat - y) * (1.0 + rtol)):
        return "rejected trial too far from the anchor"
    return None


def conjugate_residual_violation(result, A, b, alpha, rtol=1e-9,
                                 atol=1e-12):
    """CR on the dense A keeps ||r_k|| <= lambda_max(A) ||A^-1 b|| / (k+1)^2
    and stops within ceil(sqrt((alpha + 1) / alpha * lambda_max(A)))."""
    lam_max = float(np.linalg.eigvalsh(A)[-1])
    s_star_norm = float(np.linalg.norm(np.linalg.solve(A, b)))
    for k, res in enumerate(result.residual_history):
        bound = lam_max * s_star_norm / (k + 1) ** 2
        if not res <= bound * (1.0 + rtol) + atol:
            return f"residual {res:.3e} above {bound:.3e} at iteration {k}"
    cap = math.ceil(math.sqrt((alpha + 1.0) / alpha * lam_max))
    if not result.iterations <= cap:
        return f"{result.iterations} iterations > cap {cap}"
    return None


def separation_violation(result, W, rtol=1e-8):
    """The separation oracle's spectral claims, against dense eigenvalues:
    ||W||_op <= gamma on every branch, and ||W||_op <= 1 when inside."""
    op = float(np.abs(np.linalg.eigvalsh(W)).max())
    if not op <= result.gamma * (1.0 + rtol):
        return f"||W||_op = {op:.6g} above gamma = {result.gamma:.6g}"
    if not result.separated and not op <= 1.0 + rtol:
        return f"||W||_op = {op:.6g} above 1 on an inside result"
    return None


def smoothness_violation(objective, x, rtol=1e-12):
    """The paper's smoothness assumption at x: the Hessian's largest
    eigenvalue is at most the objective's L1."""
    top = float(np.linalg.eigvalsh(objective.hessian(x))[-1])
    if not top <= objective.smoothness * (1.0 + rtol):
        return (f"lambda_max(hessian) = {top!r} above "
                f"L1 = {objective.smoothness!r}")
    return None


def band_violation(B, L1, rtol=1e-8):
    """None when 0 <= B <= L1 I, up to rtol * L1 on either side, else the
    first eigenvalue bound that fails (dense ``eigvalsh``)."""
    eigs = np.linalg.eigvalsh(B)
    if not eigs[0] >= -rtol * L1:
        return f"smallest eigenvalue {eigs[0]:.6e} is below 0"
    if not eigs[-1] <= (1.0 + rtol) * L1:
        return f"largest eigenvalue {eigs[-1]:.6e} is above L1 = {L1:.6e}"
    return None


def learner_bound_violation(state, rtol=1e-8):
    """The learner's chained bound ||W||_op <= op_bound, against dense
    eigenvalues."""
    op = float(np.abs(np.linalg.eigvalsh(np.array(state.W))).max())
    if not op <= state.op_bound * (1.0 + rtol):
        return (f"||W||_op = {op:.6g} above the learner's bound "
                f"{state.op_bound:.6g} at round {state.t}")
    return None


def check_momentum_identity():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        A = float(rng.uniform(0.0, 100.0))
        eta = float(rng.uniform(1e-6, 100.0))
        a, _ = momentum_weights(A, eta, np.zeros(2), np.zeros(2))
        if problem := momentum_violation(A, eta, a):
            return problem
    return None


def check_linear_solver():
    rng = np.random.default_rng(1)
    d, alpha = 15, 0.1
    for trial in range(20):
        B = random_psd(rng, d)
        eta = float(rng.uniform(0.1, 10.0))
        A = np.eye(d) + eta * B
        b = rng.standard_normal(d)
        result = conjugate_residual(KrylovBasis(lambda v: B @ v, b), eta, b,
                                    alpha)
        if np.linalg.norm(A @ result.s - b) > alpha * np.linalg.norm(result.s):
            return f"contract violated on trial {trial}"
        if problem := conjugate_residual_violation(result, A, b, alpha):
            return problem
    B = random_psd(rng, d)
    b = rng.standard_normal(d)
    one_step = conjugate_residual(KrylovBasis(lambda v: B @ v, b),
                                  alpha / 2.0, b, alpha)
    if one_step.iterations > 1:
        return "more than one iteration when eta <= alpha / (2 L1)"
    return None


def check_separation_oracle():
    rng = np.random.default_rng(2)
    calls = 30
    failures = []
    for trial in range(calls):
        M = random_psd(rng, 20, top=float(rng.choice([0.4, 1.2, 4.0])))
        W = PackedSymmetric(20, packed=M[np.tril_indices(20)])
        result = separation_oracle(W, delta=0.05, q=0.05, seed=trial)
        if result.separated and abs(result.weight) not in (1.0, 3.0):
            return f"hyperplane weight {result.weight} on trial {trial}"
        if problem := separation_violation(result, M):
            failures.append(f"trial {trial}: {problem}")
    if len(failures) > max(1, int(0.05 * calls)):
        return f"{len(failures)}/{calls} certificate failures: {failures[0]}"
    return None


def check_learner():
    rng = np.random.default_rng(3)
    d, L1 = 8, 1.0
    state = init_learner(d, L1)
    losses = []
    for t in range(25):
        s = rng.standard_normal(d)
        H = random_psd(rng, d, top=L1)
        sample = LossSample(w=H @ s, s=s, Bs=state.B @ s)
        state, report = learner_step(state, sample, seed=rng)
        losses.append(report.loss_value)
        if state.W.frobenius_norm() > math.sqrt(d) + 1e-12:
            return "Frobenius-ball constraint violated"
        if problem := (band_violation(state.B.dense(), L1)
                       or learner_bound_violation(state)):
            return f"round {t}: {problem}"
    return fed_loss_violation(losses, L1)


def check_smoothness():
    # at x = 0 the logistic Hessian is A^T A / (4 n), so L1 is tight there
    objective = make_logistic(120, 12, seed=7)
    rng = np.random.default_rng(5)
    points = [np.zeros(objective.dimension),
              *rng.standard_normal((4, objective.dimension))]
    return next(filter(None, (smoothness_violation(objective, x)
                              for x in points)), None)


def check_line_search():
    objective = make_logistic(120, 12, seed=7)
    oracle = CountingOracle(objective)
    rng = np.random.default_rng(4)
    for trial in range(5):
        y = rng.standard_normal(objective.dimension)
        g = oracle.gradient(y)
        B = random_psd(rng, objective.dimension, top=objective.smoothness)
        before = oracle.counters.gradient_queries
        outcome = backtracking_search(y, g, B, 64.0 / objective.smoothness,
                                      oracle)
        spent = oracle.counters.gradient_queries - before
        if spent != outcome.backtracks + 1:
            return f"gradient accounting off: {spent} queries"
        if problem := backtrack_violation(outcome, y):
            return problem
    return None


def check_solver_certificate():
    objective = make_logistic(120, 12, seed=7)
    x0 = np.zeros(objective.dimension)
    x_star = reference_minimizer(objective, x0)
    f_star = float(objective.value(x_star))

    reports: list[IterationReport] = []
    record = solve(objective, x0, config=SolverConfig(max_iters=120, seed=0),
                   observer=reports.append)
    return next(filter(None, [
        certificate_violation(reports, objective, x_star, f_star, x0),
        potential_violation(reports, objective, x_star, f_star, x0),
        weight_growth_violation(reports),
        gradient_query_violation(record),
        *(backtrack_violation(rep.search, rep.y) for rep in reports),
    ]), None)


CHECKS = (
    ("momentum-identity", check_momentum_identity),
    ("linear-solver", check_linear_solver),
    ("separation-oracle", check_separation_oracle),
    ("learner", check_learner),
    ("line-search", check_line_search),
    ("solver-certificate", check_solver_certificate),
    ("smoothness", check_smoothness),
)


def run_selftest() -> bool:
    all_ok = True
    for name, check in CHECKS:
        try:
            problem = check()
        except Exception as exc:
            problem = f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and problem is None
        print(f"[PASS] {name}" if problem is None else f"[FAIL] {name}: {problem}")
    return all_ok
