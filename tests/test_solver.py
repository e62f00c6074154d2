import math
import warnings
from functools import partial

import numpy as np
import pytest

from attninv import gradient, hessian, model, solver
from attninv.analysis import choose_gamma, effective_bound_constant
from attninv.generate import make_instance, perturbed_start
from attninv.gradient import grad_L
from attninv.hessian import hessian_L
from attninv.model import ProblemSpec, check_input, forward_cache, loss
from attninv.solver import (
    CONVERGED,
    MAX_ITER,
    NUMERICAL_FAILURE,
    gd_solve,
    newton_solve,
)
from conftest import ACCEPTANCE_SHAPES, matmul_gd, plain_newton


def scalar_spec():
    # n = d = 1: softmax weight is 1, so the residual is x*v - b and the
    # loss a pure quadratic
    return ProblemSpec(1, 1, [[0.0]], [[1.0]], [[0.5]])


# both solvers, called as solve(spec, X0, eps=..., max_iter=...), for the
# stop, failure and record contract their shared driver holds
BOTH_SOLVERS = pytest.mark.parametrize(
    "solve", [newton_solve, partial(gd_solve, eta=0.4)], ids=["newton", "gd"])


def test_newton_scalar_quadratic():
    spec = scalar_spec()
    X, recs, status = newton_solve(spec, [[0.4]], eps=1e-12)
    assert status == CONVERGED
    assert len(recs) <= 3
    assert X[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert loss(spec, X) <= 1e-24


def test_newton_recovers_synthesized_instance():
    spec, x_true = make_instance(3, 3, 2)
    X0 = perturbed_start(x_true, 0.01, 11)
    X, recs, status = newton_solve(spec, X0, eps=1e-12, max_iter=50)
    assert status == CONVERGED
    assert loss(spec, X) <= 1e-16
    assert np.linalg.norm(X - x_true) <= 1e-6


def test_newton_descent_is_monotone_with_backtracking():
    spec, x_true = make_instance(5, 3, 2)
    X0 = perturbed_start(x_true, 0.5, 3)
    _, recs, status = newton_solve(spec, X0, eps=1e-12, max_iter=60)
    assert status == CONVERGED
    losses = [r.loss for r in recs]
    assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_newton_quadratic_tail():
    spec, x_true = make_instance(7, 3, 2)
    gamma_spec = spec.with_gamma(1.0)
    X0 = perturbed_start(x_true, 0.05, 5)
    _, recs, status = newton_solve(gamma_spec, X0, eps=1e-10, max_iter=60)
    assert status == CONVERGED
    tail = [r.grad_norm for r in recs[-3:]]
    assert len(tail) == 3
    # g_{k+1} <= c * g_k^2 with a finite contraction constant, and the
    # tail itself decreasing fast
    c = max(b / a**2 for a, b in zip(tail, tail[1:]))
    assert np.isfinite(c)
    assert tail[2] < tail[1] < tail[0]
    assert tail[2] <= c * tail[1] ** 2 + 1e-15


def test_newton_respects_max_iter():
    spec, x_true = make_instance(9, 3, 2)
    X0 = perturbed_start(x_true, 0.3, 1)
    _, recs, status = newton_solve(spec, X0, eps=1e-15, max_iter=2)
    assert status == MAX_ITER
    assert len(recs) == 2
    assert [r.iter for r in recs] == [0, 1]


def test_newton_is_deterministic():
    spec, x_true = make_instance(2, 3, 2)
    X0 = perturbed_start(x_true, 0.02, 4)
    runs = []
    for _ in range(2):
        X, recs, status = newton_solve(spec, X0, eps=1e-12)
        runs.append((X.tobytes(), recs, status))
    assert runs[0] == runs[1]


def test_solver_blind_to_target_provenance():
    spec, x_true = make_instance(6, 3, 2)
    # rebuild the same target from raw values, as if loaded from a file
    clone = ProblemSpec(spec.n, spec.d, spec.W.copy(), spec.V.copy(),
                        spec.B.copy(), spec.gamma)
    X0 = perturbed_start(x_true, 0.01, 8)
    Xa, ra, sa = newton_solve(spec, X0, eps=1e-12)
    Xb, rb, sb = newton_solve(clone, X0, eps=1e-12)
    assert sa == sb and np.array_equal(Xa, Xb)
    assert [r.loss for r in ra] == [r.loss for r in rb]


def test_gd_scalar_contraction_and_divergence():
    spec = scalar_spec()
    X, recs, status = gd_solve(spec, [[0.4]], eta=0.4, max_iter=200, eps=1e-10)
    assert status == CONVERGED
    assert X[0, 0] == pytest.approx(0.5, abs=1e-9)

    _, recs, status = gd_solve(spec, [[0.4]], eta=2.0, max_iter=200, eps=1e-10)
    assert status == NUMERICAL_FAILURE
    losses = [r.loss for r in recs]
    assert losses[-1] > losses[0]


def test_gd_reaches_small_loss_slower_than_newton():
    spec, x_true = make_instance(3, 3, 2)
    X0 = perturbed_start(x_true, 0.01, 11)
    _, newton_recs, _ = newton_solve(spec, X0, eps=1e-12)
    _, gd_recs, status = gd_solve(spec, X0, eta=0.1, max_iter=5000, eps=1e-12)
    reached = [r.iter for r in gd_recs if r.loss <= 1e-8]
    assert reached, "gradient descent never reached loss 1e-8"
    assert reached[0] > len(newton_recs)


@pytest.mark.parametrize("seed,n,d", [(402, 4, 3), (901, 3, 3)])
def test_gd_with_gamma_equals_matmul_reference_loop_bitwise(seed, n, d):
    # gamma > 0 takes the gamma terms of the loss and the gradient, which
    # the pinned artifacts (all solved at gamma = 0) never reach; a tenth of
    # the 1/lambda_max step keeps all 200 iterations short of the stop test
    spec, x_true = make_instance(seed, n, d)
    spec = spec.with_gamma(0.3)
    X0 = perturbed_start(x_true, 0.01, 1000 + seed)
    eta = 0.1 / float(np.linalg.eigvalsh(hessian_L(forward_cache(spec, X0), spec, X0)).max())
    X, recs, status = gd_solve(spec, X0, eta=eta, max_iter=200)
    X_ref, recs_ref, status_ref = matmul_gd(spec, X0, eta, 200)
    assert (status, len(recs)) == (status_ref, len(recs_ref)) == (MAX_ITER, 200)
    assert np.array(recs).tobytes() == np.array(recs_ref).tobytes()
    assert X.tobytes() == X_ref.tobytes()


# the benchmark's newton_recover instances (seed, n, d, regularized), nd =
# 32 to 128, where the artifact digests stop at nd = 72, and one acceptance
# instance at gamma = choose_gamma(...)
NEWTON_RUNS = [(1804, 8, 4, False), (2206, 12, 6, False), (2608, 16, 8, False),
               (1816, 8, 16, False), (402, 4, 3, True)]


@pytest.mark.parametrize("seed,n,d,regularized", NEWTON_RUNS)
def test_newton_equals_plain_reference_loop_bitwise(seed, n, d, regularized):
    spec, x_true = make_instance(seed, n, d)
    X0 = perturbed_start(x_true, 0.01, 1000 + seed)
    if regularized:
        spec = spec.with_gamma(choose_gamma(n, d, effective_bound_constant(spec, X0)))
        assert spec.gamma > 0
    X, recs, status = newton_solve(spec, X0, eps=1e-10)
    X_ref, recs_ref, status_ref = plain_newton(spec, X0, eps=1e-10)
    assert len(recs) >= 3 and all(r.step_norm > 0 for r in recs[:-1])
    assert (status, len(recs)) == (status_ref, len(recs_ref))
    assert np.array(recs).tobytes() == np.array(recs_ref).tobytes()
    assert X.tobytes() == X_ref.tobytes()


def test_armijo_rejects_a_non_finite_trial(monkeypatch):
    # a step of infinite entries against the gradient's sign: the slope is
    # +inf, so the Armijo bound is +inf and only the finiteness test
    # rejects the out-of-range trial (its loss reads +inf); every trial's
    # scores are NaN, and the solver, not its caller, keeps numpy quiet
    spec, x_true = make_instance(1804, 8, 4)
    X0 = perturbed_start(x_true, 0.01, 2804)
    monkeypatch.setattr(solver, "_try_solve",
                        lambda H, lam, g: np.where(g > 0, np.inf, -np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, recs, status = newton_solve(spec, X0, eps=1e-10)
    assert status == NUMERICAL_FAILURE and len(recs) == 1
    assert all(math.isfinite(v) for r in recs for v in r)
    assert np.array_equal(X, X0)


def test_gd_overflow_raises_no_numpy_warning():
    # the step, about 2e305, is finite, but its squared norm overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, recs, status = gd_solve(scalar_spec(), [[0.4]], eta=1e306, max_iter=5)
    assert status == NUMERICAL_FAILURE and len(recs) == 1
    assert recs[0].step_norm == 0.0 and X[0, 0] == 0.4


def test_newton_runs_one_forward_pass_per_iterate(monkeypatch):
    # the accepted trial's cache is the next iterate's: one forward pass
    # for the start and one per Armijo trial, none more per iteration
    spec, x_true = make_instance(1804, 8, 4)
    X0 = perturbed_start(x_true, 0.01, 2804)
    calls = {"forward": 0, "loss": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    forward = counted("forward", model._forward)
    monkeypatch.setattr(model, "_forward", forward)
    monkeypatch.setattr(solver, "_forward", forward)
    monkeypatch.setattr(solver, "_loss", counted("loss", model._loss))
    _, recs, status = newton_solve(spec, X0)
    trials = calls["loss"] - len(recs)  # one loss per iterate, one per trial
    assert status == CONVERGED and len(recs) >= 3
    assert trials >= len(recs) - 1 and calls["forward"] == 1 + trials


def test_gd_validation():
    spec = scalar_spec()
    with pytest.raises(ValueError):
        gd_solve(spec, [[0.0]], eta=-1.0, max_iter=10)
    with pytest.raises(ValueError, match="eta"):
        gd_solve(spec, [[0.0]], eta=float("nan"), max_iter=10)


@BOTH_SOLVERS
def test_solver_config_validation(solve):
    spec = scalar_spec()
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            solve(spec, [[0.0]], eps=eps, max_iter=10)
    with pytest.raises(ValueError, match="max_iter"):
        solve(spec, [[0.0]], max_iter=0)


@BOTH_SOLVERS
def test_shared_stop_contract(solve):
    # a start whose scores overflow exp (x^2 > EXP_MAX): nothing to record
    X, recs, status = solve(ProblemSpec(1, 1, [[1.0]], [[1.0]], [[0.0]]), [[27.0]],
                            max_iter=5)
    assert status == NUMERICAL_FAILURE and recs == [] and X[0, 0] == 27.0
    # a start at the truth stops at its first iterate, with no step taken
    spec = scalar_spec()
    X, recs, status = solve(spec, [[0.5]], max_iter=5)
    assert status == CONVERGED and X[0, 0] == 0.5
    assert [(r.iter, r.loss, r.grad_norm, r.step_norm, r.damping_used)
            for r in recs] == [(0, 0.0, 0.0, 0.0, 0.0)]
    # one iteration from a start away from it
    X, recs, status = solve(spec, [[0.4]], max_iter=1)
    assert status == MAX_ITER and len(recs) == 1
    assert recs[0].iter == 0 and recs[0].step_norm > 0.0 and X[0, 0] != 0.4


def test_newton_refuses_over_dense_cap(monkeypatch):
    # the CLI's refusal, raised before the first iteration evaluates X
    monkeypatch.setenv("ATTNINV_DENSE_CAP", "8")
    monkeypatch.setattr(solver, "_evaluate", lambda *a: pytest.fail("iterated"))
    spec, x_true = make_instance(0, 3, 3)
    with pytest.raises(ValueError) as exc:
        newton_solve(spec, x_true)
    assert str(exc.value) == "n*d = 9 exceeds the dense cap 8"


# the acceptance shapes and the benchmark's newton_recover shapes
@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("n,d", ACCEPTANCE_SHAPES + [(8, 4), (12, 6), (16, 8), (8, 16)])
def test_evaluate_equals_the_public_entry_points(n, d, gamma):
    spec, x_true = make_instance(n + 10 * d, n, d)
    spec = spec.with_gamma(gamma)
    X = perturbed_start(x_true, 0.05, n * d)
    _, cur, g, gn = solver.evaluate(spec, X)
    assert cur == loss(spec, X)
    assert np.array_equal(g, grad_L(forward_cache(spec, X), spec, X))
    assert gn == np.sqrt(g.dot(g))


def test_solvers_check_the_start_once(monkeypatch):
    # every binding that forward_cache, loss, grad_L, hessian_L and
    # evaluate check through, and the dense cap newton_solve and
    # hessian_L read
    calls, caps = [], []

    def counted(spec, X):
        calls.append(1)
        return check_input(spec, X)

    def counted_cap(nd):
        caps.append(1)
        return model.check_dense_cap(nd)

    spec, x_true = make_instance(5, 3, 2)
    X0 = perturbed_start(x_true, 0.5, 1)
    for module in (model, gradient, hessian, solver):
        monkeypatch.setattr(module, "check_input", counted)
    for module in (hessian, solver):
        monkeypatch.setattr(module, "check_dense_cap", counted_cap)
    _, recs, _ = gd_solve(spec, X0, eta=0.1, max_iter=50)
    assert len(recs) == 50 and len(calls) == 1
    calls.clear()
    # from this start the Armijo search backtracks (20 probes, 17 steps)
    _, recs, status = newton_solve(spec, X0, eps=1e-12, max_iter=60)
    assert status == CONVERGED and len(recs) > 3 and len(calls) == 1
    assert len(caps) == 1


def test_out_of_range_iterates_end_as_numerical_failure():
    # the loop checks X only at entry, so an iterate whose scores overflow
    # must still end the run as NumericalFailure: x -> -1.1 x, and the
    # score x^2 passes EXP_MAX at the second iterate
    spec = ProblemSpec(1, 1, [[1.0]], [[1.0]], [[0.0]])
    X, recs, status = gd_solve(spec, [[26.0]], eta=1.05, max_iter=5)
    assert status == NUMERICAL_FAILURE and len(recs) == 1
    assert X[0, 0] == pytest.approx(-28.6)
    assert solver.evaluate(spec, [[27.0]]) is None


def newton_system(n, d):
    """Loss Hessian, gradient and its smallest eigenvalue at a point 0.3
    away from the truth of a seeded n x d instance."""
    spec, x_true = make_instance(n * d, n, d)
    X = perturbed_start(x_true, 0.3, 1)
    cache = forward_cache(spec, X)
    H = hessian_L(cache, spec, X)
    return H, grad_L(cache, spec, X), np.linalg.eigvalsh(H)[0]


def dampings(low):
    # both sides of the PD boundary -low, and well inside the PD side
    return [-low * (1 + 1e-3), -low * (1 - 1e-3), 0.0, 1e-4, 1e-2, abs(low) + 1.0]


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (12, 6), (16, 8), (8, 16), (20, 10)])
def test_panel_step_is_backward_stable_and_refuses_non_pd(n, d):
    # nd = 1 and 2: the smallest bordered matrices, 2x2 and 3x3; nd = 72
    # and 128: two back-substitution panels, so an off-diagonal panel is
    # exercised; nd = 200: four, so middle panels take products from more
    # than one panel after them
    H, g, low = newton_system(n, d)
    outcomes = set()
    for lam in dampings(low):
        A = H + lam * np.eye(len(g))
        try:
            np.linalg.cholesky(A)
            pd = True
        except np.linalg.LinAlgError:
            pd = False
        delta = solver._try_solve(H, lam, g)
        assert (delta is not None) == pd, lam
        outcomes.add(pd)
        if pd:
            err = np.linalg.norm(A @ delta + g) / (np.linalg.norm(A, 2) * np.linalg.norm(delta))
            assert err <= 1e-14, (lam, err)
    assert outcomes == {True, False}


@pytest.mark.parametrize("n,d", [(3, 2), (8, 4), (8, 8)])
def test_one_panel_step_equals_a_dense_solve(n, d):
    # nd <= 64 is one panel: the step agrees with a dense LU solve, and it
    # is refused exactly when a plain Cholesky factorization is
    H, g, low = newton_system(n, d)
    for lam in dampings(low):
        A = H + lam * np.eye(len(g))
        delta = solver._try_solve(H, lam, g)
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            assert delta is None, lam
            continue
        ref = np.linalg.solve(A, -g)
        assert np.linalg.norm(delta - ref) <= 1e-10 * np.linalg.norm(ref), lam
        err = np.linalg.norm(A @ delta + g) / (np.linalg.norm(A, 2) * np.linalg.norm(delta))
        assert err <= 1e-14, (lam, err)


def test_overflowing_corner_pivot_raises_no_numpy_warning():
    # ||L^-1 g||^2 overflows, so the corner pivot is inf - inf: a LAPACK
    # build may refuse that NaN pivot or keep it, and since the corner is
    # never read, a kept factor still gives the right (finite) step
    H, g, low = newton_system(8, 4)
    lam = abs(low) + 1.0
    A = H + lam * np.eye(len(g))
    g = g / np.abs(g).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        delta = solver._try_solve(H, lam, 1e200 * g)
    if delta is not None:
        delta = delta / 1e200
        err = np.linalg.norm(A @ delta + g) / (np.linalg.norm(A, 2) * np.linalg.norm(delta))
        assert err <= 1e-14, err


def test_newton_recovers_a_multi_panel_instance():
    # nd = 128: every step is solved over two panels
    spec, x_true = make_instance(2608, 16, 8)
    X, recs, status = newton_solve(spec, perturbed_start(x_true, 0.01, 0), eps=1e-10)
    assert status == CONVERGED
    assert loss(spec, X) <= 1e-14
