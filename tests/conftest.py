import math

import numpy as np
import pytest

from attninv import hessian, solver
from attninv.analysis import _point_norms, _token_chunks, bound_suite, psd_floor
from attninv.generate import SplitMix64, make_instance, random_matrix, rescale_spectral
from attninv.generate import bounded_instance  # noqa: F401  (tests import it from here)
from attninv.gradient import jacobian_c
from attninv.model import (
    EXP_MAX,
    ForwardCache,
    NumericalRangeError,
    ProblemSpec,
    check_input,
    flatten_input,
    forward_cache,
    loss,
)
from attninv.gradient import grad_L


@pytest.fixture
def seed0_instance():
    """Synthesized n=3, d=2 instance with a nonzero residual probe point."""
    spec, x_true = make_instance(0, 3, 2)
    probe = x_true + 0.25
    return spec, x_true, probe


ACCEPTANCE_SHAPES = [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2),
                     (3, 3), (4, 4), (6, 3), (5, 3), (6, 2)]


def per_point(fn):
    """A stack target for the FD oracles from a function of one (d, n)
    matrix, for functions that accept only one matrix (grad_L, jacobian_c)."""
    return lambda Ys: np.stack([fn(Y) for Y in Ys])


def bound_suite_at(spec, X):
    """analysis.bound_suite at X on a fresh forward cache and the point's
    block norms, as check --level bounds builds them."""
    cache = forward_cache(spec, X)
    return bound_suite(cache, spec, _point_norms(cache, spec, X, "bounds"))


def psd_floor_at(spec, X):
    """analysis.psd_floor at X on the loss Hessian at gamma = 0 and the
    point's whole-Hessian norm, from a fresh forward cache, as check
    --level psd builds them."""
    cache = forward_cache(spec, X)
    return psd_floor(spec, hessian.hessian_L(cache, spec.with_gamma(0.0), X),
                     _point_norms(cache, spec, X, "psd"))


def bounded_x(seed: int, n: int, d: int, r_target: float = 1.2) -> np.ndarray:
    gen = SplitMix64(seed)
    return rescale_spectral(random_matrix(gen, d, n), r_target)


def softmax_direction(cache, spec, i0: int, i1: int, j1: int) -> np.ndarray:
    """Reference for one derivative d F[:, i0] / d x[i1, j1] of
    gradient.softmax_jacobian, built one direction at a time."""
    f = cache.F[:, i0]
    p = np.zeros(spec.n)
    p[i1] = cache.Wsc[i0, j1]
    if i0 == i1:
        p = p + cache.XW[:, j1]
    return f * p - f * float(np.dot(f, p))


def direction_loop_softmax_grad_norms(cache, spec) -> tuple[float, float]:
    """Reference for bound_suite's softmax_grad_direction_norm and
    softmax_grad_frobenius: the worst direction norm, and the worst over i0
    of the root of the running sum of its squared direction norms."""
    worst_dir = 0.0
    worst_full = 0.0
    for i0 in range(spec.n):
        sq = 0.0
        for i1 in range(spec.n):
            for j1 in range(spec.d):
                norm = float(np.linalg.norm(softmax_direction(cache, spec, i0, i1, j1)))
                worst_dir = max(worst_dir, norm)
                sq += norm * norm
        worst_full = max(worst_full, float(np.sqrt(sq)))
    return worst_dir, worst_full


def row_loop_residual_grad_norms(cache, spec) -> tuple[float, float]:
    """Reference for bound_suite's residual_grad_entry_abs and
    residual_grad_norm: the worst entry and the worst norm over the
    jacobian_c rows, one row at a time."""
    worst_entry = 0.0
    worst_vec = 0.0
    for g in jacobian_c(cache, spec):
        worst_entry = max(worst_entry, float(np.abs(g).max()))
        worst_vec = max(worst_vec, float(np.linalg.norm(g)))
    return worst_entry, worst_vec


def batched_block_norm_maxima(cache, spec) -> dict:
    """Reference for bound_suite's hessian_block{case}_norm lhs values: the
    ord-2 norm of every d x d block of the residual Hessians by one batched
    np.linalg.norm per token chunk, worst over j0, then the worst in each
    case that occurs."""
    n, d = spec.n, spec.d
    norms = np.concatenate([np.linalg.norm(
        hessian.residual_hessians(cache, spec, i0).reshape(-1, d, n, d, n, d)
        .transpose(0, 1, 2, 4, 3, 5), 2, axis=(4, 5)).max(axis=1)
        for i0 in _token_chunks(spec)])
    case_of = hessian.classify_case(*np.ix_(range(n), range(n), range(n)))
    return {case: norms[case_of == case].max() for case in sorted(set(case_of.flat))}


def batched_hessian_c_norm_max(cache, spec) -> float:
    """Reference for psd_floor's hessian_c_norm_max: the ord-2 norm of
    every residual Hessian by one batched np.linalg.norm per token chunk."""
    return max(np.linalg.norm(hessian.residual_hessians(cache, spec, i0), 2,
                              axis=(2, 3)).max() for i0 in _token_chunks(spec))


def block_loop_hessian_c(cache, spec, i0: int, j0: int) -> np.ndarray:
    """Reference for hessian.hessian_c: the nd x nd Hessian of one residual
    tiled from the public case blocks, one block call per (i1, i2)."""
    n = spec.n
    grid = []
    for i1 in range(n):
        row = []
        for i2 in range(n):
            if i1 == i0 and i2 == i0:
                blk = hessian.block_case1(cache, spec, i0, j0)
            elif i1 == i0:
                blk = hessian.block_case2(cache, spec, i0, j0, i2)
            elif i2 == i0:
                blk = hessian.block_case3(cache, spec, i0, j0, i1)
            elif i1 == i2:
                blk = hessian.block_case4(cache, spec, i0, j0, i1)
            else:
                blk = hessian.block_case5(cache, spec, i0, j0, i1, i2)
            row.append(blk)
        grid.append(row)
    return np.block(grid)


def token_loop_block_entry_equiv(cache, spec) -> tuple[float, bool]:
    """Reference for check's hessian_block_entry_equiv record: its
    max_abs_diff and pass from one d2c_table and one hessian_c call per
    probe token and chunk of its features, each chunk holding at most 2**16
    Hessian entries."""
    worst, passed = 0.0, True
    step = max(1, 2**16 // (spec.n * spec.d) ** 2)
    for i0 in range(spec.n):
        for j0 in np.split(np.arange(spec.d), range(step, spec.d, step)):
            T = hessian.d2c_table(cache, spec, i0, j0)
            Hc = hessian.hessian_c(cache, spec, i0, j0)
            err = np.abs(T - Hc)
            worst = max(worst, float(err.max()))
            passed &= bool((err <= 1e-10).all() or (
                err <= 1e-10 + 1e-10 * np.maximum(np.abs(T), np.abs(Hc))).all())
    return worst, passed


def token_loop_hessian_L(cache, spec) -> np.ndarray:
    """Reference for hessian.hessian_L: K = sum c * hess_c as the derivative
    of the half-gradient J^T vec(C) of grad_L with C held fixed, taken
    along the d unit directions x[t, :] of one token t at a time."""
    n, d, nd = spec.n, spec.d, spec.n * spec.d
    F, C, W = cache.F, cache.C, spec.W
    WX, WtX = cache.Wsc.T, cache.XW.T
    G_F = cache.H @ C.T
    p = (F * G_F).sum(axis=0, keepdims=True)
    G_A = F * (G_F - p)
    VC = spec.V @ C.T
    K = np.empty((nd, nd))
    for t in range(n):
        # leading axis k: direction x[t, k]; d(scores) has row t and
        # column t, d(G_F) only row t
        dA = np.zeros((d, n, n))
        dA[:, t, :] = WX
        dA[:, :, t] += WtX
        FdA = F * dA
        dF = FdA - F * FdA.sum(axis=1, keepdims=True)
        Q = dF * G_F
        Q[:, t, :] += F[t] * VC
        dG_A = Q - dF * p - F * Q.sum(axis=1, keepdims=True)
        dg = (W.T[:, :, None] * G_A[:, t] + W[:, :, None] * G_A[t]
              + WX @ dG_A.transpose(0, 2, 1) + WtX @ dG_A
              + VC @ dF.transpose(0, 2, 1))
        K[t * d:(t + 1) * d] = dg.transpose(0, 2, 1).reshape(d, nd)
    J = jacobian_c(cache, spec)
    H = 2.0 * (J.T @ J + K)
    H[np.diag_indices(nd)] += 2.0 * spec.gamma
    return H


def matmul_forward(spec, X) -> ForwardCache:
    """Reference for model._forward at a (d, n) matrix or a (p, d, n)
    stack inside the exp range: the same pass with every product the
    matmul gufunc (@)."""
    XW = X.mT @ spec.W
    scores = XW @ X
    top = np.maximum.reduce(scores, axis=-2, keepdims=True)
    assert (top <= EXP_MAX).all()
    shifted = np.exp(scores - top)
    F = shifted / np.add.reduce(shifted, axis=-2, keepdims=True)
    H = X.mT @ spec.V
    S = F.mT @ H
    return ForwardCache(F=F, H=H, S=S, C=S - spec.B, Wsc=(spec.W @ X).mT, XW=XW)


def matmul_grad_L(cache, spec, X) -> np.ndarray:
    """Reference for gradient._grad_L with every product the matmul
    gufunc (@) and the gamma term added at every gamma (at gamma = 0 the
    two can differ only in the sign of a zero entry)."""
    F = cache.F
    G_F = cache.H @ cache.C.T
    G_A = F * (G_F - np.add.reduce(F * G_F, axis=0, keepdims=True))
    G_X = cache.Wsc.T @ G_A.T + cache.XW.T @ G_A + spec.V @ (F @ cache.C).T
    return flatten_input(2.0 * G_X + 2.0 * spec.gamma * X)


def matmul_loss(spec, X) -> float | np.ndarray:
    """Reference for model._loss on matmul_forward, with the gamma term
    added at every gamma."""
    C = matmul_forward(spec, X).C
    value = (np.add.reduce(C * C, axis=(-2, -1))
             + spec.gamma * np.add.reduce(X * X, axis=(-2, -1)))
    return value if X.ndim == 3 else float(value)


def matmul_gd(spec, X0, eta: float, max_iter: int, eps: float = 1e-10):
    """Reference for solver.gd_solve as one plain loop on matmul_forward,
    matmul_loss and matmul_grad_L: (X_out, record tuples, status), for a
    run that neither diverges nor takes a non-finite step."""
    X = np.array(X0, dtype=float)
    records, prev, increases = [], np.inf, 0
    for it in range(max_iter):
        cache = matmul_forward(spec, X)
        cur = matmul_loss(spec, X)
        g = matmul_grad_L(cache, spec, X)
        gn = math.sqrt(g.dot(g))
        if gn <= eps * (1.0 + abs(cur)):
            records.append((it, cur, gn, 0.0, 0.0))
            return X, records, "Converged"
        increases = increases + 1 if cur > prev else 0
        prev = cur
        s = eta * g
        step_norm = math.sqrt(s.dot(s))
        assert increases < 10 and math.isfinite(step_norm)
        X = X - s.reshape(spec.n, spec.d).T
        records.append((it, cur, gn, step_norm, 0.0))
    return X, records, "MaxIter"


def plain_newton(spec, X0, eps: float, max_iter: int = 100):
    """Reference for solver.newton_solve as one plain loop on the public
    forward_cache, loss, grad_L and hessian_L, with solver's _try_solve and
    _bump/_relax damping: (X_out, record tuples, status).  Each step is
    mapped to X through a validated copy, its slope is np.dot and its norm
    np.linalg.norm."""
    n, d = spec.n, spec.d
    X = np.array(X0, dtype=float)
    records, lam = [], 0.0
    for it in range(max_iter):
        try:
            cache = forward_cache(spec, X)
            cur = loss(spec, X)
            g = grad_L(cache, spec, X)
        except NumericalRangeError:
            return X, records, "NumericalFailure"
        gn = float(np.linalg.norm(g))
        if not (math.isfinite(cur) and math.isfinite(gn)):
            return X, records, "NumericalFailure"
        if gn <= eps * (1.0 + abs(cur)):
            records.append((it, cur, gn, 0.0, lam))
            return X, records, "Converged"
        H = hessian.hessian_L(cache, spec, X)
        taken = None
        while taken is None and lam <= solver._MAX_DAMPING:
            lam_used = lam
            delta = solver._try_solve(H, lam, g)
            if delta is None:
                lam = solver._bump(lam)
                continue
            v = np.asarray(delta, dtype=float)
            assert v.shape == (n * d,)
            direction = v.reshape(n, d).T.copy()
            slope = float(np.dot(g, delta))
            t = 1.0
            for _ in range(solver._MAX_BACKTRACKS):
                trial = X + t * direction
                try:
                    trial_loss = loss(spec, trial)
                except NumericalRangeError:
                    trial_loss = np.inf
                if np.isfinite(trial_loss) and trial_loss <= cur + solver._ARMIJO_C * t * slope:
                    taken = trial, float(t * np.linalg.norm(delta))
                    break
                t *= solver._BACKTRACK_BETA
            else:
                lam = solver._bump(lam)
        if taken is None:
            records.append((it, cur, gn, 0.0, lam_used))
            return X, records, "NumericalFailure"
        X, step_norm = taken
        records.append((it, cur, gn, step_norm, lam))
        lam = solver._relax(lam)
    return X, records, "MaxIter"


def loss_frobenius(spec: ProblemSpec, X) -> float:
    """Independent evaluation of the loss as an explicit normalized matrix
    product, without the cache: column-normalize exp(X^T W X), transpose,
    multiply by X^T V.  Used by tests to pin the two-form agreement."""
    X = check_input(spec, X)
    with np.errstate(over="ignore"):
        A = np.exp(X.T @ spec.W @ X)
    if not np.all(np.isfinite(A)):
        raise NumericalRangeError("exp overflow in score matrix")
    P = A / A.sum(axis=0, keepdims=True)
    out = P.T @ (X.T @ spec.V)
    R = out - spec.B
    return float(np.sum(R * R) + spec.gamma * np.sum(X * X))
