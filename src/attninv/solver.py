"""Regularized damped Newton recovery and the gradient-descent baseline.

Both solvers run one driver, _descend, which holds the stop, failure and
record contract; each supplies only its step rule.  Run records hold no
timings, so seeded runs are byte-reproducible.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .gradient import _grad_L
from .hessian import _hessian_L, _shift_diagonal
from .model import (
    ForwardCache,
    NumericalRangeError,
    ProblemSpec,
    _forward,
    _loss,
    check_dense_cap,
    check_input,
)

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
NUMERICAL_FAILURE = "NumericalFailure"

_MAX_DAMPING = 1e8
_MIN_DAMPING = 1e-12
_ARMIJO_C = 1e-4
_BACKTRACK_BETA = 0.5
_MAX_BACKTRACKS = 40
_PANEL = 64  # widest back-substitution panel of the Newton step


class RunRecord(NamedTuple):
    """Per-iteration telemetry, persisted field for field in run.jsonl."""

    iter: int
    loss: float
    grad_norm: float
    step_norm: float
    damping_used: float


def _bump(lam: float) -> float:
    return 1e-4 if lam == 0.0 else lam * 10.0


def _relax(lam: float) -> float:
    lam = lam / 10.0
    return 0.0 if lam < _MIN_DAMPING else lam


def evaluate(spec: ProblemSpec, X):
    """(cache, loss, gradient, gradient norm) at X from one forward pass;
    None when X is outside the representable regime."""
    return _evaluate(spec, check_input(spec, X))


def _evaluate(spec: ProblemSpec, X: np.ndarray, cache: ForwardCache | None = None):
    """evaluate at an X that check_input has accepted, from X's forward
    cache when the caller already holds it."""
    try:
        if cache is None:
            cache = _forward(spec, X)
        cur = _loss(spec, X, cache)
        g = _grad_L(cache, spec, X)
    except NumericalRangeError:
        return None
    gn = math.sqrt(g.dot(g))
    return (cache, cur, g, gn) if math.isfinite(cur) and math.isfinite(gn) else None


def _try_solve(H: np.ndarray, lam: float, g: np.ndarray):
    """Solve (H + lam I) step = -g through Cholesky; None when not PD.

    LAPACK factors the bordered matrix [[H + lam I, -g], [-g^T, inf]] once.
    Its leading block is the factor L of H + lam I = L L^T and its last row
    is y = L^-1 (-g), the forward substitution.  The corner pivot
    inf - ||y||^2 is never read and is positive whenever ||y||^2 is
    finite, so the factorization fails exactly when H + lam I is not PD.
    (An overflowing ||y||^2 makes it NaN, which a LAPACK build may refuse
    or keep; a kept factor still gives the step.)  The back substitution
    L^T step = y runs over ceil(nd / _PANEL) panels whose widths differ by
    at most one: np.linalg.solve on each diagonal block of L^T and one dot
    per off-diagonal panel, so no O((nd)^3) work follows the factorization.
    """
    nd = len(g)
    M = np.empty((nd + 1, nd + 1))
    M[:nd, :nd] = H
    _shift_diagonal(M[:nd, :nd], lam)
    M[nd, :nd] = M[:nd, nd] = -g
    M[nd, nd] = np.inf
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    step = L[nd, :nd].copy()
    panels = -(-nd // _PANEL)
    for k in reversed(range(panels)):  # the last panel's product is an exact zero
        a, b = nd * k // panels, nd * (k + 1) // panels
        step[a:b] = np.linalg.solve(L[a:b, a:b].T, step[a:b] - L[b:nd, a:b].T.dot(step[b:]))
    return step


def _descend(spec: ProblemSpec, X0, eps: float, max_iter: int, step):
    """The iteration both solvers share, and its stop, failure and record
    contract.

    Evaluates each iterate once, stops when ||grad|| <= eps * (1 + |loss|),
    and otherwise takes step(X, cache, loss, grad, damping), which returns
    (X_next, cache_next, step_norm, damping_used, damping, ok): cache_next
    is X_next's forward cache, or None for the driver to evaluate it; the
    damping starts at 0 and is carried from one step to the next.  Every
    evaluated iterate gets one RunRecord.  An iterate that cannot be
    evaluated, or a step that is not ok (X is kept), ends the run as
    NumericalFailure.  The loop runs under np.errstate(all="ignore"): an
    out-of-range value is caught by its finiteness test, not by a numpy
    warning.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    X = check_input(spec, X0).copy()
    cache = None
    lam = 0.0
    records: list[RunRecord] = []
    status = MAX_ITER
    with np.errstate(all="ignore"):
        for it in range(max_iter):
            point = _evaluate(spec, X, cache)
            if point is None:
                status = NUMERICAL_FAILURE
                break
            cache, cur, g, gn = point
            if gn <= eps * (1.0 + abs(cur)):
                status, step_norm, lam_used = CONVERGED, 0.0, lam
            else:
                X, cache, step_norm, lam_used, lam, ok = step(X, cache, cur, g, lam)
                if not ok:
                    status = NUMERICAL_FAILURE
            records.append(RunRecord(it, cur, gn, step_norm, lam_used))
            if status != MAX_ITER:
                break
    return X, records, status


def newton_solve(spec: ProblemSpec, X0, eps: float = 1e-8, max_iter: int = 100):
    """Damped Newton iteration with Armijo backtracking on the regularized
    loss, stopped when ||grad|| <= eps * (1 + |loss|).

    Returns (X_out, records, status) with status one of Converged,
    MaxIter, NumericalFailure.  The damping starts at 0 (the gamma term
    regularizes), grows tenfold whenever the shifted system is not
    positive definite or the step fails the descent test, and shrinks
    tenfold after every accepted step.  The accepted trial's forward cache
    is the next iterate's.
    """
    check_dense_cap(spec.n * spec.d)

    def step(X, cache, cur, g, lam):
        H = _hessian_L(cache, spec)
        while lam <= _MAX_DAMPING:
            lam_used = lam
            delta = _try_solve(H, lam, g)
            if delta is None:
                lam = _bump(lam)
                continue
            direction = delta.reshape(spec.n, spec.d).T
            slope = g.dot(delta)
            t = 1.0
            for _ in range(_MAX_BACKTRACKS):
                trial = X + t * direction
                try:
                    trial_cache = _forward(spec, trial)
                    trial_loss = _loss(spec, trial, trial_cache)
                except NumericalRangeError:
                    trial_loss = np.inf
                if np.isfinite(trial_loss) and trial_loss <= cur + _ARMIJO_C * t * slope:
                    return (trial, trial_cache, t * math.sqrt(delta.dot(delta)),
                            lam, _relax(lam), True)
                t *= _BACKTRACK_BETA
            lam = _bump(lam)
        return X, None, 0.0, lam_used, lam, False

    return _descend(spec, X0, eps, max_iter, step)


def gd_solve(spec: ProblemSpec, X0, eta: float, max_iter: int,
             eps: float = 1e-10):
    """Fixed-step gradient descent on the regularized loss.

    Shares the record and stop contract with newton_solve through the same
    driver, with the damping held at 0; ten consecutive loss increases
    count as divergence, and so does a step whose norm is not finite (that
    step is not taken and is recorded with norm 0).
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    increases = 0
    prev = np.inf

    def step(X, cache, cur, g, lam):
        nonlocal increases, prev
        increases = increases + 1 if cur > prev else 0
        prev = cur
        s = eta * g
        step_norm = math.sqrt(s.dot(s))
        finite = math.isfinite(step_norm)
        if increases >= 10 or not finite:
            return X, None, step_norm if finite else 0.0, 0.0, 0.0, False
        return X - s.reshape(spec.n, spec.d).T, None, step_norm, 0.0, 0.0, True

    return _descend(spec, X0, eps, max_iter, step)
