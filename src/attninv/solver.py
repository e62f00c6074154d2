"""Regularized damped Newton recovery and the gradient-descent baseline."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import choose_gamma, effective_bound_constant
from .gradient import grad_L
from .hessian import hessian_L
from .model import (
    NumericalRangeError,
    ProblemSpec,
    check_input,
    dense_cap,
    forward_cache,
    loss,
    unflatten_input,
)

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
NUMERICAL_FAILURE = "NumericalFailure"

_MAX_DAMPING = 1e8
_MIN_DAMPING = 1e-12
_ARMIJO_C = 1e-4
_BACKTRACK_BETA = 0.5
_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class NewtonConfig:
    """Newton solve parameters.

    eps scales the gradient-norm stop ||grad|| <= eps * (1 + |loss|);
    damping is the initial Levenberg shift (0 relies on the gamma term);
    line_search is "backtracking" or "none"; gamma_mode "explicit" keeps
    the instance's gamma, "auto" replaces it with the dimension-based
    choice.
    """

    eps: float = 1e-8
    max_iter: int = 100
    damping: float = 0.0
    line_search: str = "backtracking"
    gamma_mode: str = "explicit"

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.damping < 0:
            raise ValueError("damping must be nonnegative")
        if self.line_search not in ("backtracking", "none"):
            raise ValueError("line_search must be 'backtracking' or 'none'")
        if self.gamma_mode not in ("explicit", "auto"):
            raise ValueError("gamma_mode must be 'explicit' or 'auto'")


@dataclass(frozen=True)
class RunRecord:
    """Per-iteration telemetry; wallclock_ms is measurement-only and never
    enters persisted artifacts."""

    iter: int
    loss: float
    grad_norm: float
    step_norm: float
    damping_used: float
    wallclock_ms: float


def _effective_spec(spec: ProblemSpec, X0, cfg: NewtonConfig) -> ProblemSpec:
    if cfg.gamma_mode == "auto":
        r_eff = effective_bound_constant(spec, X0)
        return spec.with_gamma(choose_gamma(spec.n, spec.d, r_eff))
    return spec


def _bump(lam: float) -> float:
    return 1e-4 if lam == 0.0 else lam * 10.0


def _relax(lam: float) -> float:
    lam = lam / 10.0
    return 0.0 if lam < _MIN_DAMPING else lam


def evaluate(spec: ProblemSpec, X):
    """(cache, loss, gradient, gradient norm) at X from one forward pass;
    None when X is outside the representable regime."""
    try:
        cache = forward_cache(spec, X)
        cur = loss(spec, X, cache)
        g = grad_L(cache, spec, X)
    except NumericalRangeError:
        return None
    gn = math.sqrt(g.dot(g))
    return (cache, cur, g, gn) if math.isfinite(cur) and math.isfinite(gn) else None


def _try_solve(H: np.ndarray, lam: float, g: np.ndarray):
    """Solve (H + lam I) step = -g through Cholesky; None when not PD."""
    A = H.copy()
    A[np.diag_indices_from(A)] += lam
    try:
        cf = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    y = np.linalg.solve(cf, -g)
    return np.linalg.solve(cf.T, y)


def newton_solve(spec: ProblemSpec, X0, cfg: NewtonConfig = NewtonConfig()):
    """Damped Newton iteration on the regularized loss.

    Returns (X_out, records, status) with status one of Converged,
    MaxIter, NumericalFailure.  The damping grows tenfold whenever the
    shifted system is not positive definite or the step fails the descent
    test, and shrinks tenfold after every accepted step.
    """
    X = check_input(spec, X0).copy()
    if spec.n * spec.d > dense_cap():
        raise ValueError(
            f"n*d = {spec.n * spec.d} exceeds the dense cap {dense_cap()}")
    work = _effective_spec(spec, X, cfg)
    lam = cfg.damping
    records: list[RunRecord] = []
    status = MAX_ITER
    t0 = time.perf_counter()
    for it in range(cfg.max_iter):
        point = evaluate(work, X)
        if point is None:
            status = NUMERICAL_FAILURE
            break
        cache, cur, g, gn = point
        if gn <= cfg.eps * (1.0 + abs(cur)):
            records.append(RunRecord(it, cur, gn, 0.0, lam,
                                     (time.perf_counter() - t0) * 1e3))
            status = CONVERGED
            break
        H = hessian_L(cache, work, X)
        step_norm = 0.0
        lam_used = lam
        accepted = False
        while lam <= _MAX_DAMPING:
            lam_used = lam
            delta = _try_solve(H, lam, g)
            if delta is None:
                lam = _bump(lam)
                continue
            direction = unflatten_input(delta, spec.n, spec.d)
            slope = float(np.dot(g, delta))
            t = 1.0
            ok = False
            for _ in range(_MAX_BACKTRACKS):
                try:
                    trial = loss(work, X + t * direction)
                except NumericalRangeError:
                    trial = np.inf
                if cfg.line_search == "none":
                    ok = np.isfinite(trial)
                    break
                if np.isfinite(trial) and trial <= cur + _ARMIJO_C * t * slope:
                    ok = True
                    break
                t *= _BACKTRACK_BETA
            if ok:
                X = X + t * direction
                step_norm = float(t * np.linalg.norm(delta))
                lam = _relax(lam)
                accepted = True
                break
            lam = _bump(lam)
        records.append(RunRecord(it, cur, gn, step_norm, lam_used,
                                 (time.perf_counter() - t0) * 1e3))
        if not accepted:
            status = NUMERICAL_FAILURE
            break
    return X, records, status


def gd_solve(spec: ProblemSpec, X0, eta: float, max_iter: int,
             eps: float = 1e-10):
    """Fixed-step gradient descent on the regularized loss.

    Shares the record and stop contract with newton_solve; ten consecutive
    loss increases count as divergence, and so does a step whose norm is
    not finite (that step is not taken and is recorded with norm 0).
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    X = check_input(spec, X0).copy()
    records: list[RunRecord] = []
    status = MAX_ITER
    increases = 0
    prev = np.inf
    t0 = time.perf_counter()
    for it in range(max_iter):
        point = evaluate(spec, X)
        if point is None:
            status = NUMERICAL_FAILURE
            break
        _, cur, g, gn = point
        if gn <= eps * (1.0 + abs(cur)):
            records.append(RunRecord(it, cur, gn, 0.0, 0.0,
                                     (time.perf_counter() - t0) * 1e3))
            status = CONVERGED
            break
        increases = increases + 1 if cur > prev else 0
        step = eta * g
        step_norm = math.sqrt(step.dot(step))
        finite = math.isfinite(step_norm)
        records.append(RunRecord(it, cur, gn, step_norm if finite else 0.0, 0.0,
                                 (time.perf_counter() - t0) * 1e3))
        if increases >= 10 or not finite:
            status = NUMERICAL_FAILURE
            break
        X = X - step.reshape(spec.n, spec.d).T
        prev = cur
    return X, records, status


def distance_to(X, X_ref) -> float:
    """Frobenius distance; reporting helper for recovery experiments."""
    return float(np.linalg.norm(np.asarray(X, float) - np.asarray(X_ref, float)))


__all__ = [
    "CONVERGED",
    "MAX_ITER",
    "NUMERICAL_FAILURE",
    "NewtonConfig",
    "RunRecord",
    "distance_to",
    "evaluate",
    "gd_solve",
    "newton_solve",
]
