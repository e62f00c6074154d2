"""Finite-difference oracles used to certify every analytic derivative.

The oracles only ever call the function under test (typically the loss or
a forward quantity); they never touch analytic gradient or Hessian code,
so agreement is evidence rather than tautology.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NumericalRangeError


@dataclass(frozen=True)
class FdConfig:
    """Central-difference stepping and comparison tolerances.

    step is the relative first-derivative step (h_k = step * (1 + |x_k|));
    step2 the second-derivative analog, kept larger to balance truncation
    against round-off.
    """

    step: float = 1e-5
    scheme: str = "central"
    tol_abs: float = 1e-6
    tol_rel: float = 1e-6
    step2: float = 1e-4

    def __post_init__(self):
        if self.step <= 0 or self.step2 <= 0:
            raise ValueError("steps must be positive")
        if self.tol_abs <= 0 or self.tol_rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.scheme != "central":
            raise ValueError("only the central scheme is supported")


@dataclass(frozen=True)
class CheckReport:
    target: str
    max_abs_err: float
    max_rel_err: float
    worst_index: tuple[int, ...]
    passed: bool


def _coordinate_steps(X: np.ndarray, step: float) -> np.ndarray:
    flat = np.ascontiguousarray(X.T).reshape(-1)
    return step * (1.0 + np.abs(flat))


def _probe(fn, X):
    value = fn(X)
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise NumericalRangeError("non-finite probe value in finite differencing")
    return value


def _shift(X: np.ndarray, k: int, delta: float) -> np.ndarray:
    d = X.shape[0]
    Y = X.copy()
    Y[k % d, k // d] += delta
    return Y


def fd_grad(scalar_fn, X, cfg: FdConfig) -> np.ndarray:
    """Central-difference gradient of a scalar function of the (d, n) input."""
    X = np.asarray(X, dtype=float)
    steps = _coordinate_steps(X, cfg.step)
    out = np.empty(X.size)
    for k in range(X.size):
        h = steps[k]
        out[k] = (_probe(scalar_fn, _shift(X, k, h))
                  - _probe(scalar_fn, _shift(X, k, -h))) / (2.0 * h)
    return out


def fd_jacobian(vector_fn, X, cfg: FdConfig) -> np.ndarray:
    """Columnwise central differences of a vector function; column k is the
    derivative along flattened coordinate k."""
    X = np.asarray(X, dtype=float)
    steps = _coordinate_steps(X, cfg.step)
    cols = []
    for k in range(X.size):
        h = steps[k]
        hi = np.asarray(_probe(vector_fn, _shift(X, k, h)), dtype=float)
        lo = np.asarray(_probe(vector_fn, _shift(X, k, -h)), dtype=float)
        cols.append((hi - lo) / (2.0 * h))
    return np.stack(cols, axis=-1)


def fd_hessian(scalar_fn, X, cfg: FdConfig) -> np.ndarray:
    """Dense central-difference Hessian, symmetrized by averaging.

    Diagonal entries use the 3-point stencil, off-diagonals the 4-point
    mixed stencil, with per-coordinate steps step2 * (1 + |x_k|).
    """
    X = np.asarray(X, dtype=float)
    m = X.size
    steps = _coordinate_steps(X, cfg.step2)
    center = float(_probe(scalar_fn, X))
    H = np.empty((m, m))
    for k in range(m):
        hk = steps[k]
        H[k, k] = (float(_probe(scalar_fn, _shift(X, k, hk))) - 2.0 * center
                   + float(_probe(scalar_fn, _shift(X, k, -hk)))) / hk**2
        for l in range(k + 1, m):
            hl = steps[l]
            pp = float(_probe(scalar_fn, _shift(_shift(X, k, hk), l, hl)))
            pm = float(_probe(scalar_fn, _shift(_shift(X, k, hk), l, -hl)))
            mp = float(_probe(scalar_fn, _shift(_shift(X, k, -hk), l, hl)))
            mm = float(_probe(scalar_fn, _shift(_shift(X, k, -hk), l, -hl)))
            H[k, l] = (pp - pm - mp + mm) / (4.0 * hk * hl)
            H[l, k] = H[k, l]
    return 0.5 * (H + H.T)


def check(analytic_value, oracle_value, cfg: FdConfig, target: str = "quantity") -> CheckReport:
    """Mixed-tolerance elementwise comparison: pass iff
    |a - o| <= tol_abs + tol_rel * max(|a|, |o|) everywhere."""
    a = np.asarray(analytic_value, dtype=float)
    o = np.asarray(oracle_value, dtype=float)
    if a.shape != o.shape:
        raise ValueError(f"shape mismatch for {target}: {a.shape} vs {o.shape}")
    if a.size == 0:
        return CheckReport(target, 0.0, 0.0, (), True)
    err = np.abs(a - o)
    scale = np.maximum(np.abs(a), np.abs(o))
    allowance = cfg.tol_abs + cfg.tol_rel * scale
    ratio = err / allowance
    worst_flat = int(np.argmax(ratio))
    worst = np.unravel_index(worst_flat, a.shape) if a.ndim else ()
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(scale > 0, err / np.maximum(scale, np.finfo(float).tiny), 0.0)
    return CheckReport(
        target=target,
        max_abs_err=float(err.max()),
        max_rel_err=float(rel.max()),
        worst_index=tuple(int(i) for i in np.atleast_1d(worst)),
        passed=bool(np.all(err <= allowance)),
    )
