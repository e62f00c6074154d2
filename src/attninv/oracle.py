"""Finite-difference oracles used to certify every analytic derivative.

The oracles only ever call the function under test (typically the loss or
a forward quantity); they never touch analytic gradient or Hessian code,
so agreement is evidence rather than tautology.  A target takes a
(p, d, n) stack of stencil points and returns one value per point along
a leading axis; the oracles send it whole stencils (every point of one
Hessian row in a single call), in bounded chunks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NumericalRangeError, flatten_input


# Relative central-difference steps: coordinate k moves by STEP * (1 + |x_k|)
# for first derivatives, by the larger STEP2 * (1 + |x_k|) for second ones,
# to balance truncation against round-off.
STEP = 1e-5
STEP2 = 1e-4


@dataclass(frozen=True)
class CheckReport:
    max_abs_err: float
    max_rel_err: float
    worst_index: tuple[int, ...]
    passed: bool


def _coordinate_steps(X: np.ndarray, step: float) -> np.ndarray:
    return step * (1.0 + np.abs(flatten_input(X)))


# Points per target call: at most this many score entries (n^2 per point)
# are stacked at once, so a call stays small however large n is.
_STACK_ENTRIES = 2**16


def _evaluate(fn, points: np.ndarray) -> np.ndarray:
    """fn on a (p, d, n) stack of points, in chunks; one finite value per point."""
    chunk = max(1, _STACK_ENTRIES // points.shape[-1] ** 2)
    values = []
    for s in range(0, len(points), chunk):
        part = points[s:s + chunk]
        v = np.asarray(fn(part), dtype=float)
        if v.shape[:1] != (len(part),):
            raise ValueError("the target must return one value per stacked point")
        values.append(v)
    values = np.concatenate(values)
    if not np.isfinite(values).all():
        raise NumericalRangeError("non-finite probe value in finite differencing")
    return values


def _add_at(Y: np.ndarray, ks: np.ndarray, deltas: np.ndarray) -> None:
    """Add deltas[i] to flat coordinate ks[i] (or to ks, one coordinate for
    every point) of point i of the (p, d, n) stack Y, in place; flat
    coordinates are token-major, k = i*d + j addresses X[j, i]."""
    d = Y.shape[1]
    Y[np.arange(len(Y)), ks % d, ks // d] += deltas


def fd_grad(scalar_fn, X) -> np.ndarray:
    """Central-difference gradient of a scalar function of the (d, n) input."""
    return fd_jacobian(scalar_fn, X)


def fd_jacobian(vector_fn, X) -> np.ndarray:
    """Columnwise central differences of a vector function; column k is the
    derivative along flattened coordinate k."""
    X = np.asarray(X, dtype=float)
    steps = _coordinate_steps(X, STEP)
    ks = np.arange(X.size).repeat(2)
    Y = np.repeat(X[None], len(ks), axis=0)
    _add_at(Y, ks, steps[ks] * np.tile([1.0, -1.0], X.size))
    v = _evaluate(vector_fn, Y)
    h = steps.reshape((-1,) + (1,) * (v.ndim - 1))
    return np.moveaxis((v[0::2] - v[1::2]) / (2.0 * h), 0, -1)


def fd_hessian(scalar_fn, X) -> np.ndarray:
    """Dense central-difference Hessian, exactly symmetric: the entries of
    row k right of the diagonal are mirrored into column k.

    Diagonal entries use the 3-point stencil, off-diagonals the 4-point
    mixed stencil, with per-coordinate steps STEP2 * (1 + |x_k|).  Row k
    is one stack: +k, -k, then pp, pm, mp, mm for every l > k.
    """
    X = np.asarray(X, dtype=float)
    m = X.size
    steps = _coordinate_steps(X, STEP2)
    center = float(_evaluate(scalar_fn, X[None])[0])
    # Row k shifts k by k_signs[:p] * hk and, from its third point on, l > k
    # by the tail of l_deltas that starts at l = k + 1.
    k_signs = np.r_[1.0, -1.0, np.tile([1.0, 1.0, -1.0, -1.0], m - 1)]
    ls = np.arange(m).repeat(4)
    l_deltas = steps[ls] * np.tile([1.0, -1.0], 2 * m)
    H = np.empty((m, m))
    for k in range(m):
        hk = steps[k]
        Y = np.repeat(X[None], 2 + 4 * (m - 1 - k), axis=0)
        _add_at(Y, k, hk * k_signs[:len(Y)])
        _add_at(Y[2:], ls[4 * k + 4:], l_deltas[4 * k + 4:])
        v = _evaluate(scalar_fn, Y)
        H[k, k] = (v[0] - 2.0 * center + v[1]) / hk**2
        pp, pm, mp, mm = v[2:].reshape(-1, 4).T
        H[k, k + 1:] = (pp - pm - mp + mm) / (4.0 * hk * steps[k + 1:])
        H[k + 1:, k] = H[k, k + 1:]
    return H


def check(analytic_value, oracle_value, tol: float,
          target: str = "quantity") -> CheckReport:
    """Mixed-tolerance elementwise comparison: pass iff
    |a - o| <= tol + tol * max(|a|, |o|) everywhere, rounded in that form."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    a = np.asarray(analytic_value, dtype=float)
    o = np.asarray(oracle_value, dtype=float)
    if a.shape != o.shape:
        raise ValueError(f"shape mismatch for {target}: {a.shape} vs {o.shape}")
    if a.size == 0:
        return CheckReport(0.0, 0.0, (), True)
    err = np.abs(a - o)
    scale = np.maximum(np.abs(a), np.abs(o))
    allowance = tol + tol * scale
    ratio = err / allowance
    worst_flat = int(np.argmax(ratio))
    worst = np.unravel_index(worst_flat, a.shape) if a.ndim else ()
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(scale > 0, err / np.maximum(scale, np.finfo(float).tiny), 0.0)
    return CheckReport(
        max_abs_err=float(err.max()),
        max_rel_err=float(rel.max()),
        worst_index=tuple(int(i) for i in np.atleast_1d(worst)),
        passed=bool(np.all(err <= allowance)),
    )
