"""Problem data and forward evaluation for single-layer attention inversion.

The unknown is a matrix X of shape (d, n): one column per token, one row per
feature.  The model output is built from column-wise softmax scores of
X^T W X applied to the value projection X^T V; the loss is the squared
Frobenius residual against a target B plus an optional quadratic penalty.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_DENSE_CAP = 512
# The largest double whose exp() is finite, log(DBL_MAX): exp(s) overflows
# exactly when s > EXP_MAX, and NaN fails the test s <= EXP_MAX as well.
EXP_MAX = 709.782712893384


def check_dense_cap(nd: int) -> None:
    """Refuse a problem of nd = n*d unknowns above the largest for which
    dense nd x nd Hessians may be materialized: ATTNINV_DENSE_CAP, or
    DEFAULT_DENSE_CAP when it is unset."""
    raw = os.environ.get("ATTNINV_DENSE_CAP")
    try:
        cap = DEFAULT_DENSE_CAP if raw is None else int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"ATTNINV_DENSE_CAP must be a positive integer, got {raw!r}")
    if nd > cap:
        raise ValueError(f"n*d = {nd} exceeds the dense cap {cap}")


class NumericalRangeError(ValueError):
    """A value left the finite range (exp overflow, a non-finite loss, FD
    probe or Hessian): the input is outside the bounded-parameter regime."""


def _as_float_matrix(M, name: str, shape: tuple[int, ...]) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True)
class ProblemSpec:
    """Fixed data of one inversion instance.

    Attributes
    ----------
    n : token count
    d : feature dimension
    W : (d, d) combined attention weight (key times query transpose)
    V : (d, d) value weight
    B : (n, d) target output
    gamma : nonnegative quadratic regularization weight
    """

    n: int
    d: int
    W: np.ndarray
    V: np.ndarray
    B: np.ndarray
    gamma: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        object.__setattr__(self, "W", _as_float_matrix(self.W, "W", (self.d, self.d)))
        object.__setattr__(self, "V", _as_float_matrix(self.V, "V", (self.d, self.d)))
        object.__setattr__(self, "B", _as_float_matrix(self.B, "B", (self.n, self.d)))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError("gamma must be finite and nonnegative")

    def with_gamma(self, gamma: float) -> "ProblemSpec":
        return ProblemSpec(self.n, self.d, self.W, self.V, self.B, gamma)

    @cached_property
    def r_spec(self) -> float:
        """max(1, ||W||_2, ||V||_2, sqrt(max |B|)), formed on first use."""
        return max(1.0, np.linalg.norm(self.W, 2), np.linalg.norm(self.V, 2),
                   float(np.sqrt(np.abs(self.B).max())))


def check_input(spec: ProblemSpec, X) -> np.ndarray:
    """Validate a candidate input matrix against the instance dimensions."""
    return _as_float_matrix(X, "X", (spec.d, spec.n))


def _check_points(spec: ProblemSpec, X) -> np.ndarray:
    """check_input, widened to a (p, d, n) stack of input matrices."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 3:
        return _as_float_matrix(X, "X", (len(X), spec.d, spec.n))
    return check_input(spec, X)


def flatten_input(X: np.ndarray) -> np.ndarray:
    """Canonical vec: index k = i*d + j holds X[j, i] (token-major order);
    v.reshape(n, d).T is its inverse.

    This ordering keeps the d x d Hessian blocks for a token pair (i1, i2)
    contiguous in the flattened coordinates.
    """
    return np.ascontiguousarray(X.T).reshape(-1)


@dataclass(frozen=True)
class ForwardCache:
    """All intermediate quantities of one forward pass, shared by the
    gradient and Hessian code.

    F    : (n, n) column-stochastic softmax probabilities, column i0 is
           the softmax of the scores X^T W X[:, i0]
    H    : (n, d) value projection, column j0 = X^T V[:, j0]
    S    : (n, d) model output, S[i0, j0] = <F[:, i0], H[:, j0]>
    C    : (n, d) residuals, C = S - B
    Wsc  : (n, d) score coefficients, Wsc[i0, j] = <W[j, :], X[:, i0]>
    XW   : (n, d) X^T W; column j is the vector paired with F in Zsc, and
           row i0 is W^T X[:, i0]
    Zsc  : (n, d) softmax-averaged scores, Zsc[i0, j] = <F[:, i0], XW[:, j]>,
           formed on first use: only the derivative code reads it
    """

    F: np.ndarray
    H: np.ndarray
    S: np.ndarray
    C: np.ndarray
    Wsc: np.ndarray
    XW: np.ndarray

    @cached_property
    def Zsc(self) -> np.ndarray:
        return self.F.mT @ self.XW


def forward_cache(spec: ProblemSpec, X) -> ForwardCache:
    """Evaluate all forward quantities at X, one (d, n) matrix or a
    (p, d, n) stack of them; every field then gains the leading axis p.

    Raises NumericalRangeError when a raw exponential exp(score) would
    overflow (or a score is NaN), naming the first offending score column
    (of the first offending matrix of a stack).  The column maxima that
    decide this are also the shifts of the max-shifted softmax, which keeps
    F finite whenever the scores are.
    """
    return _forward(spec, _check_points(spec, X))


def _forward(spec: ProblemSpec, X: np.ndarray) -> ForwardCache:
    """forward_cache at an X that _check_points has accepted.

    One matrix multiplies with ndarray.dot, which reaches the same BLAS call
    as the matmul gufunc without its dispatch cost, and without np.dot's
    __array_function__ wrapper (the products are pinned bit for bit to @ in
    the tests); a stack needs matmul's broadcasting.  The overflow test and
    the column maxima are ufunc reductions, which skip ndarray.max's Python
    wrapper and propagate NaN as it does.
    """
    mul = np.ndarray.dot if X.ndim == 2 else np.matmul
    XW = mul(X.mT, spec.W)
    scores = mul(XW, X)
    top = np.maximum.reduce(scores, axis=-2, keepdims=True)
    if not np.maximum.reduce(top, axis=None) <= EXP_MAX:
        bad = int(np.flatnonzero(~(top <= EXP_MAX))[0] % spec.n)
        raise NumericalRangeError(
            f"exp overflow in score column {bad}; inputs exceed the bounded regime"
        )
    shifted = np.exp(scores - top)
    F = shifted / np.add.reduce(shifted, axis=-2, keepdims=True)
    H = mul(X.mT, spec.V)
    S = mul(F.mT, H)
    C = S - spec.B
    Wsc = mul(spec.W, X).mT
    return ForwardCache(F, H, S, C, Wsc, XW)  # positional: keywords cost more


def loss(spec: ProblemSpec, X, cache: ForwardCache | None = None) -> float | np.ndarray:
    """Sum of squared residuals plus gamma * ||vec(X)||^2: a float for one
    (d, n) matrix, a (p,) array for a (p, d, n) stack."""
    return _loss(spec, _check_points(spec, X), cache)


def _loss(spec: ProblemSpec, X: np.ndarray,
          cache: ForwardCache | None = None) -> float | np.ndarray:
    """loss at an X that _check_points has accepted.

    The gamma term is added only when gamma is nonzero.  At gamma = 0 it
    would be 0.0 * sum(x^2), which leaves the sum of squared residuals as
    it is unless sum(x^2) overflows to inf (0.0 * inf is NaN).
    """
    if cache is None:
        cache = _forward(spec, X)
    C = cache.C
    value = np.add.reduce(C * C, axis=(-2, -1))
    if spec.gamma:
        value = value + spec.gamma * np.add.reduce(X * X, axis=(-2, -1))
    return value if X.ndim == 3 else float(value)


def synthesize_target(W, V, X_true) -> ProblemSpec:
    """Build a realizable instance: set B to the model output at X_true.

    The returned spec has gamma = 0 and loss(spec, X_true) = 0, making
    X_true a global minimizer.
    """
    X_true = np.asarray(X_true, dtype=float)
    if X_true.ndim != 2:
        raise ValueError("X_true must be a (d, n) matrix")
    d, n = X_true.shape
    zero_target = ProblemSpec(n, d, W, V, np.zeros((n, d)), 0.0)
    cache = forward_cache(zero_target, X_true)
    return ProblemSpec(n, d, W, V, cache.S.copy(), 0.0)
