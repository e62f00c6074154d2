"""Analytic first derivatives of the residual entries and the loss.

Each residual entry c[i0, j0] = <F[:, i0], H[:, j0]> - B[i0, j0] is
differentiated with respect to a single input coordinate x[i1, j1]
(token i1, feature j1).  The production path is closed form: jacobian_c
broadcasts that derivative over every residual (grad_c is one row), and
grad_L is the reverse-mode loss gradient, which never forms the Jacobian.
dc_entry keeps the derivative as a term table (five scalar terms when i1
is the probe token i0, three otherwise); together with the
finite-difference oracle it is the certification realization the closed
forms are pinned against.
"""
from __future__ import annotations

import numpy as np

from .model import ForwardCache, ProblemSpec, check_input


def _term_sum(terms):
    """Left to right, acc = acc + t from 0.0: every term table's one order."""
    acc = 0.0
    for t in terms:
        acc = acc + t
    return acc


def _check_index(spec: ProblemSpec, *, stack: bool = False, **indices):
    """IndexError unless every token index (i0, i1, ...) is an integer in
    [0, n) and every feature index (j0, ...) one in [0, d) or, with stack,
    a 1-D array of such, all arrays of one length; with stack, returns the
    indices broadcast to arrays of that length, 0-d when all are ints."""
    for name, value in indices.items():
        limit = spec.n if name[0] == "i" else spec.d
        if type(value) is int and 0 <= value < limit:
            continue               # the common case, without numpy's overhead
        a = np.asarray(value)
        if a.ndim > int(stack) or a.dtype.kind not in "iu" or not ((0 <= a) & (a < limit)).all():
            raise IndexError(f"{name}={value!r} is not an index in [0, {limit})"
                             + (" or a 1-D array of such" if stack else ""))
    if stack:
        if len({np.shape(v) for v in indices.values()} - {()}) > 1:
            raise IndexError(f"the arrays {' and '.join(indices)} differ in length")
        return np.broadcast_arrays(*map(np.asarray, indices.values()))


def dc_entry(cache: ForwardCache, spec: ProblemSpec,
             i0: int, j0: int, i1: int, j1: int) -> float:
    """d c[i0, j0] / d x[i1, j1] via the term table, summed in the listed
    order (C1..C5 at the probe token, C6..C8 elsewhere)."""
    _check_index(spec, i0=i0, j0=j0, i1=i1, j1=j1)
    F, H, S = cache.F, cache.H, cache.S
    s = S[i0, j0]
    w1 = cache.Wsc[i0, j1]
    if i0 == i1:
        f00 = F[i0, i0]
        terms = (
            -s * f00 * w1,                                              # C1
            -s * cache.Zsc[i0, j1],                                     # C2
            f00 * H[i0, j0] * w1,                                       # C3
            float(np.dot(F[:, i0] * cache.XW[:, j1], H[:, j0])),        # C4
            f00 * spec.V[j1, j0],                                       # C5
        )
    else:
        f01 = F[i1, i0]
        terms = (
            -s * f01 * w1,                                              # C6
            f01 * H[i1, j0] * w1,                                       # C7
            f01 * spec.V[j1, j0],                                       # C8
        )
    return float(_term_sum(terms))


def jacobian_c(cache: ForwardCache, spec: ProblemSpec) -> np.ndarray:
    """nd x nd residual Jacobian: row i0*d + j0 is the gradient of
    c[i0, j0], entry i1*d + j1 equals dc_entry(..., i1, j1)."""
    n, d = spec.n, spec.d
    F, H, S = cache.F, cache.H, cache.S
    # M[i0, j0, i1, j1]: the off-diagonal shape holds at every token; the
    # probe token i1 == i0 adds the softmax-coupling terms C2 and C4.
    M = F.T[:, None, :, None] * ((H.T[None, :, :, None] - S[:, :, None, None])
                                 * cache.Wsc[:, None, None, :]
                                 + spec.V.T[None, :, None, :])
    probe = np.arange(n)
    M[probe, :, probe, :] += (-S[:, :, None] * cache.Zsc[:, None, :]
                              + np.einsum("ai,ak,aj->ikj", F, H, cache.XW))
    return M.reshape(n * d, n * d)


def grad_c(cache: ForwardCache, spec: ProblemSpec, i0: int, j0: int) -> np.ndarray:
    """All partials of c[i0, j0], flattened in the canonical order: row
    i0*d + j0 of jacobian_c."""
    _check_index(spec, i0=i0, j0=j0)
    return jacobian_c(cache, spec)[i0 * spec.d + j0]


def softmax_jacobian(cache: ForwardCache, spec: ProblemSpec) -> np.ndarray:
    """d F[:, i0] / d x[i1, j1] at [i0, i1, j1] of an (n, n, d, n) array:
    f o p - f (f . p) with f = F[:, i0] and p the score derivative, Wsc[i0, j1]
    at token i1 plus XW[:, j1] when i1 == i0.  Each sums to zero in theory."""
    n = spec.n
    P = np.zeros((n, n, spec.d, n))
    probe = np.arange(n)
    P[:, probe, :, probe] = cache.Wsc
    P[probe, probe] += cache.XW.T
    f = cache.F.T[:, None, None, :]
    return f * P - f * (P[..., None, :] @ f[..., None])[..., 0]


def grad_L(cache: ForwardCache, spec: ProblemSpec, X) -> np.ndarray:
    """Loss gradient 2 * J^T vec(C) + 2*gamma*vec(X) by reverse mode:
    G_F = H C^T, G_A = F o (G_F - 1^T (F o G_F)), and
    J^T vec(C) = vec(W X G_A^T + W^T X G_A + V (F C)^T)."""
    return _grad_L(cache, spec, check_input(spec, X))


def _grad_L(cache: ForwardCache, spec: ProblemSpec, X: np.ndarray) -> np.ndarray:
    """grad_L at an X that check_input has accepted.

    2*gamma*X is added only when gamma is nonzero; at gamma = 0 the two
    forms differ at most in the sign of a zero entry.  G_X.T.reshape(-1)
    is flatten_input's token-major vec in one copy.
    """
    F = cache.F
    # ndarray.dot: the same BLAS call as @, without the gufunc dispatch
    G_F = cache.H.dot(cache.C.T)
    G_A = F * (G_F - np.add.reduce(F * G_F, axis=0, keepdims=True))
    # W X = Wsc^T and W^T X = XW^T
    G_X = cache.Wsc.T.dot(G_A.T) + cache.XW.T.dot(G_A) + spec.V.dot(F.dot(cache.C).T)
    G_X = 2.0 * G_X
    if spec.gamma:
        G_X = G_X + 2.0 * spec.gamma * X
    return G_X.T.reshape(-1)
