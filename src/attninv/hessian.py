"""Analytic second derivatives of the residual entries and the loss.

The production paths are closed forms.  hessian_L: the Gauss-Newton part
J^T J comes from gradient.jacobian_c, and the residual-weighted part
K = sum c * hess_c is one closed form (no token loop) of three pieces:
softmax curvature, bilinear scores and the softmax-value cross term, in
O(n^3 d^2) time with O((nd)^2) temporaries.  residual_hessians, which the
analysis checks use: the Hessians of the d residuals of a probe token, the
same three pieces for each residual, in one batched product.

The per-residual mixed partial d^2 c[i0, j0] / dx[i1, j1] dx[i2, j2]
splits into five index cases, with two independent realizations kept to
certify the closed forms:

  * the scalar term tables (D terms for case 1, E for case 2, F for
    case 4, G for case 5; case 3 is case 2 with the derivative pair
    swapped), shared by d2c_entry (one entry) and d2c_table (each table
    evaluated once on a broadcast index grid);
  * block_case1..block_case5 build the same d x d blocks from outer
    products of cached vectors; hessian_c evaluates each case block once
    on the (i1, i2) token grid and places it in the classify_case layout.

A stack broadcasts the same arithmetic over a leading axis, with no loop,
and each of its Hessians is bit for bit its own call's: d2c_table and
hessian_c take ints or 1-D index arrays i0 and j0 naming k residuals
(i0[r], j0[r]) and return (k, nd, nd); residual_hessians takes b probe
tokens i0 and returns (b, d, nd, nd).  Tests pin the realizations against
each other at 1e-10 (check's block/entry record compares d2c_table with
hessian_c once per chunk of consecutive residuals, so once in all at the
benchmark's certify shapes), all of them against finite differences, and
hessian_L and residual_hessians against the case blocks.

A handful of terms carry factors that are easy to mistranscribe (softmax
entries at the probe token versus the derivative token, paired
coefficients, a symmetric weight combination); comments keyed to the term
index record the algebraic constraint that fixes each one, and the
finite-difference suite is the arbiter.
"""
from __future__ import annotations

import numpy as np

from .gradient import _check_index, _term_sum, jacobian_c
from .model import ForwardCache, ProblemSpec, check_dense_cap, check_input


def classify_case(i0, i1, i2):
    """Index case of the mixed partials over tokens (i0, i1, i2), for ints
    or broadcast integer arrays such as an np.ix_ grid; total:
    1: i0 == i1 == i2, 2: i0 == i1 != i2, 3: i0 == i2 != i1,
    4: i0 != i1 == i2, 5: pairwise distinct."""
    return np.where(i0 == i1, np.where(i0 == i2, 1, 2),
                    np.where(i0 == i2, 3, np.where(i1 == i2, 4, 5)))


# i0, j0 and the indices after them are ints or broadcast integer arrays,
# the residual stack's axis first; token sums run over a trailing axis.
def _d2c_case1(cache: ForwardCache, spec: ProblemSpec, i0, j0, j1, j2):
    F, H, V = cache.F, cache.H, spec.V
    f = F.T[i0]
    h = H.T[j0]
    s = cache.S[i0, j0]
    f00 = F[i0, i0]
    h00 = H[i0, j0]
    w1, w2 = cache.Wsc[i0, j1], cache.Wsc[i0, j2]
    z1, z2 = cache.Zsc[i0, j1], cache.Zsc[i0, j2]
    t1, t2 = cache.XW[i0, j1], cache.XW[i0, j2]
    g1, g2 = cache.XW.T[j1], cache.XW.T[j2]
    fg1h = (f * g1 * h).sum(-1)
    fg2h = (f * g2 * h).sum(-1)
    terms = (
        2.0 * s * f00 * f00 * w2 * w1,                                  # D1
        2.0 * f00 * s * z2 * w1 + 2.0 * f00 * s * z1 * w2,              # D2
        -f00 * f00 * h00 * w2 * w1,                                     # D3
        -f00 * fg2h * w1 - f00 * fg1h * w2,                             # D4
        -f00 * f00 * (V[j2, j0] * w1 + V[j1, j0] * w2),                 # D5
        -s * f00 * w2 * w1,                                             # D6
        -s * f00 * (t2 * w1 + t1 * w2),                                 # D7
        -s * f00 * (spec.W[j1, j2] + spec.W[j2, j1]),                   # D8
        s * z2 * z1,                                                    # D9
        -f00 * h00 * (w2 * z1 + w1 * z2),                               # D10
        -fg2h * z1 - fg1h * z2,                                         # D11
        -f00 * (V[j2, j0] * z1 + V[j1, j0] * z2),                       # D12
        s * z1 * z2,              # D13: no softmax factor here; D9 + D13
                                  # is the cross term of the two averaged
                                  # scores, 2*s*z1*z2 total (FD-pinned)
        -s * (f * g2 * g1).sum(-1),                                     # D14
        -f00 * f00 * h00 * w2 * w1,                                     # D15
        f00 * h00 * w2 * w1,                                            # D16
        f00 * h00 * (t2 * w1 + t1 * w2),                                # D17
        f00 * (V[j2, j0] * w1 + V[j1, j0] * w2),                        # D18
        f00 * h00 * (spec.W[j1, j2] + spec.W[j2, j1]),  # D19: h00 is entry
                                  # i0 of value column j0
        (f * g2 * g1 * h).sum(-1),                                      # D20
        f00 * (t2 * V[j1, j0] + t1 * V[j2, j0]),                        # D21
    )
    return _term_sum(terms)


def _d2c_case2(cache: ForwardCache, spec: ProblemSpec, i0, j0, j1, i2, j2):
    F, H, V = cache.F, cache.H, spec.V
    f = F.T[i0]
    h = H.T[j0]
    s = cache.S[i0, j0]
    f00 = F[i0, i0]
    h00 = H[i0, j0]
    f02 = F[i2, i0]
    h02 = H[i2, j0]
    w1, w2 = cache.Wsc[i0, j1], cache.Wsc[i0, j2]
    z1 = cache.Zsc[i0, j1]
    t21 = cache.XW[i2, j1]
    fg1h = (f * cache.XW.T[j1] * h).sum(-1)
    terms = (
        2.0 * s * f02 * w2 * f00 * w1,                                  # E1
        -f02 * h02 * w2 * f00 * w1,       # E2: coefficient 1; the matching
                                          # cross term with h00 arrives
                                          # separately as E10 (FD-pinned)
        -f02 * V[j2, j0] * f00 * w1,                                    # E3
        s * f02 * w2 * z1,                                              # E4
        -f02 * h02 * w2 * z1,                                           # E5
        -f02 * V[j2, j0] * z1,                                          # E6
        s * z1 * f02 * w2,                # E7: softmax entry i2 (not the
                                          # probe entry); E4 + E7 =
                                          # 2*s*f02*w2*z1
        -s * f02 * t21 * w2,              # E8: token column i2 and softmax
                                          # entry i2, both from the z1
                                          # derivative
        -s * f02 * spec.W[j2, j1],        # E9: softmax entry i2, as in E8
        -f00 * f02 * w2 * h00 * w1,                                     # E10
        -fg1h * f02 * w2,                                               # E11
        f02 * h02 * t21 * w2,                                           # E12
        f02 * h02 * spec.W[j2, j1],                                     # E13
        f02 * t21 * V[j2, j0],                                          # E14
        -f00 * f02 * w2 * V[j1, j0],                                    # E15
    )
    return _term_sum(terms)


def _d2c_case4(cache: ForwardCache, spec: ProblemSpec, i0, j0, i1, j1, j2):
    V = spec.V
    s = cache.S[i0, j0]
    f01 = cache.F[i1, i0]
    h01 = cache.H[i1, j0]
    w1, w2 = cache.Wsc[i0, j1], cache.Wsc[i0, j2]
    terms = (
        2.0 * s * f01 * f01 * w2 * w1,                                  # F1
        -2.0 * f01 * f01 * h01 * w2 * w1, # F2: coefficient 2, one copy
                                          # from each derivative route
                                          # (FD-pinned)
        -f01 * f01 * (V[j2, j0] * w1 + V[j1, j0] * w2),                 # F3
        -s * f01 * w1 * w2,                                             # F4
        f01 * w1 * w2 * h01,                                            # F5
        V[j2, j0] * f01 * w1 + V[j1, j0] * f01 * w2,                    # F6
    )
    return _term_sum(terms)


def _d2c_case5(cache: ForwardCache, spec: ProblemSpec, i0, j0, i1, j1, i2, j2):
    s = cache.S[i0, j0]
    f01, f02 = cache.F[i1, i0], cache.F[i2, i0]
    w1, w2 = cache.Wsc[i0, j1], cache.Wsc[i0, j2]
    terms = (
        2.0 * s * f01 * f02 * w2 * w1,                                  # G1
        -f01 * f02 * w2 * w1 * (cache.H[i2, j0] + cache.H[i1, j0]),     # G2
        -f01 * f02 * (spec.V[j2, j0] * w1 + spec.V[j1, j0] * w2),       # G3
    )
    return _term_sum(terms)


def d2c_entry(cache: ForwardCache, spec: ProblemSpec, i0: int, j0: int,
              i1: int, j1: int, i2: int, j2: int) -> float:
    """d^2 c[i0, j0] / dx[i1, j1] dx[i2, j2] via the per-case term tables."""
    _check_index(spec, i0=i0, j0=j0, i1=i1, j1=j1, i2=i2, j2=j2)
    case = classify_case(i0, i1, i2)
    if case == 1:
        value = _d2c_case1(cache, spec, i0, j0, j1, j2)
    elif case == 2:
        value = _d2c_case2(cache, spec, i0, j0, j1, i2, j2)
    elif case == 3:
        # symmetry of second derivatives: swap the derivative pair
        value = _d2c_case2(cache, spec, i0, j0, j2, i1, j1)
    elif case == 4:
        value = _d2c_case4(cache, spec, i0, j0, i1, j1, j2)
    else:
        value = _d2c_case5(cache, spec, i0, j0, i1, j1, i2, j2)
    return float(value)


def d2c_table(cache: ForwardCache, spec: ProblemSpec, i0, j0) -> np.ndarray:
    """nd x nd Hessian of c[i0, j0] from the term tables, entry for entry
    d2c_entry: the case 1, 2, 4 and 5 tables are evaluated once each on a
    broadcast (i1, j1, i2, j2) grid and placed in the classify_case
    layout, case 3 as the transpose of case 2.  Index arrays i0 and j0 (or
    an int and an array) name k residuals and return the (k, nd, nd) stack."""
    i, j = _check_index(spec, stack=True, i0=i0, j0=j0)
    shape, i, j = i.shape, i.reshape(-1), j.reshape(-1)
    n, d, r = spec.n, spec.d, np.arange(len(i))
    i1, j1, i2, j2 = np.ix_(range(n), range(d), range(n), range(d))
    ig, jg = (a[:, None, None, None, None] for a in (i, j))  # the stack leads the grid
    T = _d2c_case5(cache, spec, ig, jg, i1, j1, i2, j2)     # every index varies
    T[..., i1, j1, i1, j2] = _d2c_case4(cache, spec, ig, jg, i1, j1, j2)
    E = _d2c_case2(cache, spec, ig, jg, j1, i2, j2)[:, 0]
    T[r, i] = E
    T[r, :, :, i] = np.moveaxis(E, -3, -1)                  # case 3
    T[r, i, :, i] = _d2c_case1(cache, spec, ig, jg, j1, j2)[:, 0, :, 0]
    return T.reshape(*shape, n * d, n * d)


def _outer(a, b):
    """Outer products of the trailing vectors of two stacks."""
    return a[..., :, None] * b[..., None, :]


# i0, j0 and the token indices after them are ints or broadcast arrays; the
# blocks carry the residual stack's and token axes first and (d, d) last.
def _case1_vectors(cache: ForwardCache, spec: ProblemSpec, i0, j0):
    f = cache.F.T[i0]
    h = cache.H.T[j0]
    wv = cache.Wsc[i0, :]          # W X[:, i0]
    zv = cache.Zsc[i0, :]          # W^T X f
    tv = cache.XW[i0, :]           # W^T X[:, i0]
    vc = spec.V.T[j0]
    return f, h, wv, zv, tv, vc


def _block_case1(cache: ForwardCache, spec: ProblemSpec, i0, j0):
    f, h, wv, zv, tv, vc = _case1_vectors(cache, spec, i0, j0)
    s = cache.S[i0, j0][..., None, None]
    f00 = cache.F[i0, i0][..., None, None]
    h00 = cache.H[i0, j0][..., None, None]
    W = spec.W
    Gm = cache.XW                  # columns are X^T W[:, j]
    m = np.matmul(Gm.T, (f * h)[..., None])[..., 0]  # m[j] = <f o XW[:, j], h>
    ww = _outer(wv, wv)
    wz = _outer(wv, zv)
    B = 2.0 * s * f00 * f00 * ww                            # B1
    B += 2.0 * f00 * s * (wz + wz.mT)                       # B2
    B += -(f00 * f00) * h00 * ww                            # B3
    B += -f00 * (_outer(m, wv) + _outer(wv, m))             # B4
    B += -(f00 * f00) * (_outer(wv, vc) + _outer(vc, wv))   # B5
    B += -s * f00 * ww                                      # B6
    B += -s * f00 * (_outer(wv, tv) + _outer(tv, wv))       # B7
    B += -s * f00 * (W + W.T)      # B8: symmetric combination; an
                                   # antisymmetric W form cannot match
                                   # the symmetric D8 entries
    B += s * _outer(zv, zv)                                 # B9
    B += -f00 * h00 * (wz.mT + wz)                          # B10
    B += -(_outer(zv, m) + _outer(m, zv))  # B11: both summands carry
                                   # minus, matching D11
    B += -f00 * (_outer(zv, vc) + _outer(vc, zv))  # B12: both summands
                                   # carry minus, matching D12
    B += s * _outer(zv, zv)        # B13: no softmax factor, mirroring D13
    B += -s * (Gm.T * f[..., None, :]) @ Gm                 # B14
    B += -(f00 * f00) * h00 * ww                            # B15
    B += f00 * h00 * ww                                     # B16
    B += f00 * h00 * (_outer(wv, tv) + _outer(tv, wv))      # B17
    B += f00 * (_outer(wv, vc) + _outer(vc, wv))  # B18: value COLUMN
                                   # j0 on both sides, matching D18
    B += f00 * h00 * (W + W.T)                              # B19
    B += (Gm.T * (f * h)[..., None, :]) @ Gm  # B20: weight factor on
                                   # both sides (entry = <f o g_j1 o g_j2,
                                   # h>, D20)
    B += f00 * (_outer(tv, vc) + _outer(vc, tv))            # B21
    return B


def block_case1(cache: ForwardCache, spec: ProblemSpec, i0: int, j0: int) -> np.ndarray:
    """Diagonal probe block: all three indices on token i0."""
    _check_index(spec, i0=i0, j0=j0)
    return _block_case1(cache, spec, i0, j0)


def _block_case2(cache: ForwardCache, spec: ProblemSpec, i0, j0, i2):
    f, h, wv, zv, _, vc = _case1_vectors(cache, spec, i0, j0)
    s = cache.S[i0, j0][..., None, None]
    f00 = cache.F[i0, i0][..., None, None]
    h00 = cache.H[i0, j0][..., None, None]
    f02 = cache.F[i2, i0][..., None, None]
    h02 = cache.H[i2, j0][..., None, None]
    t2v = cache.XW[i2][..., None]  # W^T X[:, i2]
    m = np.matmul(cache.XW.T, (f * h)[..., None])[..., 0]
    ww = _outer(wv, wv)
    zw = _outer(zv, wv)
    J = 2.0 * s * f02 * f00 * ww                            # J1
    J += -f02 * h02 * f00 * ww     # J2: coefficient 1, as in E2
    J += -f02 * f00 * _outer(wv, vc)                        # J3
    J += s * f02 * zw                                       # J4
    J += -f02 * h02 * zw                                    # J5
    J += -f02 * _outer(zv, vc)                              # J6
    J += s * f02 * zw              # J7: softmax entry i2, as in E7
    J += -s * f02 * (t2v * wv[..., None, :])  # J8: W^T X[:, i2] against wv,
                                   # matching E8's token-i2 factors
    J += -s * f02 * spec.W.T       # J9: softmax entry i2, as in E9
    J += -f00 * f02 * h00 * ww                              # J10
    J += -f02 * _outer(m, wv)                               # J11
    J += f02 * h02 * (t2v * wv[..., None, :])               # J12
    J += f02 * h02 * spec.W.T                               # J13
    J += f02 * (t2v * vc[..., None, :])                     # J14
    J += -f00 * f02 * _outer(vc, wv)                        # J15
    return J


def block_case2(cache: ForwardCache, spec: ProblemSpec,
                i0: int, j0: int, i2: int) -> np.ndarray:
    """Probe-row block: first derivative on token i0, second on i2 != i0."""
    _check_index(spec, i0=i0, j0=j0, i2=i2)
    if i2 == i0:
        raise ValueError("block_case2 requires i2 != i0")
    return _block_case2(cache, spec, i0, j0, i2)


def block_case3(cache: ForwardCache, spec: ProblemSpec,
                i0: int, j0: int, i1: int) -> np.ndarray:
    """Probe-column block: the transpose of the matching case-2 block.

    Symmetry of second derivatives identifies the (i1, i0) block with the
    transposed (i0, i1) block; the FD suite confirms the orientation.
    """
    _check_index(spec, i0=i0, i1=i1)
    if i1 == i0:
        raise ValueError("block_case3 requires i1 != i0")
    return block_case2(cache, spec, i0, j0, i1).T


def _block_case4(cache: ForwardCache, spec: ProblemSpec, i0, j0, i1):
    s = cache.S[i0, j0][..., None, None]
    f01 = cache.F[i1, i0][..., None, None]
    h01 = cache.H[i1, j0][..., None, None]
    _, _, wv, _, _, vc = _case1_vectors(cache, spec, i0, j0)
    ww = _outer(wv, wv)
    wvvc = _outer(wv, vc)
    K = 2.0 * s * f01 * f01 * ww                            # K1
    K += -2.0 * f01 * f01 * h01 * ww  # K2: coefficient 2, as in F2
    K += -f01 * f01 * (wvvc + wvvc.mT)                      # K3
    K += -s * f01 * ww                                      # K4
    K += f01 * h01 * ww                                     # K5
    K += f01 * (wvvc + wvvc.mT)                             # K6
    return K


def block_case4(cache: ForwardCache, spec: ProblemSpec,
                i0: int, j0: int, i1: int) -> np.ndarray:
    """Off-probe diagonal block: both derivatives on token i1 != i0."""
    _check_index(spec, i0=i0, j0=j0, i1=i1)
    if i1 == i0:
        raise ValueError("block_case4 requires i1 != i0")
    return _block_case4(cache, spec, i0, j0, i1)


def _block_case5(cache: ForwardCache, spec: ProblemSpec, i0, j0, i1, i2):
    s = cache.S[i0, j0][..., None, None]
    f01 = cache.F[i1, i0][..., None, None]
    f02 = cache.F[i2, i0][..., None, None]
    _, _, wv, _, _, vc = _case1_vectors(cache, spec, i0, j0)
    ww = _outer(wv, wv)
    wvvc = _outer(wv, vc)
    N = 2.0 * s * f01 * f02 * ww                            # N1
    N += -f01 * f02 * (cache.H[i2, j0] + cache.H[i1, j0])[..., None, None] * ww  # N2
    N += -f01 * f02 * (wvvc + wvvc.mT)  # N3: same w vector on both sides,
                                   # matching G3
    return N


def block_case5(cache: ForwardCache, spec: ProblemSpec,
                i0: int, j0: int, i1: int, i2: int) -> np.ndarray:
    """Fully off-probe block: tokens i0, i1, i2 pairwise distinct."""
    _check_index(spec, i0=i0, j0=j0, i1=i1, i2=i2)
    if i1 == i0 or i2 == i0 or i1 == i2:
        raise ValueError("block_case5 requires pairwise distinct tokens")
    return _block_case5(cache, spec, i0, j0, i1, i2)


def hessian_c(cache: ForwardCache, spec: ProblemSpec, i0, j0) -> np.ndarray:
    """nd x nd Hessian of one residual entry from the case blocks: each
    case is evaluated once on the (i1, i2) token grid and placed in the
    classify_case layout.  Index arrays i0 and j0 (or an int and an
    array) name k residuals and return the (k, nd, nd) stack."""
    i, j = _check_index(spec, stack=True, i0=i0, j0=j0)
    shape, i, j = i.shape, i.reshape(-1), j.reshape(-1)
    n, nd, r, tok = spec.n, spec.n * spec.d, np.arange(len(i)), np.arange(spec.n)
    it, jt = i[:, None], j[:, None]    # the stack leads the (i1, i2) token grid
    T = _block_case5(cache, spec, it[..., None], jt[..., None], tok[:, None], tok)
    T[:, tok, tok] = _block_case4(cache, spec, it, jt, tok)
    J = _block_case2(cache, spec, it, jt, tok)
    T[r, i] = J
    T[r, :, i] = J.mT                                          # case 3
    T[r, i, i] = _block_case1(cache, spec, i, j)
    return T.swapaxes(-3, -2).reshape(*shape, nd, nd)


def residual_hessians(cache: ForwardCache, spec: ProblemSpec, i0) -> np.ndarray:
    """(d, nd, nd) stack of the Hessians of the residuals c[i0, :], entry
    j0 equal to hessian_c(cache, spec, i0, j0); i0 a 1-D array of b probe
    tokens returns the (b, d, nd, nd) stacks, each equal to its own call.

    c[i0, j0] = <p, H[:, j0]> with p = F[:, i0] the softmax of the score
    column a, whose Jacobian Ja has row s = w at token s plus XW[s] at
    token i0 (w = Wsc[i0]).  With g = p o (H[:, j0] - S[i0, j0]), u = Ja^T p,
    v = Ja^T g, dp = p o (Ja - u) and Ev[r, (t, k)] = [r = t] V[k, j0], the
    Hessian is hessian_L's three pieces for one residual: the softmax
    curvature Ja^T diag(g) Ja - v u^T - u v^T, the softmax-value cross term
    dp^T Ev + Ev^T dp, and the bilinear scores g[s] W at block (s, i0) and
    g[s] W^T at (i0, s).  All but the last are one batched product L^T R
    over 3n + 2 stacked rows; the largest temporaries hold b d (nd)^2
    entries.
    """
    i = _check_index(spec, stack=True, i0=i0)[0].reshape(-1)
    n, d, b = spec.n, spec.d, len(i)
    p, bb, tok = cache.F.T[i], np.arange(b), np.arange(n)
    Ja = np.zeros((b, n, n, d))
    Ja[:, tok, tok] = cache.Wsc[i, None]
    Ja[bb, :, i] += cache.XW
    Ja = np.broadcast_to(Ja.reshape(b, 1, n, n * d), (b, d, n, n * d))
    Ev = np.zeros((d, n, n, d))
    Ev[:, tok, tok] = spec.V.T[:, None]
    Ev = np.broadcast_to(Ev.reshape(d, n, n * d), Ja.shape)
    g = p[:, None] * (cache.H.T - cache.S[i, :, None])         # (b, d, n)
    u, v = p[:, None, None] @ Ja, g[:, :, None] @ Ja
    dp = p[:, None, :, None] * (Ja - u)
    L = np.concatenate([Ja, dp, Ev, -v, -u], axis=2)
    R = np.concatenate([g[..., None] * Ja, Ev, dp, u, v], axis=2)
    T = (L.mT @ R).reshape(b, d, n, d, n, d)
    T[bb, :, :, :, i] += g[..., None, None] * spec.W
    T[bb, :, i] += g[:, :, None, :, None] * spec.W.T[:, None]
    return T.reshape(*np.shape(i0), d, n * d, n * d)


def hessian_L(cache: ForwardCache, spec: ProblemSpec, X) -> np.ndarray:
    """Loss Hessian 2 * (J^T J + K) + 2*gamma*I with K = sum c * hess_c.

    K is the Hessian of phi(X) = <F, X^T V C^T> with C held fixed (K == 0
    when C == 0).  With G = G_A of grad_L, w = Wsc and f_s = F[:, s], its
    pieces are the softmax curvature diag(G_s) - G_s f_s^T - f_s G_s^T
    between the Jacobians of score column s (w_s at token t, XW in token
    s), the bilinear scores (block (t, s) = G[t, s] W + G[s, t] W^T), and
    each softmax Jacobian against row t of d(X^T V C^T).  O(n^3 d^2) time,
    O((nd)^2) temporaries; K = A + A^T, so H is bitwise symmetric.
    """
    X = check_input(spec, X)
    n, d, nd = spec.n, spec.d, spec.n * spec.d
    check_dense_cap(nd)
    F, W, w, XW, Z = cache.F, spec.W, cache.Wsc, cache.XW, cache.Zsc
    G_F = cache.H @ cache.C.T
    G = F * (G_F - (F * G_F).sum(axis=0, keepdims=True))
    v = cache.C @ spec.V.T
    Y = G.T @ XW                   # Y[s] = XW^T G_s
    # A[t, k, s, l]; the rank-one sums over score columns s are one GEMM
    A = (-(F[:, None] * w.T).reshape(nd, n)
         @ (G[:, None] * w.T + F[:, None] * v.T).reshape(nd, n).T).reshape(n, d, n, d)
    # key (token t) x query (token s) of column s
    A += w.T[:, :, None] * (G[:, :, None] * (XW[:, None] - Z) - F[:, :, None] * Y)[:, None]
    # query (token s) x value (token t) of column s
    A += (F.T[:, None] * (XW.T - Z[:, :, None]))[..., None] * v[:, None, None]
    A += G[:, None, :, None] * W[:, None]                    # bilinear scores
    tok = np.arange(n)             # d x d token-diagonal blocks; A^T adds
                                   # the symmetric ones again, so half here
    A[tok, :, tok] += (w.T @ (0.5 * G[:, :, None] * w + F[:, :, None] * v)
                       + XW.T @ (0.5 * G.T[:, :, None] * XW) - Z[:, :, None] * Y[:, None])
    A = A.reshape(nd, nd)
    J = jacobian_c(cache, spec)
    return _shift_diagonal(2.0 * (J.T @ J + (A + A.T)), 2.0 * spec.gamma)


def _shift_diagonal(H: np.ndarray, c: float) -> np.ndarray:
    """H + c I in place, one addition per diagonal entry: the regularizer
    of hessian_L, check's loss Hessian at gamma and the Newton damping."""
    H[np.diag_indices(len(H))] += c
    return H
