"""Empirical verification of the magnitude, curvature, and smoothness
guarantees the solver relies on.

Explicit-constant checks are provable under the bounded-parameter
assumption: a failure means an implementation bug.  Big-O checks use a
fixed generous constant (C = 200, and the 72 of the PSD floor doubled for
the loss convention) and are smoke detectors, not theorem tests; every
report entry is labeled with its kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gradient, hessian
from .model import ForwardCache, NumericalRangeError, ProblemSpec, check_input, forward_cache

BIG_O_CONSTANT = 200.0
PSD_FLOOR_CONSTANT = 72.0
# Hessian entries per residual_hessians call (one token at least) and per
# GEMM batch of the pruning bound (one matrix at least): the checks take the
# probe tokens in chunks, so they peak below the FD Hessian oracle.
_TOKEN_CHUNK_ENTRIES = 2**13
# ||M||_2 <= (sum of sigma_i^8)^(1/8) holds exactly, but computed norms
# round: a block and its transpose, or a rank-one block (where the two are
# equal), can read an ulp apart.  Pruning below a running maximum keeps a
# relative margin far above that rounding, and an absolute slack for norms
# below about 1e-38, whose eighth powers leave the normal range, so that the
# bound reads low.
_PRUNE_MARGIN = 1e-9
_PRUNE_SLACK = 1e-30


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    kind: str = "theorem"  # "theorem" (explicit constant) or "smoke" (big-O)


@dataclass(frozen=True)
class BoundReport:
    r_eff: float
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def effective_bound_constant(spec: ProblemSpec, X) -> float:
    """Measured stand-in for the bound constant: the largest of 1, the
    spectral norms of W, V, X, and sqrt(max |B|), all but X's from r_spec."""
    X = check_input(spec, X)
    return float(max(spec.r_spec, np.linalg.norm(X, 2)))


def _token_chunks(spec: ProblemSpec):
    """The probe tokens 0..n-1 as consecutive 1-D arrays of that budget."""
    step = max(1, _TOKEN_CHUNK_ENTRIES // (spec.d * (spec.n * spec.d) ** 2))
    return np.split(np.arange(spec.n), range(step, spec.n, step))


def _schatten8(stack):
    """(sum of sigma_i^8)^(1/8) = ||(M^T M)^2||_F^(1/4), an upper bound on the
    ord-2 norm, of each (r, c) matrix M over stack's leading axes.

    The two GEMMs run over slices of the first axis of at most
    _TOKEN_CHUNK_ENTRIES entries (one matrix at least), so their products
    stay that small.  An eighth power that overflows reads inf or NaN.
    """
    step = max(1, _TOKEN_CHUNK_ENTRIES // math.prod(stack.shape[1:]))
    bound = np.empty(stack.shape[:-2])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, len(stack), step):
            M = stack[k:k + step]
            # numpy takes M^T M by a symmetric rank-k update when both
            # operands share a buffer, which is slower than a GEMM on small
            # matrices: a strided view (the d x d blocks) is copied first
            G = M.mT @ np.ascontiguousarray(M)
            G = G @ G
            bound[k:k + step] = np.einsum("...ij,...ij->...", G, G)
    return bound**0.125


def _max_norm(stack, best, bound=None):
    """The larger of best and the ord-2 norms of the (r, c) matrices over
    stack's leading axes, each equal to np.linalg.norm(stack[...], 2).

    bound holds their _schatten8 bounds (taken here when None); -inf skips a
    matrix.  Unless every matrix is pruned, the one with the largest bound is
    taken first; then only the matrices whose bound reaches best, less the
    margin and slack, are gathered and taken.  A NaN or inf bound is never
    pruned, and a NaN norm propagates as in ndarray.max.
    """
    if bound is None:
        bound = _schatten8(stack)
    top = np.unravel_index(np.argmax(bound), bound.shape)
    if bound[top] < best * (1.0 - _PRUNE_MARGIN) - _PRUNE_SLACK:
        return best
    best = np.maximum(best, np.linalg.norm(stack[top], 2))
    keep = ~(bound < best * (1.0 - _PRUNE_MARGIN) - _PRUNE_SLACK)
    keep[top] = False
    if keep.any():
        best = np.maximum(best, np.linalg.norm(stack[keep], 2, axis=(1, 2)).max())
    return best


class _PointNorms(NamedTuple):
    """The measured norms at X that bound_suite and psd_floor check; a half
    that was not asked for is None."""
    r_eff: float                # effective_bound_constant(spec, X)
    block_max: dict | None      # index case -> worst ord-2 norm of its d x d blocks
    hessian_c_max: float | None  # worst ord-2 norm of a whole residual Hessian


def _point_norms(cache: ForwardCache, spec: ProblemSpec, X, level: str = "all") -> _PointNorms:
    """One sweep of the residual Hessians at X, one token chunk at a time:
    the exact worst ord-2 norm of the d x d blocks (i1, i2) in each index
    case that occurs (n = 1 has only case 1, n = 2 no case 5) and of the
    whole nd x nd Hessians, each equal to one batched np.linalg.norm over
    every matrix; cache is the forward cache at X.  level is the check
    level: "bounds" takes only the block maxima (bound_suite's half),
    "psd" only the whole-Hessian maximum (psd_floor's), "all" both."""
    r_eff = effective_bound_constant(spec, X)
    n, d, nd = spec.n, spec.d, spec.n * spec.d
    tok = np.arange(n)
    worst = None if level == "psd" else dict.fromkeys(
        sorted(set(hessian.classify_case(0, *np.ix_(tok, tok)).flat)), -np.inf)
    worst_c = None if level == "bounds" else -np.inf
    for i0 in _token_chunks(spec):
        T = hessian.residual_hessians(cache, spec, i0).reshape(-1, nd, nd)
        if worst_c is not None:
            worst_c = _max_norm(T, worst_c)
        if worst is not None:
            # residual r of the chunk is (i0[r // d], r % d); its blocks (i1, i2)
            blocks = T.reshape(-1, n, d, n, d).swapaxes(2, 3)
            bound = _schatten8(blocks)
            case_of = np.repeat(hessian.classify_case(*np.ix_(i0, tok, tok)), d, axis=0)
            for case in worst:
                worst[case] = _max_norm(blocks, worst[case],
                                        np.where(case_of == case, bound, -np.inf))
            del blocks, bound, case_of
        # free the chunk before the next one's residual Hessians are built
        del T
    return _PointNorms(r_eff, worst, None if worst_c is None else float(worst_c))


def _mk(name: str, lhs: float, rhs: float, kind: str = "theorem") -> BoundCheck:
    return BoundCheck(name=name, lhs=float(lhs), rhs=float(rhs),
                      passed=bool(lhs <= rhs), kind=kind)


def bound_suite(cache: ForwardCache, spec: ProblemSpec, norms: _PointNorms) -> BoundReport:
    """Evaluate every explicit-constant magnitude bound at X.

    cache is the forward cache at X and norms is _point_norms(cache, spec,
    X) at level "bounds" or "all".  Each check records the worst measured
    value across all indices of its family against the bound evaluated at
    the instance's effective constant.
    """
    R = norms.r_eff
    n, d = spec.n, spec.d
    sqrt_nd = float(np.sqrt(n * d))
    checks: list[BoundCheck] = []

    checks.append(_mk("softmax_column_norm", np.linalg.norm(cache.F, axis=0).max(), 1.0))
    checks.append(_mk("value_column_norm", np.linalg.norm(cache.H, axis=0).max(), R**2))
    checks.append(_mk("residual_abs", np.abs(cache.C).max(), 2.0 * R**2))
    checks.append(_mk("weighted_input_column_norm",
                      np.linalg.norm(cache.XW, axis=0).max(), R**2))
    checks.append(_mk("score_coeff_abs", np.abs(cache.Wsc).max(), R**2))
    checks.append(_mk("softmax_score_abs", np.abs(cache.Zsc).max(), R**2))
    checks.append(_mk("output_abs", np.abs(cache.S).max(), R**2))

    # one softmax derivative per (i0, i1, j1); each norm as a vector-vector
    # matmul and each Frobenius square summed left to right, as a loop would
    G = gradient.softmax_jacobian(cache, spec)
    dir_norms = np.sqrt((G[..., None, :] @ G[..., None])[..., 0, 0]).reshape(n, n * d)
    checks.append(_mk("softmax_grad_direction_norm", dir_norms.max(), 4.0 * R**2))
    checks.append(_mk("softmax_grad_frobenius",
                      np.sqrt(np.cumsum(dir_norms * dir_norms, axis=1)[:, -1]).max(),
                      4.0 * sqrt_nd * R**2))

    # one gradient row per residual; row norms as vector-vector matmuls, the
    # dot product np.linalg.norm takes on one row, so the values match a loop
    J = gradient.jacobian_c(cache, spec)
    checks.append(_mk("residual_grad_entry_abs", np.abs(J).max(), 5.0 * R**4))
    checks.append(_mk("residual_grad_norm",
                      np.sqrt((J[:, None] @ J[..., None]).max()), 5.0 * sqrt_nd * R**4))

    block_bounds = {1: 23.0 * R**6 + R**5 + 12.0 * R**3, 2: 11.0 * R**6 + 6.0 * R**3,
                    3: 11.0 * R**6 + 6.0 * R**3, 4: 5.0 * R**6 + 4.0 * R**3,
                    5: 4.0 * R**6 + 2.0 * R**3}
    for case, norm in norms.block_max.items():
        checks.append(_mk(f"hessian_block{case}_norm", norm, block_bounds[case]))

    return BoundReport(r_eff=R, checks=tuple(checks))


@dataclass(frozen=True)
class PsdReport:
    lambda_min: float
    floor: float
    passed: bool
    r_eff: float
    hessian_c_norm_max: float
    hessian_c_bound: float
    hessian_c_passed: bool


def min_eigenvalue(H) -> float:
    """Smallest eigenvalue of the symmetric matrix H; NumericalRangeError
    when H is not finite or the eigensolve does not converge."""
    if not np.isfinite(H).all():
        raise NumericalRangeError("the Hessian is not finite")
    try:
        return float(np.linalg.eigvalsh(H).min())
    except np.linalg.LinAlgError as exc:
        raise NumericalRangeError(f"eigensolve failed: {exc}") from exc


def psd_floor(spec: ProblemSpec, H0, norms: _PointNorms) -> PsdReport:
    """Lower spectral bound check for H0, the loss Hessian at gamma = 0 at
    X, plus the per-residual Hessian norm check at twice the single-entry
    bound (the doubling matches the loss convention); norms is
    _point_norms(cache, spec, X) at level "psd" or "all"."""
    R = norms.r_eff
    lam_min = min_eigenvalue(H0)
    floor = -2.0 * PSD_FLOOR_CONSTANT * spec.n * spec.d * R**8
    worst_c = norms.hessian_c_max
    c_bound = 2.0 * 36.0 * R**6
    return PsdReport(lambda_min=lam_min, floor=floor, passed=bool(lam_min >= floor), r_eff=R,
                     hessian_c_norm_max=worst_c, hessian_c_bound=c_bound,
                     hessian_c_passed=bool(worst_c <= c_bound))


def _residual_hessian_gaps(cx: ForwardCache, cy: ForwardCache, spec: ProblemSpec):
    """max |RHx - RHy| of each probe token's residual Hessians at two points,
    in token order, one token chunk and one in-place difference at a time."""
    for i0 in _token_chunks(spec):
        diff = hessian.residual_hessians(cx, spec, i0)
        diff -= hessian.residual_hessians(cy, spec, i0)
        yield from np.abs(diff, out=diff).reshape(len(i0), -1).max(axis=1)


def choose_gamma(n: int, d: int, r_eff: float) -> float:
    """Regularization weight 72 * n * d * r_eff^8, large enough that the
    doubled identity term dominates the PSD floor."""
    if not r_eff >= 1.0:
        raise ValueError("r_eff must be at least 1")
    return PSD_FLOOR_CONSTANT * n * d * float(r_eff) ** 8


def lipschitz_probe(spec: ProblemSpec, pairs) -> BoundReport:
    """Lipschitz ratio checks on concrete pairs (X, Y).

    Explicit-constant ratios (softmax, residual, value, score, averaged
    score) are theorem checks; the derivative and Hessian ratios carry the
    generous big-O constant and are labeled smoke.
    """
    n, d = spec.n, spec.d
    sqrt_nd = float(np.sqrt(n * d))
    checks: list[BoundCheck] = []
    r_eff = 1.0
    base = spec.with_gamma(0.0)
    for idx, (X, Y) in enumerate(pairs):
        X, Y = check_input(spec, X), check_input(spec, Y)
        # identical points: every ratio is zero by convention
        dist = float(np.linalg.norm(X - Y)) or 1.0
        R = max(effective_bound_constant(spec, X), effective_bound_constant(spec, Y))
        r_eff = max(r_eff, R)
        cx, cy = forward_cache(base, X), forward_cache(base, Y)
        theorem = (
            ("softmax", np.linalg.norm(cx.F - cy.F, axis=0).max(), 4.0 * sqrt_nd * R**2),
            ("residual", np.abs(cx.C - cy.C).max(), 5.0 * sqrt_nd * R**4),
            ("value", np.linalg.norm(cx.H - cy.H, axis=0).max(), R),
            ("score_coeff", np.abs(cx.Wsc - cy.Wsc).max(), R),
            ("softmax_score", np.abs(cx.Zsc - cy.Zsc).max(), 5.0 * sqrt_nd * R**4))
        smoke = (
            ("residual_grad", float(np.abs(gradient.jacobian_c(cx, base)
                                           - gradient.jacobian_c(cy, base)).max()),
             BIG_O_CONSTANT * sqrt_nd * R**6),
            ("residual_hess", float(max(_residual_hessian_gaps(cx, cy, base))),
             BIG_O_CONSTANT * sqrt_nd * R**8),
            # a pairwise sum: the flat norm's BLAS ddot varies with the threads
            ("loss_hessian", np.linalg.norm(hessian.hessian_L(cx, base, X)
                                            - hessian.hessian_L(cy, base, Y), axis=(0, 1)),
             BIG_O_CONSTANT * float(n)**3.5 * float(d)**3.5 * R**10))
        for kind, rows in (("theorem", theorem), ("smoke", smoke)):
            checks += [_mk(f"pair{idx}_{name}_ratio", gap / dist, bound, kind)
                       for name, gap, bound in rows]
    return BoundReport(r_eff=r_eff, checks=tuple(checks))
