"""Empirical verification of the magnitude, curvature, and smoothness
guarantees the solver relies on.

Explicit-constant checks are provable under the bounded-parameter
assumption: a failure means an implementation bug.  Big-O checks use a
fixed generous constant (C = 200, and the 72 of the PSD floor doubled for
the loss convention) and are smoke detectors, not theorem tests; every
report entry is labeled with its kind.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradient, hessian
from .model import ForwardCache, NumericalRangeError, ProblemSpec, check_input, forward_cache

BIG_O_CONSTANT = 200.0
PSD_FLOOR_CONSTANT = 72.0
# Hessian entries per residual_hessians call (one token at least): the checks
# take the probe tokens in chunks, so they peak below the FD Hessian oracle.
_TOKEN_CHUNK_ENTRIES = 2**13
# ||B||_2 <= ||B||_F holds exactly, but the computed norms of a block and its
# transpose, or of a rank-one block (where the two are equal), can read an ulp
# apart.  Pruning below a running maximum keeps a relative margin far above
# that rounding, and an absolute slack for entries below about 1e-154, whose
# squares leave the normal range, so that a Frobenius norm reads low.
_PRUNE_MARGIN = 1e-9
_PRUNE_SLACK = 1e-140


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


def _max_norm(stack, best, fro=None):
    """The larger of best and the ord-2 norms of the (r, c) matrices over
    stack's leading axes, each equal to np.linalg.norm(stack[...], 2).

    fro holds their Frobenius norms (taken here when None); -inf skips a
    matrix.  Unless every matrix is pruned, the one with the largest
    Frobenius norm is taken first; then only the matrices whose Frobenius
    norm reaches best, less the margin and slack, are gathered and taken.
    A NaN or inf Frobenius norm is never pruned, and a NaN norm propagates
    as in ndarray.max.
    """
    if fro is None:
        fro = np.sqrt(np.einsum("...ij,...ij->...", stack, stack))
    top = np.unravel_index(np.argmax(fro), fro.shape)
    if fro[top] < best * (1.0 - _PRUNE_MARGIN) - _PRUNE_SLACK:
        return best
    best = np.maximum(best, np.linalg.norm(stack[top], 2))
    keep = ~(fro < best * (1.0 - _PRUNE_MARGIN) - _PRUNE_SLACK)
    keep[top] = False
    if keep.any():
        best = np.maximum(best, np.linalg.norm(stack[keep], 2, axis=(1, 2)).max())
    return best


def _mk(name: str, lhs: float, rhs: float, kind: str = "theorem") -> BoundCheck:
    return BoundCheck(name=name, lhs=float(lhs), rhs=float(rhs),
                      passed=bool(lhs <= rhs), kind=kind)


def bound_suite(cache: ForwardCache, spec: ProblemSpec, X) -> BoundReport:
    """Evaluate every explicit-constant magnitude bound at X.

    Each check records the worst measured value across all indices of its
    family against the bound evaluated at the instance's effective
    constant.
    """
    R = effective_bound_constant(spec, X)
    n, d = spec.n, spec.d
    sqrt_nd = float(np.sqrt(n * d))
    # per probe token i0, one token chunk at a time, the d x d blocks (i1, i2)
    # of the d residual Hessians, and the exact worst ord-2 norm in each case
    # that occurs (n = 1 has only case 1, n = 2 no case 5).  As ||B||_2 <=
    # ||B||_F, a block is taken by SVD only where its Frobenius norm reaches
    # the case's running maximum, less a margin for rounding: a block and its
    # transpose can read an ulp apart.  The sweep runs before the Jacobians
    # below are built, so they are not held at its peak.
    tok = np.arange(n)
    worst = dict.fromkeys(sorted(set(hessian.classify_case(0, *np.ix_(tok, tok)).flat)),
                          -np.inf)
    for i0 in _token_chunks(spec):
        blocks = hessian.residual_hessians(cache, spec, i0).reshape(
            -1, d, n, d, n, d).transpose(0, 1, 2, 4, 3, 5)
        fro = np.sqrt(np.einsum("...ij,...ij->...", blocks, blocks))
        case_of = hessian.classify_case(*np.ix_(i0, tok, tok))[:, None]
        for case in worst:
            worst[case] = _max_norm(blocks, worst[case],
                                    np.where(case_of == case, fro, -np.inf))
        # free the chunk before the next one's residual Hessians are built
        del blocks, fro, case_of

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
    for case, norm in worst.items():
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


def psd_floor(cache: ForwardCache, spec: ProblemSpec, X, H0) -> PsdReport:
    """Lower spectral bound check for H0, the loss Hessian at gamma = 0,
    plus the per-residual Hessian norm check at twice the single-entry bound
    (the doubling matches the loss convention), one token chunk at a time.
    cache is the forward cache at X, which does not depend on gamma."""
    R = effective_bound_constant(spec, X)
    lam_min = min_eigenvalue(H0)
    floor = -2.0 * PSD_FLOOR_CONSTANT * spec.n * spec.d * R**8
    worst_c = -np.inf
    for i0 in _token_chunks(spec):
        worst_c = _max_norm(hessian.residual_hessians(cache, spec, i0), worst_c)
    worst_c = float(worst_c)
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
