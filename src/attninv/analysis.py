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

    # per probe token i0, one token chunk at a time, the ord-2 norm of every
    # d x d block (i1, i2) of the d residual Hessians, worst over j0; then the
    # worst in each case that occurs (n = 1 has only case 1, n = 2 no case 5)
    norms = np.concatenate([np.linalg.norm(
        hessian.residual_hessians(cache, spec, i0).reshape(-1, d, n, d, n, d)
        .transpose(0, 1, 2, 4, 3, 5), 2, axis=(4, 5)).max(axis=1)
        for i0 in _token_chunks(spec)])
    case_of = hessian.classify_case(*np.ix_(range(n), range(n), range(n)))
    block_bounds = {1: 23.0 * R**6 + R**5 + 12.0 * R**3, 2: 11.0 * R**6 + 6.0 * R**3,
                    3: 11.0 * R**6 + 6.0 * R**3, 4: 5.0 * R**6 + 4.0 * R**3,
                    5: 4.0 * R**6 + 2.0 * R**3}
    for case in sorted(set(case_of.flat)):
        checks.append(_mk(f"hessian_block{case}_norm",
                          norms[case_of == case].max(), block_bounds[case]))

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
    worst_c = float(max(m for i0 in _token_chunks(spec) for m in np.linalg.norm(
        hessian.residual_hessians(cache, spec, i0), 2, axis=(2, 3)).max(axis=1)))
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
