import tracemalloc
import warnings

import numpy as np
import pytest

from attninv import cli
from attninv.analysis import (
    _max_norm,
    _point_norms,
    _schatten8,
    bound_suite,
    choose_gamma,
    effective_bound_constant,
    lipschitz_probe,
    min_eigenvalue,
    psd_floor,
)
from attninv import gradient, hessian
from attninv.gradient import jacobian_c
from attninv.generate import make_instance
from attninv.hessian import hessian_L
from attninv.model import (NumericalRangeError, ProblemSpec, forward_cache, loss,
                           synthesize_target)
from attninv.oracle import fd_hessian
from conftest import (
    batched_block_norm_maxima,
    batched_hessian_c_norm_max,
    block_loop_hessian_c,
    bound_suite_at,
    bounded_instance,
    bounded_x,
    direction_loop_softmax_grad_norms,
    psd_floor_at,
    row_loop_residual_grad_norms,
)


# shapes on which bound_suite's broadcasts are pinned against loops
LOOP_SHAPES = [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2), (5, 3), (8, 4), (17, 2)]


def test_r_eff_is_at_least_one_and_tracks_norms():
    spec, X = bounded_instance(0, 3, 2)
    R = effective_bound_constant(spec, X)
    assert R >= 1.0
    assert R >= np.linalg.norm(X, 2)
    assert R * R >= np.abs(spec.B).max()


@pytest.mark.parametrize("winner", ["one", "W", "V", "X", "B"])
def test_effective_bound_constant_is_the_five_way_max(winner):
    # r_spec keeps the spec's terms; its max with ||X||_2 is the same float
    # as one max over all five, whichever term wins
    spec, X = bounded_instance(0, 4, 3)
    f = {k: 30.0 if k == winner else 0.1 for k in "WVXB"}
    spec = ProblemSpec(4, 3, f["W"] * spec.W, f["V"] * spec.V, f["B"] * spec.B)
    X = f["X"] * X
    terms = [1.0, np.linalg.norm(spec.W, 2), np.linalg.norm(spec.V, 2),
             np.linalg.norm(X, 2), np.sqrt(np.abs(spec.B).max())]
    assert effective_bound_constant(spec, X) == float(max(terms))
    assert spec.r_spec == max(terms[:3] + terms[4:])


def test_check_takes_the_spec_norms_once(monkeypatch):
    # check --level all evaluates the bound constant at 7 points, once at X
    # for bound_suite and psd_floor together and at the 6 Lipschitz points;
    # the spectral norms of W and V are taken once, by ProblemSpec.r_spec
    spec, _ = make_instance(804, 8, 4)
    real_norm, real_r = np.linalg.norm, effective_bound_constant
    seen, points = [], []

    def norm(x, *args, **kwargs):
        seen.extend(name for name, M in (("W", spec.W), ("V", spec.V)) if x is M)
        return real_norm(x, *args, **kwargs)

    def r_eff(spec, X):
        points.append(X)
        return real_r(spec, X)

    monkeypatch.setattr(np.linalg, "norm", norm)
    monkeypatch.setattr(cli.analysis, "effective_bound_constant", r_eff)
    cli._check_entries(spec, cli._sample_x(spec, 804), "all", 804)
    assert len(points) == 7
    assert sorted(seen) == ["V", "W"]


def _traced_peak(fn) -> int:
    """Peak bytes that fn allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analysis_checks_peak_below_the_fd_hessian():
    # at the 8 x 4 certify point the residual Hessians come in token chunks
    # of at most 2**13 entries, so no analysis check allocates more at its
    # peak than the FD Hessian oracle does at the same point
    spec, _ = make_instance(804, 8, 4)
    X = cli._sample_x(spec, 804)
    cache = forward_cache(spec, X)
    H0 = hessian_L(cache, spec, X)
    pairs = [(bounded_x(2 * k, 8, 4), bounded_x(2 * k + 1, 8, 4)) for k in range(3)]
    fd = _traced_peak(lambda: fd_hessian(lambda Ys: loss(spec, Ys), X))
    peaks = {"bound_suite": _traced_peak(
                 lambda: bound_suite(cache, spec, _point_norms(cache, spec, X))),
             "psd_floor": _traced_peak(
                 lambda: psd_floor(spec, H0, _point_norms(cache, spec, X))),
             "lipschitz_probe": _traced_peak(lambda: lipschitz_probe(spec, pairs))}
    assert max(peaks.values()) <= fd, (fd, peaks)


def test_bound_suite_peaks_at_most_the_batched_sweep():
    # at the 8 x 4 and 16 x 8 certify points bound_suite allocates no more at
    # its peak than the batched block sweep does with the softmax and
    # residual Jacobians held
    for seed, n, d in ((804, 8, 4), (1608, 16, 8)):
        spec, _ = make_instance(seed, n, d)
        X = cli._sample_x(spec, seed)
        cache = forward_cache(spec, X)

        def batched():
            held = gradient.softmax_jacobian(cache, spec), jacobian_c(cache, spec)
            batched_block_norm_maxima(cache, spec)
            return held

        def pruned():
            return bound_suite(cache, spec, _point_norms(cache, spec, X))

        pruned(), batched()  # first-use allocations stay out of both peaks
        assert _traced_peak(pruned) <= _traced_peak(batched)


def test_bound_suite_zero_input():
    spec, _ = bounded_instance(1, 4, 2)
    X0 = np.zeros((2, 4))
    rep = bound_suite_at(spec, X0)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["softmax_column_norm"].lhs == pytest.approx(1 / 2)  # 1/sqrt(n)


def test_bound_suite_passes_on_seeded_instance():
    spec, X = bounded_instance(0, 4, 3)
    rep = bound_suite_at(spec, X)
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_bound_suite_adversarial_scale_still_passes():
    spec, X = bounded_instance(9, 3, 2)
    X3 = X * (3.6 / max(np.linalg.norm(X, 2), 1e-12))  # spectral norm 3 * 1.2
    rep = bound_suite_at(spec, X3)
    assert rep.r_eff >= 3.5
    assert rep.passed, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize("n,d", LOOP_SHAPES)
def test_bound_suite_softmax_grad_checks_equal_the_direction_loop(n, d):
    for seed in range(4):
        spec, X = bounded_instance(seed, n, d)
        X = X * (1 + seed)
        cache = forward_cache(spec, X)
        by_name = {c.name: c.lhs for c in bound_suite_at(spec, X).checks}
        got = (by_name["softmax_grad_direction_norm"],
               by_name["softmax_grad_frobenius"])
        assert got == direction_loop_softmax_grad_norms(cache, spec)


@pytest.mark.parametrize("n,d", LOOP_SHAPES)
def test_bound_suite_residual_grad_checks_equal_the_row_loop(n, d):
    for seed in range(4):
        spec, X = bounded_instance(seed, n, d)
        X = X * (1 + seed)
        cache = forward_cache(spec, X)
        by_name = {c.name: c.lhs for c in bound_suite_at(spec, X).checks}
        got = (by_name["residual_grad_entry_abs"], by_name["residual_grad_norm"])
        assert got == row_loop_residual_grad_norms(cache, spec)


@pytest.mark.parametrize("n,cases", [(1, (1,)), (2, (1, 2, 3, 4)), (3, (1, 2, 3, 4, 5)),
                                     (6, (1, 2, 3, 4, 5))])
def test_bound_suite_records_by_n(n, cases):
    # the block records follow the index cases that occur at n
    spec, X = bounded_instance(n, n, 2)
    names = [c.name for c in bound_suite_at(spec, X).checks]
    assert names == [
        "softmax_column_norm", "value_column_norm", "residual_abs",
        "weighted_input_column_norm", "score_coeff_abs", "softmax_score_abs",
        "output_abs", "softmax_grad_direction_norm", "softmax_grad_frobenius",
        "residual_grad_entry_abs", "residual_grad_norm",
    ] + [f"hessian_block{k}_norm" for k in cases]


def test_psd_floor_at_truth_is_gauss_newton():
    spec, X = bounded_instance(4, 3, 2)
    made = synthesize_target(spec.W, spec.V, X)
    rep = psd_floor_at(made, X)
    assert rep.lambda_min >= -1e-8
    assert rep.passed and rep.hessian_c_passed


def test_psd_floor_scalar_case():
    spec = ProblemSpec(1, 1, [[0.2]], [[1.5]], [[0.7]])
    rep = psd_floor_at(spec, [[0.9]])
    assert rep.lambda_min == pytest.approx(2 * 1.5**2, abs=1e-12)
    assert rep.lambda_min >= 0.0 >= rep.floor
    assert rep.passed


def test_psd_floor_seeded():
    spec, X = bounded_instance(0, 3, 2)
    rep = psd_floor_at(spec, X)
    assert rep.passed and rep.hessian_c_passed


def test_min_eigenvalue_out_of_range_is_numerical_range_error(monkeypatch):
    assert min_eigenvalue(np.diag([2.0, -1.0])) == -1.0
    for bad in (np.inf, np.nan):
        with pytest.raises(NumericalRangeError, match="not finite"):
            min_eigenvalue(np.diag([1.0, bad]))

    def no_convergence(H):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # psd_floor's eigensolve ends the same way
    spec, X = bounded_instance(0, 3, 2)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NumericalRangeError, match="eigensolve failed"):
        psd_floor_at(spec, X)


def test_choose_gamma_formula_and_positivity():
    assert choose_gamma(1, 1, 1.0) == 72.0
    assert choose_gamma(2, 2, 1.0) == 288.0
    for r_eff in (0.5, float("nan")):
        with pytest.raises(ValueError):
            choose_gamma(1, 1, r_eff)
    spec, X = bounded_instance(0, 3, 2)
    gamma = choose_gamma(3, 2, effective_bound_constant(spec, X))
    reg = spec.with_gamma(gamma)
    H = hessian_L(forward_cache(reg, X), reg, X)
    assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() > 0


def test_lipschitz_identical_pair_reports_zero():
    spec, X = bounded_instance(2, 3, 2)
    rep = lipschitz_probe(spec, [(X, X)])
    assert rep.passed
    assert all(c.lhs == 0.0 for c in rep.checks)


def test_lipschitz_value_ratio_never_exceeds_value_norm():
    spec, X = bounded_instance(3, 3, 2)
    for s in range(5):
        Y = bounded_x(100 + s, 3, 2)
        cx = forward_cache(spec, X)
        cy = forward_cache(spec, Y)
        dist = np.linalg.norm(X - Y)
        ratio = np.linalg.norm(cx.H - cy.H, axis=0).max() / dist
        assert ratio <= np.linalg.norm(spec.V, 2) + 1e-12


def test_lipschitz_probe_passes_and_labels_kinds():
    spec, X = bounded_instance(0, 3, 2)
    pairs = [(X, bounded_x(41, 3, 2)), (X, bounded_x(42, 3, 2))]
    rep = lipschitz_probe(spec, pairs)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    kinds = {c.kind for c in rep.checks}
    assert kinds == {"theorem", "smoke"}


# Block-loop references: the per-residual case blocks and hessian_c that
# the analysis checks are pinned against.

def looped_block_norms(cache, spec):
    """Worst ord-2 norm of each case's blocks, one block call at a time."""
    n, d = spec.n, spec.d
    worst = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0}
    for i0 in range(n):
        for j0 in range(d):
            worst[1] = max(worst[1], np.linalg.norm(
                hessian.block_case1(cache, spec, i0, j0), 2))
            for i2 in range(n):
                if i2 == i0:
                    continue
                worst[2] = max(worst[2], np.linalg.norm(
                    hessian.block_case2(cache, spec, i0, j0, i2), 2))
                worst[3] = max(worst[3], np.linalg.norm(
                    hessian.block_case3(cache, spec, i0, j0, i2), 2))
                worst[4] = max(worst[4], np.linalg.norm(
                    hessian.block_case4(cache, spec, i0, j0, i2), 2))
                for i1 in range(n):
                    if i1 not in (i0, i2):
                        worst[5] = max(worst[5], np.linalg.norm(
                            hessian.block_case5(cache, spec, i0, j0, i1, i2), 2))
    return worst


def looped_hessian_c(cache, spec):
    return [block_loop_hessian_c(cache, spec, i0, j0)
            for i0 in range(spec.n) for j0 in range(spec.d)]


def _agree(got, want, n):
    """1e-12 relative; 1e-15 absolute for n == 1, where c is linear in x
    and Hessian values are rounding-level zeros on both sides."""
    return abs(got - want) <= 1e-12 * (1e-3 if n == 1 else abs(want))


ANALYSIS_POINTS = [(1, 1, 3), (2, 2, 2), (3, 3, 2), (4, 2, 3), (5, 4, 3), (6, 5, 2)]


def _analysis_points():
    for seed, n, d in ANALYSIS_POINTS:
        spec, X = bounded_instance(7000 + seed, n, d)
        made = synthesize_target(spec.W, spec.V, X)
        yield spec, X                                          # independent B
        yield made, X                                          # the truth
        yield spec, X * (3.6 / max(np.linalg.norm(X, 2), 1e-12))  # far scale


def test_bound_suite_blocks_match_block_loop():
    for spec, X in _analysis_points():
        cache = forward_cache(spec, X)
        rep = bound_suite_at(spec, X)
        ref = looped_block_norms(cache, spec)
        blocks = [c for c in rep.checks if c.name.startswith("hessian_block")]
        cases = {1: (1,), 2: (1, 2, 3, 4)}.get(spec.n, (1, 2, 3, 4, 5))
        assert [c.name for c in blocks] == [f"hessian_block{k}_norm" for k in cases]
        for c, k in zip(blocks, cases):
            assert _agree(c.lhs, ref[k], spec.n), (c.name, c.lhs, ref[k])
            assert c.passed == (ref[k] <= c.rhs)


def test_psd_floor_hessian_c_norm_matches_block_loop():
    for spec, X in _analysis_points():
        rep = psd_floor_at(spec, X)
        base = spec.with_gamma(0.0)
        ref = max(np.linalg.norm(Hc, 2)
                  for Hc in looped_hessian_c(forward_cache(base, X), base))
        assert _agree(rep.hessian_c_norm_max, ref, spec.n)
        assert rep.hessian_c_passed == (ref <= rep.hessian_c_bound)


def test_lipschitz_probe_residual_ratios_match_block_loop():
    for seed, n, d in ANALYSIS_POINTS:
        spec, X = bounded_instance(7000 + seed, n, d)
        pairs = [(X, bounded_x(7100 + seed + k, n, d)) for k in range(2)]
        rep = lipschitz_probe(spec, pairs)
        by_name = {c.name: c for c in rep.checks}
        base = spec.with_gamma(0.0)
        for idx, (A, B) in enumerate(pairs):
            ca, cb = forward_cache(base, A), forward_cache(base, B)
            dist = float(np.linalg.norm(A - B))
            ja, jb = jacobian_c(ca, base), jacobian_c(cb, base)
            gc = max(float(np.abs(ra - rb).max()) for ra, rb in zip(ja, jb))
            hc = max(float(np.abs(ha - hb).max()) for ha, hb in
                     zip(looped_hessian_c(ca, base), looped_hessian_c(cb, base)))
            for name, want in (("residual_grad_ratio", gc / dist),
                               ("residual_hess_ratio", hc / dist)):
                got = by_name[f"pair{idx}_{name}"]
                assert _agree(got.lhs, want, n), (name, got.lhs, want)
                assert got.passed == (want <= got.rhs)


# _max_norm against the batched ord-2 norm's maximum, compared with ==

def _batched_max(stack):
    return np.linalg.norm(stack, 2, axis=(1, 2)).max()


def _rank_one(rng, r, c):
    return np.outer(rng.standard_normal(r), rng.standard_normal(c))


def test_max_norm_of_a_matrix_and_its_transpose():
    # equal norms in exact arithmetic; computed, they can read an ulp apart
    rng = np.random.default_rng(11)
    apart = 0
    for _ in range(200):
        A = rng.standard_normal((4, 4))
        B = _rank_one(rng, 4, 4)
        apart += np.linalg.norm(A, 2) != np.linalg.norm(A.T, 2)
        for M in (A, B):
            for stack in (np.stack([M, M.T]), np.stack([M.T, M]),
                          np.stack([M, 0.5 * A, M.T, 0.5 * B])):
                assert _max_norm(stack, -np.inf) == _batched_max(stack)
    assert apart


def test_max_norm_of_rank_one_matrices():
    # ||B||_2 equals the Schatten-8 bound exactly; rows and columns permuted
    # keep both
    rng = np.random.default_rng(12)
    for _ in range(200):
        B = _rank_one(rng, 5, 4)
        stack = np.stack([B, B[::-1], B[:, ::-1], B[::-1, ::-1], 0.999 * B])
        assert _max_norm(stack, -np.inf) == _batched_max(stack)
        assert _max_norm(stack[::-1], -np.inf) == _batched_max(stack)


def test_max_norm_when_the_largest_frobenius_norm_is_not_the_largest():
    # the identity has the larger Frobenius norm, sqrt(3) against 1.5
    stack = np.stack([np.eye(3), np.diag([1.5, 0.0, 0.0]), 0.1 * np.ones((3, 3))])
    assert _max_norm(stack, -np.inf) == _batched_max(stack) == 1.5
    # and at 9 x 9 the larger Schatten-8 bound, 9**(1/8) against 1.2
    stack = np.stack([np.eye(9), np.diag([1.2] + [0.0] * 8)])
    assert _schatten8(stack)[0] > _schatten8(stack)[1]
    assert _max_norm(stack, -np.inf) == _batched_max(stack) == 1.2
    rng = np.random.default_rng(13)
    for _ in range(50):
        stack = rng.standard_normal((30, 4, 4)) * rng.uniform(0.5, 1.0, (30, 1, 1))
        assert _max_norm(stack, -np.inf) == _batched_max(stack)


def test_max_norm_carries_the_running_maximum():
    rng = np.random.default_rng(14)
    stack = rng.standard_normal((6, 3, 5))
    top = _batched_max(stack)
    assert _max_norm(stack, 2 * top) == 2 * top
    assert _max_norm(stack, top) == top
    assert _max_norm(stack, 0.5 * top) == top
    # -inf skips a matrix
    skip = np.where(np.arange(6) < 3, _schatten8(stack), -np.inf)
    assert _max_norm(stack, -np.inf, skip) == _batched_max(stack[:3])


def test_max_norm_of_matrices_whose_squares_underflow():
    # eighth powers below the normal range make the bounds read low, down to
    # 0 from about 1e-41; each stack's own largest matrix has a 1 in 6 chance
    # of coming first
    rng = np.random.default_rng(16)
    for scale in (1e-38, 1e-40, 1e-80, 1e-150, 1e-160, 1e-170):
        for _ in range(50):
            stack = scale * rng.standard_normal((6, 3, 3))
            assert _max_norm(stack, -np.inf) == _batched_max(stack)
    # beside a matrix of norm near 1 they are pruned
    stack = np.concatenate([1e-80 * rng.standard_normal((5, 3, 3)), np.eye(3)[None]])
    assert _max_norm(stack, -np.inf) == _batched_max(stack) == 1.0


def test_max_norm_of_matrices_whose_eighth_powers_overflow():
    # their bounds read inf or NaN, with no warning, and no cut prunes them,
    # so every matrix is taken, alone or beside matrices of norm near 1
    rng = np.random.default_rng(18)
    for scale in (1e40, 1e80, 1e160, 1e300):
        for _ in range(20):
            stack = rng.standard_normal((6, 3, 3)) * np.array([scale, 1.0])[
                rng.integers(0, 2, 6), None, None]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _max_norm(stack, -np.inf) == _batched_max(stack)
            big = np.abs(stack).max(axis=(1, 2)) > 1e30
            assert not (_schatten8(stack)[big] < np.inf).any()


def test_schatten8_bounds_the_ord2_norm_in_gemm_batches():
    # (sum sigma_i^8)^(1/8) lies between ||M||_2 and rank^(1/8) ||M||_2; a
    # stack longer than one GEMM batch of 2**13 entries (8 matrices at
    # 32 x 32, one at 100 x 100) reads as one call per matrix
    rng = np.random.default_rng(17)
    for shape in ((300, 4, 4), (20, 32, 32), (3, 100, 100), (7, 3, 5)):
        stack = rng.standard_normal(shape)
        bound = _schatten8(stack)
        norm = np.linalg.norm(stack, 2, axis=(1, 2))
        assert (norm <= bound * (1 + 1e-12)).all()
        assert (bound <= min(shape[1:]) ** 0.125 * norm * (1 + 1e-12)).all()
        assert np.array_equal(bound, [_schatten8(M[None])[0] for M in stack])


def test_max_norm_of_an_all_zero_stack():
    stack = np.zeros((4, 3, 3))
    assert _max_norm(stack, -np.inf) == _batched_max(stack) == 0.0


def test_max_norm_nan_and_inf_surface_as_in_the_batched_norm():
    rng = np.random.default_rng(15)
    stack = rng.standard_normal((5, 3, 3))
    stack[1, 0, 0] = np.inf
    # an inf entry gives a NaN norm, which the maximum keeps, and an inf or
    # NaN bound, which no cut prunes
    assert not _schatten8(stack)[1] < np.inf
    assert np.isnan(_batched_max(stack))
    assert np.isnan(_max_norm(stack, -np.inf))
    assert np.isnan(_max_norm(stack, 100.0))
    assert np.isnan(_max_norm(stack[:1], np.nan))
    # a NaN entry makes the SVD fail to converge, in either order
    stack[3, 2, 1] = np.nan
    for order in (stack, stack[::-1]):
        with pytest.raises(np.linalg.LinAlgError):
            _batched_max(order)
        with pytest.raises(np.linalg.LinAlgError):
            _max_norm(order, -np.inf)


def _pin_points():
    """The certify instances at their probe points, the analysis points,
    16 x 8, n = 1 and n = 2, and zero input."""
    for seed, n, d in ((403, 4, 3), (604, 6, 4), (804, 8, 4), (1608, 16, 8)):
        spec, _ = make_instance(seed, n, d)
        yield spec, cli._sample_x(spec, seed)
    yield from _analysis_points()
    for n, d in ((1, 1), (1, 4), (2, 1), (2, 3)):
        for seed in range(3):
            spec, X = bounded_instance(seed, n, d)
            yield spec, X * (1 + seed)
    for n, d in ((1, 2), (2, 2), (4, 2), (3, 3)):
        spec, _ = bounded_instance(1, n, d)
        yield spec, np.zeros((d, n))


def test_bound_suite_block_norms_equal_the_batched_norms():
    for spec, X in _pin_points():
        cache = forward_cache(spec, X)
        got = {c.name: c.lhs for c in bound_suite_at(spec, X).checks
               if c.name.startswith("hessian_block")}
        want = batched_block_norm_maxima(cache, spec)
        assert got == {f"hessian_block{k}_norm": float(v) for k, v in want.items()}


def test_psd_floor_hessian_c_norm_equals_the_batched_norm():
    for spec, X in _pin_points():
        rep = psd_floor_at(spec, X)
        assert rep.hessian_c_norm_max == batched_hessian_c_norm_max(forward_cache(spec, X), spec)


@pytest.mark.parametrize("seed,n,d,blocks,whole", [
    (604, 6, 4, 8, 1), (804, 8, 4, 11, 2), (1608, 16, 8, 7, 2)], ids=["6x4", "8x4", "16x8"])
def test_point_norms_takes_few_svds(monkeypatch, seed, n, d, blocks, whole):
    # at the certify points the Schatten-8 bound leaves a few d x d blocks
    # and whole residual Hessians to take by SVD (the Frobenius bound left
    # 82 of 864 blocks at 6 x 4 and all 128 Hessians at 16 x 8), and
    # ||X||_2 is taken once
    spec, _ = make_instance(seed, n, d)
    X = cli._sample_x(spec, seed)
    cache = forward_cache(spec, X)
    spec.r_spec  # the spectral norms of W and V, formed on first use
    real = np.linalg._linalg.svd
    taken = {}

    def svd(a, *args, **kwargs):
        key = np.shape(a)[-2:]
        taken[key] = taken.get(key, 0) + int(np.prod(np.shape(a)[:-2]))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg._linalg, "svd", svd)
    everything = _point_norms(cache, spec, X)
    assert taken == {(d, d): blocks, (n * d, n * d): whole, (d, n): 1}
    # each level alone takes only its half: bounds no whole-Hessian SVD,
    # psd no block SVD, and the same maxima as level all
    for level, want, half in (("bounds", {(d, d): blocks}, "hessian_c_max"),
                              ("psd", {(n * d, n * d): whole}, "block_max")):
        taken.clear()
        norms = _point_norms(cache, spec, X, level)
        assert taken == {**want, (d, n): 1}
        assert norms == everything._replace(**{half: None})
