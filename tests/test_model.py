import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attninv.model import (
    EXP_MAX,
    NumericalRangeError,
    ProblemSpec,
    flatten_input,
    forward_cache,
    loss,
    synthesize_target,
)
from attninv.gradient import _grad_L, grad_L
from attninv.hessian import hessian_L
from attninv.solver import gd_solve, newton_solve
from conftest import (
    ACCEPTANCE_SHAPES,
    bounded_instance,
    loss_frobenius,
    matmul_forward,
    matmul_grad_L,
    matmul_loss,
)

CACHE_FIELDS = ("F", "H", "S", "C", "Wsc", "Zsc", "XW")


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(0, 1, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        ProblemSpec(2, 1, np.zeros((2, 2)), np.zeros((1, 1)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ProblemSpec(1, 1, [[np.nan]], [[0.0]], [[0.0]])
    with pytest.raises(ValueError):
        ProblemSpec(1, 1, [[0.0]], [[0.0]], [[0.0]], gamma=-1.0)


def test_flatten_order():
    # k = token*d + feature must address X[feature, token]
    X = np.arange(6.0).reshape(2, 3)  # d=2, n=3
    v = flatten_input(X)
    for i in range(3):
        for j in range(2):
            assert v[i * 2 + j] == X[j, i]


@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_flatten_roundtrip(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(d, n))
    assert np.array_equal(flatten_input(X).reshape(n, d).T, X)


def test_forward_all_ones_scores():
    # W = 0 forces exp(0) = 1 everywhere
    spec = ProblemSpec(2, 1, [[0.0]], [[1.0]], np.zeros((2, 1)))
    cache = forward_cache(spec, [[1.0, 1.0]])
    assert np.array_equal(cache.F, np.full((2, 2), 0.5))


def test_forward_single_token_softmax():
    spec = ProblemSpec(1, 1, [[0.7]], [[1.0]], np.zeros((1, 1)))
    cache = forward_cache(spec, [[3.0]])
    assert cache.F.shape == (1, 1)
    assert cache.F[0, 0] == 1.0


def test_forward_matches_longdouble_evaluation():
    spec, X = bounded_instance(0, 3, 2)
    cache = forward_cache(spec, X)
    scores = (X.T @ spec.W @ X).astype(np.longdouble)
    U = np.exp(scores)
    F = U / U.sum(axis=0)
    assert np.abs(cache.F - F.astype(float)).max() < 1e-14
    # each column relative to its largest entry is exp(score - max score)
    rel = np.exp(scores - scores.max(axis=0))
    assert np.abs(cache.F / cache.F.max(axis=0) - rel.astype(float)).max() < 1e-14


def test_forward_invariants():
    spec, X = bounded_instance(3, 4, 3)
    cache = forward_cache(spec, X)
    assert np.abs(cache.F.sum(axis=0) - 1.0).max() < 1e-12
    assert (cache.F > 0).all()
    assert np.abs(cache.S - (cache.C + spec.B)).max() < 1e-15


def test_forward_overflow_names_column():
    spec = ProblemSpec(2, 1, [[1.0]], [[1.0]], np.zeros((2, 1)))
    with pytest.raises(NumericalRangeError, match="column"):
        forward_cache(spec, [[40.0, 40.0]])


def _reference_forward(spec, X):
    """The forward pass with its overflow check as a second, unshifted
    exp over every score."""
    X = np.asarray(X, dtype=float)
    scores = X.T @ spec.W @ X
    with np.errstate(over="ignore", invalid="ignore"):
        U = np.exp(scores)
    in_range = np.isfinite(U).all(axis=0)
    if not in_range.all():
        return int(np.flatnonzero(~in_range)[0])
    with np.errstate(invalid="ignore"):
        shifted = np.exp(scores - scores.max(axis=0, keepdims=True))
    F = shifted / shifted.sum(axis=0, keepdims=True)
    H = X.T @ spec.V
    S = F.T @ H
    XW = X.T @ spec.W
    return {"F": F, "H": H, "S": S, "C": S - spec.B, "Wsc": (spec.W @ X).T,
            "Zsc": F.T @ XW, "XW": XW}


def test_exp_max_is_the_last_finite_exp():
    # the predicate forward_cache applies to the column maxima, against exp
    s = np.array([EXP_MAX, np.nextafter(EXP_MAX, -np.inf),
                  np.nextafter(EXP_MAX, np.inf), np.nan, np.inf, -np.inf, 0.0])
    with np.errstate(over="ignore"):
        assert np.array_equal(s <= EXP_MAX, np.isfinite(np.exp(s)))
        for v in s:  # the scalar path of exp as well
            assert (v <= EXP_MAX) == np.isfinite(np.exp(v))


_HUGE = 1e200
_PAST = float(np.nextafter(EXP_MAX, np.inf))


# Each case fixes W (d x d) and X (d x n) so that the scores take one value
# on either side of EXP_MAX, or +inf, -inf or NaN in the matmul itself;
# bad is the first column whose exp overflows, None when none does.
@pytest.mark.parametrize("W, X, bad", [
    ([[EXP_MAX]], [[1.0]], None),                  # exactly the threshold
    ([[_PAST]], [[1.0]], 0),                       # one ulp past it
    ([[_PAST]], [[0.0, 1.0]], 1),                  # column 1 of two
    ([[1.0]], [[0.0, _HUGE]], 1),                  # +inf in column 1 only
    ([[1.0]], [[_HUGE, _HUGE]], 0),                # both columns: name 0
    ([[-1.0]], [[_HUGE]], None),                   # -inf passes the test
    ([[_HUGE, 0.0], [0.0, -_HUGE]], [[_HUGE], [_HUGE]], 0),  # inf - inf = NaN
])
def test_overflow_predicate_matches_two_exp_reference(W, X, bad):
    W = np.asarray(W, dtype=float)
    X = np.asarray(X, dtype=float)
    d, n = X.shape
    spec = ProblemSpec(n, d, W, np.eye(d), np.zeros((n, d)))
    with np.errstate(over="ignore", invalid="ignore"):
        reference = _reference_forward(spec, X)
        assert reference == bad if bad is not None else isinstance(reference, dict)
        if bad is None:
            forward_cache(spec, X)
        else:
            with pytest.raises(NumericalRangeError, match=f"column {bad};"):
                forward_cache(spec, X)


@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 4),
       st.sampled_from([0.5, 1.2, 3.0]))
@settings(max_examples=40, deadline=None)
def test_forward_cache_matches_two_exp_reference_bitwise(seed, n, d, r):
    spec, X = bounded_instance(seed, n, d, r)
    cache = forward_cache(spec, X)
    for name, ref in _reference_forward(spec, X).items():
        assert np.array_equal(getattr(cache, name), ref), name


@pytest.mark.parametrize("n,d", ACCEPTANCE_SHAPES + [(4, 3), (6, 4), (8, 4), (1, 3), (2, 1)])
def test_stacked_forward_and_loss_equal_per_matrix_bitwise(n, d):
    # both branches of the gamma term: skipped at 0, added at 0.3
    base, X = bounded_instance(n + 10 * d, n, d)
    rng = np.random.default_rng(n * d)
    Xs = X + 0.1 * rng.normal(size=(7, d, n))
    for spec in (base, base.with_gamma(0.3)):
        stacked = forward_cache(spec, Xs)
        values = loss(spec, Xs)
        assert values.shape == (7,)
        assert values.tobytes() == matmul_loss(spec, Xs).tobytes()
        for p, Y in enumerate(Xs):
            one = forward_cache(spec, Y)
            for name in CACHE_FIELDS:
                assert np.array_equal(getattr(stacked, name)[p], getattr(one, name)), name
            assert values[p] == loss(spec, Y) == matmul_loss(spec, Y)
        assert isinstance(loss(spec, X), float)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("d", range(1, 9))
def test_dot_products_equal_matmul_reference_bitwise(n, d):
    # n = 1 and d = 1 reach numpy's gemv and dot paths, not gemm; gamma = 0
    # skips the gamma terms of the loss and the gradient, 0.3 adds them
    base, X = bounded_instance(7 * n + d, n, d)
    rng = np.random.default_rng(n * d)
    Xs = X + 0.1 * rng.normal(size=(3, d, n))
    for spec in (base, base.with_gamma(0.3)):
        for Y in (X, Xs):
            cache, ref = forward_cache(spec, Y), matmul_forward(spec, Y)
            for name in CACHE_FIELDS:
                assert np.array_equal(getattr(cache, name), getattr(ref, name)), name
            assert np.array_equal(loss(spec, Y), matmul_loss(spec, Y))
        for Y in (X, *Xs):
            cache = forward_cache(spec, Y)
            # array_equal: at gamma = 0 a zero entry may differ in sign only
            assert np.array_equal(_grad_L(cache, spec, Y), matmul_grad_L(cache, spec, Y))


def test_zsc_is_formed_on_first_read_only():
    spec, X = bounded_instance(5, 4, 3)
    cache = forward_cache(spec, X)
    assert "Zsc" not in vars(cache)
    Z = cache.Zsc
    assert cache.Zsc is Z and np.array_equal(Z, cache.F.mT @ cache.XW)


def test_stacked_overflow_names_first_column_of_first_bad_matrix():
    # matrix 1 overflows in column 2, matrix 2 in column 0: name column 2
    spec = ProblemSpec(3, 1, [[1.0]], [[1.0]], np.zeros((3, 1)))
    Xs = np.array([[[1.0, 1.0, 1.0]], [[1.0, 1.0, 40.0]], [[40.0, 1.0, 1.0]]])
    with pytest.raises(NumericalRangeError, match="column 2;"):
        forward_cache(spec, Xs)
    with pytest.raises(NumericalRangeError, match="column 2;"):
        loss(spec, Xs)
    with pytest.raises(NumericalRangeError, match="column 0;"):
        loss(spec, Xs[[0, 2, 1]])


def test_stacked_input_validation():
    spec, X = bounded_instance(0, 3, 2)
    bad_stack = np.stack([X, X])
    bad_stack[1, 0, 2] = np.nan
    for Xs in (np.zeros((1, 2, 2, 3)), np.zeros((2, 3, 2)), bad_stack):
        with pytest.raises(ValueError):
            forward_cache(spec, Xs)
        with pytest.raises(ValueError):
            loss(spec, Xs)
    # only the forward pass and the loss take a stack
    Xs = np.stack([X, X])
    cache = forward_cache(spec, X)
    for call in (lambda: grad_L(cache, spec, Xs), lambda: hessian_L(cache, spec, Xs),
                 lambda: newton_solve(spec, Xs),
                 lambda: gd_solve(spec, Xs, eta=1e-3, max_iter=1)):
        with pytest.raises(ValueError, match="shape"):
            call()


def test_loss_zero_input_is_target_norm():
    spec, _ = bounded_instance(5, 3, 2)
    assert loss(spec, np.zeros((2, 3))) == pytest.approx(np.sum(spec.B ** 2), rel=1e-14)


def test_loss_scalar_case():
    # n=1: softmax is identically 1, residual x*v - b
    spec = ProblemSpec(1, 1, [[0.3]], [[2.0]], [[0.0]])
    assert loss(spec, [[1.0]]) == pytest.approx(4.0, abs=1e-15)


def test_loss_two_forms_agree():
    spec, X = bounded_instance(0, 4, 3)
    a = loss(spec, X)
    b = loss_frobenius(spec, X)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_loss_dominates_regularizer(seed):
    spec, X = bounded_instance(seed, 3, 2)
    spec = spec.with_gamma(0.5)
    assert loss(spec, X) >= 0.5 * np.sum(X * X) - 1e-12


def test_loss_equals_regularizer_only_at_zero_residual():
    spec, X = bounded_instance(8, 3, 2)
    made = synthesize_target(spec.W, spec.V, X).with_gamma(0.5)
    assert loss(made, X) == pytest.approx(0.5 * np.sum(X * X), rel=1e-14)


def test_synthesize_target_zero_loss():
    spec, X = bounded_instance(2, 3, 2)
    made = synthesize_target(spec.W, spec.V, X)
    assert loss(made, X) <= 1e-20
    cache = forward_cache(made, X)
    assert np.abs(cache.C).max() < 1e-14


def test_synthesize_target_zero_input():
    made = synthesize_target(np.eye(2) * 0.5, np.eye(2), np.zeros((2, 3)))
    assert np.array_equal(made.B, np.zeros((3, 2)))
