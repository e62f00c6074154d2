import inspect

import numpy as np
import pytest

import attninv.oracle
from attninv.generate import make_instance
from attninv.model import NumericalRangeError, forward_cache, loss
from attninv.oracle import STEP, STEP2, CheckReport, check, fd_grad, fd_hessian, fd_jacobian
from conftest import ACCEPTANCE_SHAPES


def _vec(Ys):
    """Token-major flattening of every matrix of a (p, d, n) stack."""
    return Ys.transpose(0, 2, 1).reshape(len(Ys), -1)


def test_oracle_stays_independent_of_analytic_code():
    # the oracle certifies the gradient/Hessian modules, so it must never
    # import them
    imports = [line for line in inspect.getsource(attninv.oracle).splitlines()
               if line.startswith(("import", "from"))]
    assert not any("gradient" in line or "hessian" in line for line in imports)


def test_fd_grad_cubic():
    # f(x) = x^3 at x = 1: the central difference is 3 + h^2, and the
    # per-coordinate step is h = STEP * (1 + |x|) = 2e-5
    g = fd_grad(lambda Xs: Xs[:, 0, 0] ** 3, np.array([[1.0]]))
    assert g[0] - 3.0 == pytest.approx((2.0 * STEP) ** 2, abs=2e-11)


def test_fd_grad_constant():
    g = fd_grad(lambda Xs: np.full(len(Xs), 7.5), np.ones((2, 3)))
    assert np.array_equal(g, np.zeros(6))


def test_fd_grad_quadratic_near_exact():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 6))
    A = 0.5 * (A + A.T)
    X = rng.normal(size=(2, 3))

    def quad(Ys):
        v = _vec(Ys)
        return ((v @ A) * v).sum(axis=1)

    g = fd_grad(quad, X)
    v = np.ascontiguousarray(X.T).reshape(-1)
    assert np.abs(g - 2 * A @ v).max() < 1e-9


def test_fd_jacobian_identity_and_linear():
    X = np.arange(6.0).reshape(2, 3)
    J = fd_jacobian(_vec, X)
    assert np.abs(J - np.eye(6)).max() < 1e-9

    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 6))
    J = fd_jacobian(lambda Ys: _vec(Ys) @ A.T, X)
    assert np.abs(J - A).max() < 1e-8


def test_fd_hessian_bilinear():
    def f(Ys):
        return Ys[:, 0, 0] * Ys[:, 0, 1]

    H = fd_hessian(f, np.array([[0.3, -0.7]]))
    assert np.abs(H - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-8


def test_fd_hessian_quadratic():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    A = 0.5 * (A + A.T)

    def quad(Ys):
        v = _vec(Ys)
        return ((v @ A) * v).sum(axis=1)

    X = rng.normal(size=(2, 2))
    H = fd_hessian(quad, X)
    assert np.abs(H - 2 * A).max() < 1e-6
    assert np.array_equal(H, H.T)


def test_fd_nonfinite_probe_raises():
    with pytest.raises(NumericalRangeError):
        fd_grad(lambda Xs: np.full(len(Xs), np.nan), np.zeros((1, 1)))
    # one non-finite value anywhere in a stack is enough
    with pytest.raises(NumericalRangeError):
        fd_hessian(lambda Xs: np.where(Xs[:, 0, 1] < 0, np.inf, 0.0),
                   np.zeros((1, 2)))


def test_fd_target_must_return_one_value_per_point():
    with pytest.raises(ValueError, match="one value per stacked point"):
        fd_grad(lambda Xs: 7.5, np.ones((2, 3)))
    with pytest.raises(ValueError, match="one value per stacked point"):
        fd_hessian(lambda Xs: Xs[0, 0], np.ones((2, 3)))


# The per-point oracles the stacked ones replaced, kept as the reference:
# one target call per stencil point, each coordinate shifted by one addition.

def _probe(fn, X):
    value = fn(X)
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise NumericalRangeError("non-finite probe value in finite differencing")
    return value


def _shift(X, k, delta):
    d = X.shape[0]
    Y = X.copy()
    Y[k % d, k // d] += delta
    return Y


def _steps(X, step):
    return step * (1.0 + np.abs(np.ascontiguousarray(X.T).reshape(-1)))


def _loop_fd_grad(scalar_fn, X):
    steps = _steps(X, STEP)
    out = np.empty(X.size)
    for k in range(X.size):
        h = steps[k]
        out[k] = (_probe(scalar_fn, _shift(X, k, h))
                  - _probe(scalar_fn, _shift(X, k, -h))) / (2.0 * h)
    return out


def _loop_fd_jacobian(vector_fn, X):
    steps = _steps(X, STEP)
    cols = []
    for k in range(X.size):
        h = steps[k]
        hi = np.asarray(_probe(vector_fn, _shift(X, k, h)), dtype=float)
        lo = np.asarray(_probe(vector_fn, _shift(X, k, -h)), dtype=float)
        cols.append((hi - lo) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _loop_fd_hessian(scalar_fn, X):
    m = X.size
    steps = _steps(X, STEP2)
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


def _recorded(fn, seen):
    def target(Y):
        seen.append(np.array(Y))
        return fn(Y)
    return target


def _assert_matches_loop(oracle, loop, stacked_fn, point_fn, X):
    """Same result bit for bit, and the same points in the same order."""
    stacks, points = [], []
    assert np.array_equal(oracle(_recorded(stacked_fn, stacks), X),
                          loop(_recorded(point_fn, points), X))
    assert np.array_equal(np.concatenate(stacks), np.stack(points))


PIN_SHAPES = ACCEPTANCE_SHAPES + [(4, 3), (6, 4), (8, 4), (1, 3), (2, 1)]


@pytest.mark.parametrize("n,d", PIN_SHAPES)
def test_stacked_oracles_equal_the_per_point_loop_bitwise(n, d):
    spec, X = make_instance(n * d, n, d)
    X = X + 0.05
    spec = spec.with_gamma(0.3)
    _assert_matches_loop(fd_grad, _loop_fd_grad, lambda Ys: loss(spec, Ys),
                         lambda Y: loss(spec, Y), X)
    _assert_matches_loop(fd_hessian, _loop_fd_hessian, lambda Ys: loss(spec, Ys),
                         lambda Y: loss(spec, Y), X)
    _assert_matches_loop(fd_jacobian, _loop_fd_jacobian,
                         lambda Ys: forward_cache(spec, Ys).C,
                         lambda Y: forward_cache(spec, Y).C, X)


@pytest.mark.parametrize("n,d", [(1, 3), (3, 2), (4, 3)])
def test_stacked_oracles_keep_the_loop_arithmetic_on_a_rough_target(n, d):
    # Stencil values of a smooth target agree in their leading digits, so
    # many reorderings of the difference formulas round identically; values
    # spread over [-1, 1] make every operation and its order show.
    rng = np.random.default_rng(n * d)
    X = rng.normal(size=(d, n))
    A = rng.normal(size=(d, n))
    _assert_matches_loop(fd_grad, _loop_fd_grad,
                         lambda Ys: np.sin(1e6 * (Ys * A).sum(axis=(1, 2))),
                         lambda Y: np.sin(1e6 * (Y * A).sum()), X)
    _assert_matches_loop(fd_hessian, _loop_fd_hessian,
                         lambda Ys: np.sin(1e6 * (Ys * A).sum(axis=(1, 2))),
                         lambda Y: np.sin(1e6 * (Y * A).sum()), X)


def test_fd_hessian_call_size_is_bounded():
    # n = 64 tokens: at most 2**16 // 64**2 = 16 points per call, although
    # row 0 of the 64-coordinate Hessian has 2 + 4 * 63 = 254 points
    sizes = []

    def quad(Ys):
        sizes.append(len(Ys))
        return (Ys * Ys).sum(axis=(1, 2))

    X = np.linspace(-1.0, 1.0, 64).reshape(1, 64)
    H = fd_hessian(quad, X)
    assert max(sizes) == 2**16 // 64**2
    assert sum(sizes) == 1 + sum(2 + 4 * (63 - k) for k in range(64))
    assert np.abs(H - 2.0 * np.eye(64)).max() < 1e-6


def test_check_pass_and_fail():
    a = np.zeros((2, 3))
    rep = check(a, a, 1e-4, target="same")
    assert isinstance(rep, CheckReport)
    assert rep.passed and rep.max_abs_err == 0.0

    b = a.copy()
    b[1, 2] = 1e-2
    rep = check(a, b, 1e-4, target="offby")
    assert not rep.passed
    assert rep.worst_index == (1, 2)
    assert rep.max_abs_err == pytest.approx(1e-2)


def test_check_shape_mismatch():
    with pytest.raises(ValueError):
        check(np.zeros(3), np.zeros(4), 1e-6)


def test_check_tol_validation():
    a = np.zeros(3)
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            check(a, a, tol)
