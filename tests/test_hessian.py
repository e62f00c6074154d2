import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attninv import hessian
from attninv.gradient import dc_entry, grad_L, grad_c, jacobian_c
from attninv.hessian import (
    block_case1,
    block_case2,
    block_case3,
    block_case4,
    block_case5,
    classify_case,
    d2c_entry,
    d2c_table,
    hessian_L,
    hessian_c,
    residual_hessians,
)
from attninv.model import ProblemSpec, forward_cache, loss, synthesize_target
from attninv.oracle import fd_hessian, fd_jacobian
from conftest import (ACCEPTANCE_SHAPES, block_loop_hessian_c, bounded_instance, per_point,
                      token_loop_hessian_L)


def test_case_classification_is_total_and_matches_layout():
    for n in (1, 2, 3, 4):
        grid = classify_case(*np.ix_(range(n), range(n), range(n)))
        assert grid.shape == (n, n, n)
        for i0 in range(n):
            for i1 in range(n):
                for i2 in range(n):
                    case = classify_case(i0, i1, i2)
                    assert grid[i0, i1, i2] == case
                    if i1 == i0 and i2 == i0:
                        assert case == 1
                    elif i1 == i0:
                        assert case == 2
                    elif i2 == i0:
                        assert case == 3
                    elif i1 == i2:
                        assert case == 4
                    else:
                        assert case == 5


def test_d2c_single_token_is_zero():
    # n=1: the residual is linear in x, so every second derivative vanishes
    spec = ProblemSpec(1, 1, [[0.8]], [[1.3]], [[0.2]])
    cache = forward_cache(spec, [[0.5]])
    assert d2c_entry(cache, spec, 0, 0, 0, 0, 0, 0) == pytest.approx(0.0, abs=1e-12)


def test_d2c_zero_input_vanishes():
    spec, _ = bounded_instance(2, 4, 2)
    X0 = np.zeros((2, 4))
    cache = forward_cache(spec, X0)
    for i0 in range(4):
        for j0 in range(2):
            H = hessian_c(cache, spec, i0, j0)
            assert np.abs(H).max() == 0.0


def test_d2c_matches_fd_per_case():
    spec, X = bounded_instance(0, 4, 2)
    cache = forward_cache(spec, X)
    # one probe per case id: (i0, i1, i2) patterns
    probes = {1: (1, 1, 1), 2: (1, 1, 2), 3: (1, 2, 1), 4: (1, 2, 2), 5: (1, 2, 3)}
    for case, (i0, i1, i2) in probes.items():
        assert classify_case(i0, i1, i2) == case
        j0 = 1
        fd = fd_hessian(lambda Ys: forward_cache(spec, Ys).C[:, i0, j0], X)
        for j1 in range(2):
            for j2 in range(2):
                got = d2c_entry(cache, spec, i0, j0, i1, j1, i2, j2)
                want = fd[i1 * 2 + j1, i2 * 2 + j2]
                assert got == pytest.approx(want, rel=1e-4, abs=1e-4)


def test_d2c_index_and_precondition_errors():
    spec, X = bounded_instance(0, 2, 2)
    cache = forward_cache(spec, X)
    with pytest.raises(IndexError):
        d2c_entry(cache, spec, 0, 0, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        block_case2(cache, spec, 0, 0, 0)
    with pytest.raises(ValueError):
        block_case3(cache, spec, 1, 0, 1)
    with pytest.raises(ValueError):
        block_case4(cache, spec, 1, 0, 1)
    with pytest.raises(ValueError):
        block_case5(cache, spec, 0, 0, 1, 1)


# what a single-index slot refuses: out of range, not an integer, a bool,
# not a number, or an array of any length
@pytest.mark.parametrize("bad", [3, -1, 2**70, 1.0, np.float64(1.0), True, "a", None,
                                 np.array([1]), np.array([0, 1]), [0, 1], np.zeros(0, int)])
def test_single_index_slots_raise_index_error(bad):
    spec, X = bounded_instance(0, 3, 2)
    cache = forward_cache(spec, X)
    calls = (
        lambda v: dc_entry(cache, spec, v, 0, 1, 1),
        lambda v: dc_entry(cache, spec, 0, 0, 1, v),
        lambda v: d2c_entry(cache, spec, 0, v, 1, 1, 2, 0),
        lambda v: d2c_entry(cache, spec, 0, 0, 1, 1, v, 0),
        lambda v: grad_c(cache, spec, 0, v),
        lambda v: block_case1(cache, spec, v, 0),
        lambda v: block_case2(cache, spec, 0, v, 1),
        lambda v: block_case3(cache, spec, 0, 0, v),
        lambda v: block_case4(cache, spec, v, 0, 1),
        lambda v: block_case5(cache, spec, 0, 0, 1, v),
        lambda v: d2c_table(cache, spec, v, 0),
        lambda v: hessian_c(cache, spec, v, 0),
    )
    for call in calls:
        with pytest.raises(IndexError):
            call(bad)


def test_entry_points_accept_python_and_numpy_ints():
    spec, X = bounded_instance(0, 3, 2)
    cache = forward_cache(spec, X)
    for kind in (int, np.int64, np.int32, np.uint8):
        def ints(*values):
            return [kind(v) for v in values]

        assert dc_entry(cache, spec, *ints(0, 1, 2, 0)) == dc_entry(cache, spec, 0, 1, 2, 0)
        assert (d2c_entry(cache, spec, *ints(0, 1, 1, 0, 2, 1))
                == d2c_entry(cache, spec, 0, 1, 1, 0, 2, 1))
        for block, args in ((block_case1, (0, 1)), (block_case2, (0, 1, 2)),
                            (block_case3, (0, 1, 2)), (block_case4, (0, 1, 2)),
                            (block_case5, (0, 1, 1, 2))):
            assert np.array_equal(block(cache, spec, *ints(*args)), block(cache, spec, *args))


def test_single_token_has_no_offdiagonal_blocks():
    spec = ProblemSpec(1, 2, np.eye(2) * 0.3, np.eye(2), np.zeros((1, 2)))
    cache = forward_cache(spec, [[0.2], [0.1]])
    H = hessian_c(cache, spec, 0, 0)
    assert H.shape == (2, 2)
    assert np.array_equal(H, block_case1(cache, spec, 0, 0))


@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=12, deadline=None)
def test_blocks_match_entry_tables(seed, n, d):
    spec, X = bounded_instance(seed, n, d)
    cache = forward_cache(spec, X)
    for i0 in range(n):
        for j0 in range(d):
            H = hessian_c(cache, spec, i0, j0)
            for i1 in range(n):
                for j1 in range(d):
                    for i2 in range(n):
                        for j2 in range(d):
                            entry = d2c_entry(cache, spec, i0, j0, i1, j1, i2, j2)
                            assert abs(entry - H[i1 * d + j1, i2 * d + j2]) <= 1e-10


@given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_d2c_entry_symmetric_under_pair_swap(seed, n, d):
    spec, X = bounded_instance(seed, n, d)
    cache = forward_cache(spec, X)
    for i0 in range(n):
        for i1 in range(n):
            for i2 in range(n):
                for j1 in range(d):
                    for j2 in range(d):
                        a = d2c_entry(cache, spec, i0, 0, i1, j1, i2, j2)
                        b = d2c_entry(cache, spec, i0, 0, i2, j2, i1, j1)
                        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_case3_is_transpose_of_case2():
    spec, X = bounded_instance(3, 3, 2)
    cache = forward_cache(spec, X)
    for i in (1, 2):
        J = block_case2(cache, spec, 0, 1, i)
        assert np.array_equal(block_case3(cache, spec, 0, 1, i), J.T)


def test_case4_block_is_symmetric():
    spec, X = bounded_instance(5, 3, 3)
    cache = forward_cache(spec, X)
    K = block_case4(cache, spec, 0, 1, 2)
    assert np.abs(K - K.T).max() <= 1e-12


def test_case5_swap_transposes():
    spec, X = bounded_instance(6, 4, 2)
    cache = forward_cache(spec, X)
    N12 = block_case5(cache, spec, 0, 1, 1, 2)
    N21 = block_case5(cache, spec, 0, 1, 2, 1)
    assert np.abs(N12 - N21.T).max() <= 1e-12


def test_assembled_hessian_c_symmetric_and_matches_fd():
    spec, X = bounded_instance(0, 3, 2)
    cache = forward_cache(spec, X)
    for i0 in range(3):
        for j0 in range(2):
            H = hessian_c(cache, spec, i0, j0)
            assert np.abs(H - H.T).max() <= 1e-8 * (1 + np.abs(H).max())
            fd = fd_hessian(lambda Ys: forward_cache(spec, Ys).C[:, i0, j0], X)
            assert np.abs(H - fd).max() <= 1e-4 * (1 + np.abs(fd).max())


def test_hessian_L_scalar_case():
    spec = ProblemSpec(1, 1, [[0.2]], [[1.5]], [[0.7]])
    cache = forward_cache(spec, [[0.9]])
    H = hessian_L(cache, spec, [[0.9]])
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(2 * 1.5**2, abs=1e-12)


def test_hessian_L_gauss_newton_at_truth():
    spec, X = bounded_instance(4, 3, 2)
    made = synthesize_target(spec.W, spec.V, X)
    cache = forward_cache(made, X)
    H = hessian_L(cache, made, X)
    rows = np.stack([grad_c(cache, made, i0, j0)
                     for i0 in range(3) for j0 in range(2)])
    assert np.array_equal(H, 2.0 * rows.T @ rows)
    assert np.linalg.eigvalsh(H).min() >= -1e-8


def test_hessian_L_matches_fd_of_loss_and_gradient():
    spec, X = bounded_instance(0, 3, 2)
    spec = spec.with_gamma(0.21)
    cache = forward_cache(spec, X)
    H = hessian_L(cache, spec, X)
    assert np.abs(H - H.T).max() <= 1e-8 * (1 + np.abs(H).max())
    fd = fd_hessian(lambda Ys: loss(spec, Ys), X)
    assert np.abs(H - fd).max() <= 1e-4 * (1 + np.abs(fd).max())
    fdj = fd_jacobian(
        per_point(lambda Y: grad_L(forward_cache(spec, Y), spec, Y)), X)
    assert np.abs(H - 0.5 * (fdj + fdj.T)).max() <= 1e-4 * (1 + np.abs(H).max())


def test_hessian_L_dense_cap(monkeypatch):
    monkeypatch.setenv("ATTNINV_DENSE_CAP", "3")
    spec, X = bounded_instance(0, 2, 2)
    cache = forward_cache(spec, X)
    with pytest.raises(ValueError) as exc:
        hessian_L(cache, spec, X)
    assert str(exc.value) == "n*d = 4 exceeds the dense cap 3"
    monkeypatch.setenv("ATTNINV_DENSE_CAP", "4")
    assert hessian_L(cache, spec, X).shape == (4, 4)


def _three_points(seed, n, d, gamma=0.0):
    """(spec, X) at an independent-B point, at the truth and off it."""
    spec, X = bounded_instance(seed, n, d)
    spec = spec.with_gamma(gamma)
    made = synthesize_target(spec.W, spec.V, X).with_gamma(gamma)
    return ((spec, X), (made, X), (made, X + 0.3 * np.sin(X)))


def looped_hessian_L(cache, spec):
    """The per-residual realization 2 sum (grad_c grad_c^T + c hess_c)
    + 2 gamma I, through the case blocks."""
    nd = spec.n * spec.d
    acc = np.zeros((nd, nd))
    for i0 in range(spec.n):
        for j0 in range(spec.d):
            g = grad_c(cache, spec, i0, j0)
            acc += np.outer(g, g) + cache.C[i0, j0] * hessian_c(cache, spec, i0, j0)
    return 2.0 * acc + 2.0 * spec.gamma * np.eye(nd)


@pytest.mark.parametrize("gamma", [0.0, 0.37])
@pytest.mark.parametrize("seed,shape", list(enumerate(ACCEPTANCE_SHAPES)))
def test_hessian_L_matches_looped_realization(seed, shape, gamma):
    n, d = shape
    for sp, Y in _three_points(3000 + seed, n, d, gamma):
        cache = forward_cache(sp, Y)
        H = hessian_L(cache, sp, Y)
        ref = looped_hessian_L(cache, sp)
        assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()


# 1 x d, n x 1, the acceptance shapes, the newton_recover workload's shapes
# and 32 x 16
CLOSED_FORM_SHAPES = ([(1, 1), (1, 4), (3, 1), (7, 1)] + ACCEPTANCE_SHAPES
                      + [(8, 4), (12, 6), (16, 8), (8, 16), (32, 16)])


@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("seed,shape", list(enumerate(CLOSED_FORM_SHAPES)))
def test_hessian_L_matches_token_loop(seed, shape, gamma):
    n, d = shape
    points = _three_points(9000 + seed, n, d, gamma)
    for sp, Y in (points[0], points[2]):           # off the truth: C != 0
        cache = forward_cache(sp, Y)
        assert np.abs(cache.C).max() > 0.0
        H = hessian_L(cache, sp, Y)
        ref = token_loop_hessian_L(cache, sp)
        assert np.array_equal(H, H.T)
        assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n,d,gamma", [(1, 1, 0.0), (3, 2, 0.21), (2, 4, 0.0),
                                       (4, 3, 0.5), (1, 4, 0.3), (3, 1, 0.3),
                                       (8, 4, 0.0)])
def test_hessian_L_matches_fd_jacobian_of_grad_L(n, d, gamma):
    spec, X = bounded_instance(7 + n * d, n, d)
    spec = spec.with_gamma(gamma)
    H = hessian_L(forward_cache(spec, X), spec, X)
    fdj = fd_jacobian(
        per_point(lambda Y: grad_L(forward_cache(spec, Y), spec, Y)), X)
    assert np.abs(H - fdj).max() <= 1e-4 * (1 + np.abs(H).max())


RESIDUAL_SHAPES = ACCEPTANCE_SHAPES + [(1, 3), (2, 1), (2, 4)]


@pytest.mark.parametrize("seed,shape", list(enumerate(RESIDUAL_SHAPES)))
def test_residual_hessians_match_stacked_hessian_c(seed, shape):
    n, d = shape
    for spec, Y in _three_points(5000 + seed, n, d):
        cache = forward_cache(spec, Y)
        for i0 in range(n):
            T = residual_hessians(cache, spec, i0)
            ref = np.stack([hessian_c(cache, spec, i0, j0) for j0 in range(d)])
            assert T.shape == (d, n * d, n * d)
            # n == 1: c is linear in x, both sides are rounding-level zeros
            scale = np.abs(ref).max() if n > 1 else 1.0
            assert np.abs(T - ref).max() <= 1e-12 * scale


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (2, 3), (4, 3)])
def test_residual_hessians_match_fd_of_jacobian_rows(n, d):
    spec, X = bounded_instance(11 + n * d, n, d)
    cache = forward_cache(spec, X)
    for i0 in range(n):
        fd = fd_jacobian(
            per_point(lambda Y: jacobian_c(forward_cache(spec, Y), spec)[i0 * d:(i0 + 1) * d]),
            X)
        T = residual_hessians(cache, spec, i0)
        assert np.abs(T - fd).max() <= 1e-4 * (1 + np.abs(T).max())


@pytest.mark.parametrize("gamma", [0.0, 0.37])
@pytest.mark.parametrize("seed,shape", list(enumerate(
    ACCEPTANCE_SHAPES + [(1, 4), (3, 1), (8, 4), (12, 6), (16, 8), (8, 16)])))
def test_residual_hessians_weighted_sum_is_hessian_L_curvature(seed, shape, gamma):
    # sum_r C_r T_r == (hessian_L - 2 J^T J - 2 gamma I) / 2: the two
    # production paths certify each other
    n, d = shape
    for spec, Y in _three_points(6000 + seed, n, d, gamma):
        cache = forward_cache(spec, Y)
        K = sum(np.einsum("j,jab->ab", cache.C[i0], residual_hessians(cache, spec, i0))
                for i0 in range(n))
        J = jacobian_c(cache, spec)
        ref = (hessian_L(cache, spec, Y) - 2.0 * J.T @ J
               - 2.0 * spec.gamma * np.eye(n * d)) / 2.0
        scale = max(np.abs(ref).max(), np.abs(J.T @ J).max())
        assert np.abs(K - ref).max() <= 1e-12 * scale


def test_residual_hessians_index_error():
    spec, X = bounded_instance(0, 2, 2)
    with pytest.raises(IndexError):
        residual_hessians(forward_cache(spec, X), spec, 2)


@pytest.mark.parametrize("gamma", [0.0, 0.37])
@pytest.mark.parametrize("seed,shape", list(enumerate(RESIDUAL_SHAPES + [(8, 4), (16, 8)])))
def test_token_stacks_equal_per_token_calls_bitwise(seed, shape, gamma):
    # a stack over i0 is the same arithmetic broadcast over a leading token
    # axis: every token's (d, nd, nd) stack is its own call's, float for
    # float, for all tokens, a consecutive chunk, a scattered subset and one
    n, d = shape
    for spec, Y in _three_points(9700 + seed, n, d, gamma):
        cache = forward_cache(spec, Y)
        single = [residual_hessians(cache, spec, i0) for i0 in range(n)]
        for tokens in (np.arange(n), np.arange(n // 2, n), np.arange(n)[::-2],
                       np.array([n - 1])):
            stack = residual_hessians(cache, spec, tokens)
            assert stack.shape == (len(tokens), d, n * d, n * d)
            for row, i0 in zip(stack, tokens):
                assert np.array_equal(row, single[i0])


@pytest.mark.parametrize("i0", [np.zeros((1, 1), int), np.array([0, 3]), np.array([-1]),
                                np.array([0.0, 1.0]), 1.0, 3, -1])
def test_token_stack_index_error(i0):
    spec, X = bounded_instance(0, 3, 2)
    with pytest.raises(IndexError):
        residual_hessians(forward_cache(spec, X), spec, i0)


TABLE_SHAPES = RESIDUAL_SHAPES + [(8, 4)]


def _entry_table(cache, spec, i0, j0):
    nd, d = spec.n * spec.d, spec.d
    return np.array([[d2c_entry(cache, spec, i0, j0, a // d, a % d, b // d, b % d)
                      for b in range(nd)] for a in range(nd)])


@pytest.mark.parametrize("seed,shape", list(enumerate(TABLE_SHAPES)))
def test_d2c_table_equals_d2c_entry_bitwise(seed, shape):
    # same term tables on an index grid: every entry is the same float
    n, d = shape
    for spec, Y in _three_points(8000 + seed, n, d)[:2]:
        cache = forward_cache(spec, Y)
        for i0 in range(n):
            for j0 in range(d):
                T = d2c_table(cache, spec, i0, j0)
                assert T.shape == (n * d, n * d)
                assert np.array_equal(T, _entry_table(cache, spec, i0, j0))


@pytest.mark.parametrize("seed,shape", list(enumerate(TABLE_SHAPES)))
def test_d2c_table_matches_hessian_c(seed, shape):
    n, d = shape
    for spec, Y in _three_points(8000 + seed, n, d)[:2]:
        cache = forward_cache(spec, Y)
        for i0 in range(n):
            for j0 in range(d):
                ref = hessian_c(cache, spec, i0, j0)
                # n == 1: c is linear in x, both sides are rounding-level zeros
                tol = 1e-12 * np.abs(ref).max() if n > 1 else 1e-15
                assert np.abs(d2c_table(cache, spec, i0, j0) - ref).max() <= tol


def test_d2c_table_matches_fd():
    spec, X = bounded_instance(17, 3, 2)
    cache = forward_cache(spec, X)
    for i0 in range(3):
        for j0 in range(2):
            fd = fd_hessian(lambda Ys: forward_cache(spec, Ys).C[:, i0, j0], X)
            T = d2c_table(cache, spec, i0, j0)
            assert np.abs(T - fd).max() <= 1e-4 * (1 + np.abs(fd).max())


@pytest.mark.parametrize("i0,j0", [(3, 0), (0, 2), (-1, 0), (0, -1)])
def test_d2c_table_index_error(i0, j0):
    spec, X = bounded_instance(0, 3, 2)
    with pytest.raises(IndexError):
        d2c_table(forward_cache(spec, X), spec, i0, j0)


BLOCK_GRID_SHAPES = ACCEPTANCE_SHAPES + [(1, 3), (2, 1), (2, 4), (8, 4), (16, 8)]


@pytest.mark.parametrize("seed,shape", list(enumerate(BLOCK_GRID_SHAPES)))
def test_hessian_c_equals_block_loop_bitwise(seed, shape):
    # the same case-block terms on a token grid: every entry is the same
    # float as in the one-block-at-a-time tiling
    n, d = shape
    # 16 x 8: the first, a middle and the last probe token (the block loop
    # makes n^2 calls per residual)
    probes = range(n) if n <= 8 else (0, n // 2, n - 1)
    for spec, Y in _three_points(9000 + seed, n, d):
        cache = forward_cache(spec, Y)
        for i0 in probes:
            for j0 in range(d):
                H = hessian_c(cache, spec, i0, j0)
                assert np.array_equal(H, block_loop_hessian_c(cache, spec, i0, j0))


def test_hessian_c_makes_one_call_per_case(monkeypatch):
    # one call per index case at every n and for a feature stack; one call
    # per block would scale the counts with n^2, one per feature with k
    names = ("_block_case1", "_block_case2", "_block_case4", "_block_case5")
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(hessian, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(hessian, name, counted)
    for n in (3, 8):
        spec, X = bounded_instance(1, n, 2)
        for j0 in (1, np.arange(2)):
            counts.update(dict.fromkeys(names, 0))
            hessian_c(forward_cache(spec, X), spec, 1, j0)
            assert counts == dict.fromkeys(names, 1), (n, j0)


def test_d2c_table_makes_one_call_per_case(monkeypatch):
    # one term-table evaluation per index case, also for a feature stack:
    # case 3 is placed as the transpose of the case-2 evaluation, not
    # evaluated again
    names = ("_d2c_case1", "_d2c_case2", "_d2c_case4", "_d2c_case5")
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(hessian, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(hessian, name, counted)
    for n in (3, 8):
        spec, X = bounded_instance(1, n, 2)
        for j0 in (1, np.arange(2)):
            counts.update(dict.fromkeys(names, 0))
            d2c_table(forward_cache(spec, X), spec, 1, j0)
            assert counts == dict.fromkeys(names, 1), (n, j0)


@pytest.mark.parametrize("i0,j0", [(3, 0), (-1, 0), (0, 2), (0, -1)])
def test_hessian_c_index_error(i0, j0):
    spec, X = bounded_instance(0, 3, 2)
    with pytest.raises(IndexError):
        hessian_c(forward_cache(spec, X), spec, i0, j0)


# the acceptance family, the benchmark's certify shapes and two larger ones
STACK_SHAPES = ACCEPTANCE_SHAPES + [(4, 3), (6, 4), (8, 4), (12, 6), (16, 8)]


@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("seed,shape", list(enumerate(STACK_SHAPES)))
def test_feature_stacks_equal_per_feature_calls_bitwise(seed, shape, gamma):
    # a stack over j0 is the same arithmetic broadcast over a leading
    # feature axis: every Hessian is its own call's, float for float, and
    # the per-feature calls are the term-table entries and the block tiling
    n, d = shape
    nd = n * d
    # 12 x 6 and 16 x 8: the first, a middle and the last probe token
    probes = range(n) if n <= 8 else (0, n // 2, n - 1)
    for point, (spec, Y) in enumerate(_three_points(9500 + seed, n, d, gamma)):
        cache = forward_cache(spec, Y)
        for i0 in probes:
            T = d2c_table(cache, spec, i0, np.arange(d))
            H = hessian_c(cache, spec, i0, np.arange(d))
            assert T.shape == H.shape == (d, nd, nd)
            for j0 in range(d):
                assert np.array_equal(T[j0], d2c_table(cache, spec, i0, j0))
                assert np.array_equal(H[j0], hessian_c(cache, spec, i0, j0))
        # one residual against the per-residual references (the tests above
        # cover every residual at gamma 0); d2c_entry makes (nd)^2 calls,
        # so beyond nd = 32 at the first point only
        i0, j0 = n // 2, d - 1
        H = hessian_c(cache, spec, i0, np.array([j0]))[0]
        assert np.array_equal(H, block_loop_hessian_c(cache, spec, i0, j0))
        if nd <= 32 or point == 0:
            T = d2c_table(cache, spec, i0, np.array([j0]))[0]
            assert np.array_equal(T, _entry_table(cache, spec, i0, j0))


def test_feature_stacks_take_any_feature_order():
    # chunks, repeats and reversed order: row r is feature j0[r]
    spec, X = bounded_instance(5, 4, 3)
    cache = forward_cache(spec, X)
    for j0 in ([2, 0], [1, 1, 2], [1], np.arange(3)[::-1]):
        for fn in (d2c_table, hessian_c):
            stack = fn(cache, spec, 2, np.asarray(j0))
            assert stack.shape == (len(j0), 12, 12)
            for row, j in zip(stack, j0):
                assert np.array_equal(row, fn(cache, spec, 2, int(j)))


@pytest.mark.parametrize("j0", [np.array([0, 2]), np.array([-1]), np.zeros((1, 1), int),
                                np.array([0.0, 1.0]), np.array([True])])
def test_feature_stack_index_error(j0):
    spec, X = bounded_instance(0, 3, 2)
    cache = forward_cache(spec, X)
    for fn in (d2c_table, hessian_c):
        with pytest.raises(IndexError):
            fn(cache, spec, 0, j0)
