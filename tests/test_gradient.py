import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attninv.analysis import effective_bound_constant
from attninv.gradient import dc_entry, grad_L, grad_c, jacobian_c
from attninv.model import ProblemSpec, forward_cache, loss, synthesize_target
from attninv.oracle import fd_grad, fd_jacobian
from conftest import bound_suite_at, bounded_instance, softmax_direction


def residual_fn(spec, i0, j0):
    return lambda Ys: forward_cache(spec, Ys).C[:, i0, j0]


def test_dc_entry_zero_input_only_value_term():
    spec, _ = bounded_instance(1, 3, 2)
    X0 = np.zeros((2, 3))
    cache = forward_cache(spec, X0)
    for i0 in range(3):
        for j0 in range(2):
            for i1 in range(3):
                for j1 in range(2):
                    # every term but the value term C5 (resp. C8) is zero
                    value_term = cache.F[i1, i0] * spec.V[j1, j0]
                    assert dc_entry(cache, spec, i0, j0, i1, j1) == value_term
                    assert value_term == pytest.approx(spec.V[j1, j0] / 3, abs=1e-15)


def test_dc_entry_single_token_collapses_to_value():
    # with one token the softmax weight is constant, so only C5 survives
    spec = ProblemSpec(1, 1, [[0.8]], [[1.7]], [[0.3]])
    cache = forward_cache(spec, [[0.6]])
    assert dc_entry(cache, spec, 0, 0, 0, 0) == pytest.approx(1.7, abs=1e-12)


def test_dc_entry_matches_fd_probe():
    spec, X = bounded_instance(0, 3, 2)
    cache = forward_cache(spec, X)
    got = dc_entry(cache, spec, 0, 0, 1, 1)
    fd = fd_grad(residual_fn(spec, 0, 0), X)[1 * 2 + 1]
    assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_dc_entry_index_errors():
    spec, X = bounded_instance(0, 2, 2)
    cache = forward_cache(spec, X)
    with pytest.raises(IndexError):
        dc_entry(cache, spec, 2, 0, 0, 0)
    with pytest.raises(IndexError):
        dc_entry(cache, spec, 0, 0, 0, 5)


def test_dc_terms_sum_in_listed_order():
    spec, X = bounded_instance(4, 4, 2)
    cache = forward_cache(spec, X)
    F, H, V = cache.F, cache.H, spec.V
    for i0, j0, i1, j1 in np.ndindex(4, 2, 4, 2):
        s, w1, f01 = cache.S[i0, j0], cache.Wsc[i0, j1], F[i1, i0]
        if i0 == i1:
            terms = (-s * f01 * w1,                                             # C1
                     -s * cache.Zsc[i0, j1],                                    # C2
                     f01 * H[i0, j0] * w1,                                      # C3
                     float(np.dot(F[:, i0] * cache.XW[:, j1], H[:, j0])),       # C4
                     f01 * V[j1, j0])                                           # C5
        else:
            terms = (-s * f01 * w1,                                             # C6
                     f01 * H[i1, j0] * w1,                                      # C7
                     f01 * V[j1, j0])                                           # C8
        acc = 0.0
        for t in terms:
            acc += t
        assert dc_entry(cache, spec, i0, j0, i1, j1) == acc


def test_grad_c_zero_input_constant():
    spec = ProblemSpec(2, 1, [[0.4]], [[1.0]], np.zeros((2, 1)))
    cache = forward_cache(spec, np.zeros((1, 2)))
    for i0 in range(2):
        g = grad_c(cache, spec, i0, 0)
        assert np.allclose(g, 0.5, atol=1e-15)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_grad_c_entries_match_dc_entry(seed, n, d):
    spec, X = bounded_instance(seed, n, d)
    cache = forward_cache(spec, X)
    for i0 in range(n):
        for j0 in range(d):
            g = grad_c(cache, spec, i0, j0)
            for i1 in range(n):
                for j1 in range(d):
                    assert g[i1 * d + j1] == pytest.approx(
                        dc_entry(cache, spec, i0, j0, i1, j1),
                        rel=1e-12, abs=1e-15)


def test_grad_c_norm_bound_and_fd_row():
    spec, X = bounded_instance(0, 3, 2)
    cache = forward_cache(spec, X)
    R = effective_bound_constant(spec, X)
    nd = spec.n * spec.d
    for i0 in range(spec.n):
        for j0 in range(spec.d):
            g = grad_c(cache, spec, i0, j0)
            assert np.linalg.norm(g) <= 5 * np.sqrt(nd) * R**4
            fd = fd_grad(residual_fn(spec, i0, j0), X)
            assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(fd).max())


@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_dc_entry_bound(seed, n, d):
    spec, X = bounded_instance(seed, n, d)
    cache = forward_cache(spec, X)
    R = effective_bound_constant(spec, X)
    for i0 in range(n):
        for j0 in range(d):
            for i1 in range(n):
                for j1 in range(d):
                    assert abs(dc_entry(cache, spec, i0, j0, i1, j1)) <= 5 * R**4


def test_grad_f_single_token_is_zero():
    # at n = 1 the softmax column is constant, so bound_suite's softmax
    # derivative norms are exactly zero
    spec = ProblemSpec(1, 1, [[0.9]], [[1.0]], [[0.0]])
    by_name = {c.name: c.lhs for c in bound_suite_at(spec, np.array([[0.4]])).checks}
    assert by_name["softmax_grad_direction_norm"] == 0.0
    assert by_name["softmax_grad_frobenius"] == 0.0


@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_grad_f_entries_sum_to_zero(seed, n, d):
    spec, X = bounded_instance(seed, n, d)
    cache = forward_cache(spec, X)
    for i0 in range(n):
        for i1 in range(n):
            for j1 in range(d):
                assert abs(softmax_direction(cache, spec, i0, i1, j1).sum()) < 1e-12


def test_grad_f_matches_fd_of_softmax_column():
    spec, X = bounded_instance(0, 4, 2)
    cache = forward_cache(spec, X)
    for i0 in range(4):
        J = fd_jacobian(lambda Ys: forward_cache(spec, Ys).F[:, :, i0].copy(), X)
        G = np.array([softmax_direction(cache, spec, i0, i1, j1)
                      for i1 in range(4) for j1 in range(2)])
        assert np.abs(G.T - J).max() < 1e-6


def test_grad_L_closed_form_at_zero():
    spec = ProblemSpec(2, 1, [[0.4]], [[1.0]], [[1.0], [1.0]])
    X0 = np.zeros((1, 2))
    cache = forward_cache(spec, X0)
    assert np.allclose(grad_L(cache, spec, X0), -2.0, atol=1e-14)


def test_grad_L_vanishes_at_synthesized_truth():
    spec, X = bounded_instance(7, 3, 2)
    made = synthesize_target(spec.W, spec.V, X)
    cache = forward_cache(made, X)
    assert np.abs(grad_L(cache, made, X)).max() < 1e-10


def test_grad_L_matches_fd():
    spec, X = bounded_instance(0, 3, 2)
    spec = spec.with_gamma(0.37)
    cache = forward_cache(spec, X)
    g = grad_L(cache, spec, X)
    fd = fd_grad(lambda Ys: loss(spec, Ys), X)
    assert np.abs(g - fd).max() <= 1e-6 * (1 + np.abs(fd).max())


@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 4),
       st.sampled_from([0.0, 0.3]))
@settings(max_examples=25, deadline=None)
def test_grad_L_matches_residual_sum(seed, n, d, gamma):
    spec, X = bounded_instance(seed, n, d)
    spec = spec.with_gamma(gamma)
    cache = forward_cache(spec, X)
    ref = 2.0 * sum(cache.C[i0, j0] * grad_c(cache, spec, i0, j0)
                    for i0 in range(n) for j0 in range(d))
    ref = ref + 2.0 * gamma * X.T.reshape(-1)
    g = grad_L(cache, spec, X)
    assert np.abs(g - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_jacobian_c_rows_are_dc_entry_totals(seed, n, d):
    spec, X = bounded_instance(seed, n, d)
    cache = forward_cache(spec, X)
    J = jacobian_c(cache, spec)
    assert J.shape == (n * d, n * d)
    for i0 in range(n):
        for j0 in range(d):
            row = J[i0 * d + j0]
            assert np.array_equal(row, grad_c(cache, spec, i0, j0))
            for i1 in range(n):
                for j1 in range(d):
                    total = dc_entry(cache, spec, i0, j0, i1, j1)
                    assert abs(row[i1 * d + j1] - total) <= 1e-12 * (1.0 + abs(total))
